// Package candidates maintains the live peer-candidate index that
// approx-mode serving consults before Eq.-1 scoring. It promotes
// internal/clustering (the full-dimensional-clustering peer-search
// acceleration from the paper's related work, §VII) from an offline
// ablation tool into a serving-path subsystem:
//
//   - An Index clusters the candidate universe with seeded k-means
//     (rating instantiations over mean-centered rating vectors,
//     profile instantiations over frozen TF-IDF term vectors) and is
//     maintained incrementally: each write reassigns the touched user
//     to its nearest retained centroid, and a write-count or drift
//     threshold triggers a background full rebuild on the janitor
//     pattern. Rebuilds snapshot outside the lock and swap under it,
//     with an invalidation-generation fence so an InvalidateAll racing
//     a build re-dirties the freshly installed result instead of being
//     lost.
//
//   - Approx (opted into per query) restricts the peer scan to the
//     query user's cluster plus the Neighbors nearest clusters by
//     centroid cosine, trading recall for throughput. Exact queries
//     never consult the index. Staleness between incremental
//     reassignment and the next rebuild only affects which users are
//     candidates, never how a candidate is scored.
package candidates

import (
	"math"
	"sync"
	"time"

	"fairhealth/internal/clustering"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
)

// Defaults for Config fields left zero.
const (
	// DefaultRebuildEvery is the write count that triggers a
	// background full rebuild.
	DefaultRebuildEvery = 256
	// DefaultDriftRatio is the moved-users/total-users ratio that
	// triggers a background full rebuild before the write count does.
	DefaultDriftRatio = 0.25
	// DefaultNeighbors is how many nearest-neighbor clusters approx
	// mode adds to the query user's own cluster.
	DefaultNeighbors = 1
)

// Config parameterizes an Index.
type Config struct {
	// K is the cluster count; 0 picks ⌈√n⌉ at build time (≥ 2).
	K int
	// Seed drives k-means initialization; equal seeds and data give
	// identical clusterings.
	Seed int64
	// RebuildEvery triggers a background rebuild after this many
	// writes since the last build (0 → DefaultRebuildEvery; < 0
	// disables the write-count trigger).
	RebuildEvery int
	// DriftRatio triggers a background rebuild when the fraction of
	// indexed users moved by incremental reassignment since the last
	// build exceeds it (0 → DefaultDriftRatio; < 0 disables).
	DriftRatio float64
	// Neighbors is how many nearest clusters approx candidates include
	// beyond the user's own (0 → DefaultNeighbors; < 0 → own cluster
	// only).
	Neighbors int
}

func (c Config) withDefaults() Config {
	if c.RebuildEvery == 0 {
		c.RebuildEvery = DefaultRebuildEvery
	}
	if c.DriftRatio == 0 {
		c.DriftRatio = DefaultDriftRatio
	}
	if c.Neighbors == 0 {
		c.Neighbors = DefaultNeighbors
	} else if c.Neighbors < 0 {
		c.Neighbors = 0
	}
	return c
}

// Snapshot produces the candidate universe and the feature vectors the
// index clusters, captured at (re)build time. It is called without the
// index lock held; implementations read their backing stores directly
// so concurrent writes are safe (the invalidation fence covers races).
type Snapshot func() (users []model.UserID, vf clustering.VectorFunc, err error)

// Stats is a point-in-time snapshot of an Index for /v1/stats.
type Stats struct {
	// Built is false until the first successful (lazy) build.
	Built bool `json:"built"`
	// Clusters and Users describe the current clustering.
	Clusters int `json:"clusters"`
	Users    int `json:"users"`
	// Inertia is the clustering's within-cluster dissimilarity at the
	// last full build (incremental reassignments don't update it).
	Inertia float64 `json:"inertia"`
	// Reassignments counts incremental per-write reassignment checks;
	// Moved counts how many actually changed cluster.
	Reassignments int64 `json:"reassignments"`
	Moved         int64 `json:"moved"`
	// Rebuilds counts successful full builds (the lazy first build
	// included).
	Rebuilds int64 `json:"rebuilds"`
	// WritesSinceRebuild is the rebuild-trigger progress.
	WritesSinceRebuild int64 `json:"writes_since_rebuild"`
	// LastRebuildAgeSeconds is the age of the current clustering
	// (0 when never built).
	LastRebuildAgeSeconds float64 `json:"last_rebuild_age_seconds"`
}

// Index is a live cluster index over a candidate universe. The zero
// value is not usable; construct with New or NewRatings. All methods
// are safe for concurrent use.
type Index struct {
	cfg      Config
	snapshot Snapshot

	// buildMu serializes full builds so concurrent EnsureBuilt calls
	// compute once; mu guards everything below it.
	buildMu  sync.Mutex
	mu       sync.Mutex
	res      *clustering.Result
	vf       clustering.VectorFunc // vector source of the last build
	dirty    bool
	invalGen int64 // bumped by InvalidateAll; fences racing rebuilds
	building bool  // a background rebuild goroutine is in flight
	closed   bool

	writes        int64
	moved         int64
	reassignments int64
	rebuilds      int64
	builtAt       time.Time

	wg sync.WaitGroup
}

// New builds an Index over an arbitrary universe/vector source.
// Profile instantiations snapshot the frozen TF-IDF term vectors.
func New(snapshot Snapshot, cfg Config) *Index {
	return &Index{cfg: cfg.withDefaults(), snapshot: snapshot}
}

// NewRatings builds an Index over the store's rated users and
// mean-centered rating vectors.
func NewRatings(store *ratings.Store, cfg Config) *Index {
	return New(func() ([]model.UserID, clustering.VectorFunc, error) {
		return store.Users(), clustering.RatingVectors(store), nil
	}, cfg)
}

// autoK is the default cluster count: ⌈√n⌉, at least 2 (one cluster
// would make approx mode a full scan).
func autoK(n int) int {
	k := int(math.Ceil(math.Sqrt(float64(n))))
	if k < 2 {
		k = 2
	}
	return k
}

// EnsureBuilt builds the clustering if absent or invalidated. Serving
// paths call it lazily; a failed build (e.g. empty universe) leaves
// the index unbuilt and is retried on the next call.
func (x *Index) EnsureBuilt() error {
	x.mu.Lock()
	ok := x.res != nil && !x.dirty
	x.mu.Unlock()
	if ok {
		return nil
	}
	return x.rebuild()
}

// rebuild computes a fresh clustering from a snapshot and swaps it in.
// Writes that land during the build keep accumulating toward the next
// trigger (the counter is reduced only by what the snapshot saw), and
// an InvalidateAll during the build leaves the swapped-in result
// dirty — the eviction-sequence discipline of the other cache layers.
func (x *Index) rebuild() error {
	x.buildMu.Lock()
	defer x.buildMu.Unlock()

	x.mu.Lock()
	if x.res != nil && !x.dirty {
		x.mu.Unlock()
		return nil
	}
	gen := x.invalGen
	preWrites := x.writes
	x.mu.Unlock()

	users, vf, err := x.snapshot()
	if err != nil {
		return err
	}
	k := x.cfg.K
	if k <= 0 {
		k = autoK(len(users))
	}
	res, err := clustering.KMeansVectors(users, vf, clustering.Config{K: k, Seed: x.cfg.Seed})
	if err != nil {
		return err
	}

	x.mu.Lock()
	x.res = res
	x.vf = vf
	x.rebuilds++
	x.builtAt = time.Now()
	x.dirty = gen != x.invalGen
	x.writes -= preWrites
	if x.writes < 0 {
		x.writes = 0
	}
	x.moved = 0
	x.mu.Unlock()
	return nil
}

// OnWrite records that the given users' vectors changed: each is
// reassigned to its nearest retained centroid (cheap — K cosines),
// and a write-count or drift trigger schedules a background full
// rebuild. Wire it from the same observer chain that evicts the other
// cache layers.
func (x *Index) OnWrite(users ...model.UserID) {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.writes += int64(len(users))
	if x.res != nil && x.vf != nil && !x.dirty {
		for _, u := range users {
			x.reassignments++
			if x.res.Reassign(u, x.vf) {
				x.moved++
			}
		}
	}
	trigger := false
	if x.res != nil {
		if x.cfg.RebuildEvery > 0 && x.writes >= int64(x.cfg.RebuildEvery) {
			trigger = true
		}
		if n := len(x.res.Assignment); x.cfg.DriftRatio > 0 && n > 0 &&
			float64(x.moved)/float64(n) > x.cfg.DriftRatio {
			trigger = true
		}
		if x.dirty {
			trigger = true
		}
	}
	if trigger && !x.building {
		x.building = true
		x.dirty = true // force rebuild() past its freshness check
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			_ = x.rebuild() // next EnsureBuilt retries on failure
			x.mu.Lock()
			x.building = false
			x.mu.Unlock()
		}()
	}
	x.mu.Unlock()
}

// InvalidateAll marks the clustering stale — e.g. the profile corpus
// was rebuilt, so every term vector changed wholesale. The next
// EnsureBuilt (or background trigger) rebuilds; until then approx
// lookups still serve the old clustering (approx mode tolerates
// staleness by contract; exact mode never reads the clustering).
func (x *Index) InvalidateAll() {
	x.mu.Lock()
	x.dirty = true
	x.invalGen++
	x.mu.Unlock()
}

// Approx returns the approx-mode candidate set for u: the members of
// u's cluster plus the Neighbors nearest clusters by centroid cosine.
// It returns nil — scan everyone — when the index cannot be built or
// u is not indexed, so callers degrade to exact behavior rather than
// to an empty answer.
func (x *Index) Approx(u model.UserID) []model.UserID {
	if err := x.EnsureBuilt(); err != nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.res == nil {
		return nil
	}
	c := x.res.ClusterOf(u)
	if c < 0 {
		return nil
	}
	// Copy under the lock: Reassign mutates member slices in place.
	out := append([]model.UserID(nil), x.res.Members[c]...)
	for _, nc := range x.res.NearestClusters(c, x.cfg.Neighbors) {
		out = append(out, x.res.Members[nc]...)
	}
	return out
}

// Source adapts Approx to the cf.Recommender.Candidates signature.
func (x *Index) Source() func(model.UserID) []model.UserID {
	return x.Approx
}

// Stats snapshots the index counters.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := Stats{
		Built:              x.res != nil,
		Reassignments:      x.reassignments,
		Moved:              x.moved,
		Rebuilds:           x.rebuilds,
		WritesSinceRebuild: x.writes,
	}
	if x.res != nil {
		s.Clusters = x.res.K()
		s.Users = len(x.res.Assignment)
		s.Inertia = x.res.Inertia
		s.LastRebuildAgeSeconds = time.Since(x.builtAt).Seconds()
	}
	return s
}

// Close waits for any background rebuild to finish and stops new ones
// from being scheduled. The index stays readable after Close.
func (x *Index) Close() {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
	x.wg.Wait()
}
