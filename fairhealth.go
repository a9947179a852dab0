// Package fairhealth is a fairness-aware group recommender for the
// health domain — a from-scratch Go implementation of Stratigi,
// Kondylakis & Stefanidis, "Fairness in Group Recommendations in the
// Health Domain" (ICDE 2017).
//
// The system serves a caregiver responsible for a group of patients:
// it predicts each patient's interest in health documents with
// collaborative filtering (peers selected by a similarity threshold δ,
// Def. 1; relevance by similarity-weighted averaging, Eq. 1),
// aggregates the predictions into group scores with veto (min) or
// majority (avg) semantics (Def. 2), and selects the top-z
// recommendations that are both highly relevant and fair — where a set
// is fair to a patient when it contains at least one item from their
// personal top-k (Def. 3).
//
// The paper's four user-similarity measures (§V) are each a scorer:
// Pearson correlation over shared ratings ("user-cf"), cosine over
// TF-IDF profile vectors ("profile"), semantic distance of coded
// health problems over a SNOMED-CT-style ontology ("semantic"), and
// an equally weighted hybrid of all three ("hybrid").
//
// Every group recommendation is one typed request — a GroupQuery —
// answered by the single execution path System.Serve:
//
//	sys, _ := fairhealth.New(fairhealth.Config{})
//	sys.AddRating("alice", "doc1", 5)
//	...
//	res, _ := sys.Serve(ctx, fairhealth.GroupQuery{
//		Members: []string{"alice", "bob"},
//		Z:       10,
//	})
//	fmt.Println(res.Items, res.Fairness)
//
// The query object carries every knob — solver method (greedy or
// brute), relevance scorer, brute-force bounds, per-query aggregation
// semantics and fairness K, and an explain flag for the per-member
// evidence. ServeBatch and ServeStream answer many queries at once.
//
// The fairness machinery is scorer-agnostic: the per-member candidate
// scores it selects over come from a pluggable relevance backend
// (internal/scoring). GroupQuery.Scorer picks it per query — "user-cf"
// (the paper's §III.A model, the default), "item-cf" (item-based CF
// whose neighbor model scales with items instead of users, built
// lazily and patched after writes), or user-user CF with peers by
// another §V measure ("profile", "semantic", "hybrid") — and
// Config.Scorer changes the default. Per-member scoring fans out
// across the group in parallel, and assembled group-relevance inputs
// are memoized per (scorer, members, aggregation, K) with the same
// write-fencing discipline as the caches below them.
//
// Batch serving: many caregiver queries can be answered in one call,
// each with its own method and parameters. The queries fan out across
// bounded workers — each entry carries its own result or error, and a
// cancelled context stops mid-batch:
//
//	queries := []fairhealth.GroupQuery{
//		{Members: []string{"alice", "bob"}, Z: 10},
//		{Members: []string{"bob", "carol", "dan"}, Z: 5, Method: fairhealth.MethodBrute, BruteM: 20},
//	}
//	batch, _ := sys.ServeBatch(ctx, queries)
//	for _, e := range batch {
//		if e.Err == nil {
//			fmt.Println(e.Group, e.Result.Items, e.Result.Fairness)
//		}
//	}
//
// ServeStream is the incremental variant: entries are yielded to a
// callback as each query completes (completion order, Index links an
// entry back to its request slot) instead of buffering the whole batch
// — the backing of the HTTP API's NDJSON streaming mode:
//
//	_ = sys.ServeStream(ctx, queries, func(e fairhealth.BatchGroupResult) error {
//		fmt.Println(e.Index, e.Group, e.Err)
//		return nil // a non-nil error stops the stream
//	})
//
// Invalidation is scoped, so caches stay warm under mixed read/write
// traffic: a rating write to user u evicts only u's own peer set (and
// u's row of the hybrid scorer's similarity memo; the ratings store
// reports the touched user, and every cache layer evicts by user
// instead of flushing); every other peer set is
// patched for u on its next read, and the item-cf model for the item
// pairs u's ratings span. Profile writes rebuild profile-derived
// state, so they still flush everything, as does the explicit
// InvalidateCaches. Reads racing a write may see either side of it;
// once writes quiesce, served scores are bit-identical to a freshly
// built system's.
//
// Under user-cf, peer discovery computes a member's whole Pearson row
// in one item-major pass over the ratings snapshot's column index, so
// the System keeps no similarity memo at all. The profile, semantic
// and hybrid scorers have no row form; each memoizes its own pairs.
// The memoization layers (those similarity memos and the peer-set
// caches) ride the shared internal/cache engine: Config.CacheTTL ages
// long-idle entries out across requests and Config.CacheMaxEntries
// LRU-bounds each layer; System.CacheStats (and GET /v1/stats) report
// hits, misses, evictions, expirations, and live entry counts. With a
// TTL configured, call Close when discarding the System so the
// background janitors stop.
package fairhealth

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairhealth/internal/cache"
	"fairhealth/internal/candidates"
	"fairhealth/internal/cf"
	"fairhealth/internal/core"
	"fairhealth/internal/group"
	"fairhealth/internal/model"
	"fairhealth/internal/ontology"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/reasoning"
	"fairhealth/internal/scoring"
	"fairhealth/internal/search"
	"fairhealth/internal/simfn"
	"fairhealth/internal/snomed"
	"fairhealth/internal/wal"
)

// Public errors.
var (
	// ErrBadConfig reports an invalid Config.
	ErrBadConfig = errors.New("fairhealth: bad config")
	// ErrUnknownPatient reports an unregistered patient ID.
	ErrUnknownPatient = errors.New("fairhealth: unknown patient")
	// ErrEmptyGroup reports an empty or invalid group.
	ErrEmptyGroup = errors.New("fairhealth: empty group")
	// ErrTooManyCombinations reports a brute-force query whose subset
	// count exceeds its limit (GroupQuery.BruteMaxCombos).
	ErrTooManyCombinations = core.ErrTooManyCombinations
)

// Config tunes a System. The zero value is usable: δ=0.5, MinOverlap=2,
// K=10, the user-cf scorer, average aggregation.
type Config struct {
	// Delta is the peer threshold δ of Def. 1, applied to similarities
	// normalized into [0,1].
	Delta float64
	// MinOverlap is the minimum co-rated items for ratings similarity.
	MinOverlap int
	// K sizes each member's personal top-k list A_u (fairness Def. 3).
	K int
	// Aggregation selects the Def. 2 semantics: "avg" (majority,
	// default), "min" (veto), or the extensions "max", "median" and
	// "consensus" (Amer-Yahia et al. [1], relevance + agreement).
	Aggregation string
	// Scorer selects the default relevance backend for queries that
	// leave GroupQuery.Scorer empty: "user-cf" (the paper's §III.A
	// model, the default), "item-cf" (item-based CF over
	// internal/itemcf), "profile", "semantic" or "hybrid" (peers by
	// profile cosine, ontology similarity, or their blend with
	// Pearson), or any in-tree scorer registered with internal/scoring
	// (the registry is an internal extension point — registration
	// happens inside this module).
	Scorer string
	// Workers bounds the worker pool of the batch group API
	// (ServeBatch) and of one query's per-member gather. 0 means
	// runtime.GOMAXPROCS at call time.
	Workers int
	// CacheTTL bounds how long memoized similarity pairs (kept by the
	// profile, semantic and hybrid scorers) and peer sets stay live
	// across requests: entries older than the TTL answer as misses and are
	// reaped (lazily on lookup plus a background janitor), so long-idle
	// entries age out instead of living forever.
	// 0 keeps the historical behavior (entries live until evicted by a
	// write); negative is ErrBadConfig. With a TTL set, call Close when
	// discarding the System so the janitor goroutines stop.
	CacheTTL time.Duration
	// CacheMaxEntries caps each cache layer (each similarity memo table
	// and each peer-set cache, independently); inserts beyond the cap
	// evict least-recently-used entries. 0 means unbounded; negative is
	// ErrBadConfig.
	CacheMaxEntries int
	// CacheMaxCost caps each cache layer by summed entry cost instead
	// of entry count: a memoized similarity pair costs 1, a peer set
	// len(peers)+1, a group-input memo entry its total candidate
	// scores — so one budget number bounds resident scored values even
	// when entry sizes vary wildly. Inserts beyond the budget evict
	// least-recently-used entries (an entry larger than the whole
	// budget is still admitted, alone). 0 means unbounded; negative is
	// ErrBadConfig. Composes with CacheMaxEntries — whichever bound
	// trips first evicts.
	CacheMaxCost int64
	// CandidateIndex enables the cluster peer-candidate index
	// (internal/candidates), with ⌈√n⌉ clusters: queries may opt into
	// approx mode (GroupQuery.Approx), restricting peer discovery to
	// the query user's cluster neighborhood. Exact queries never
	// consult it. The index is maintained incrementally from rating
	// writes and rebuilt in the background past a write-count or drift
	// threshold. Off by default.
	CandidateIndex bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	if c.Delta < 0 || c.Delta > 1 {
		return c, fmt.Errorf("%w: delta %v outside [0,1]", ErrBadConfig, c.Delta)
	}
	if c.MinOverlap <= 0 {
		c.MinOverlap = 2
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Aggregation == "" {
		c.Aggregation = "avg"
	}
	if _, err := group.ParseAggregator(c.Aggregation); err != nil {
		return c, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Scorer == "" {
		c.Scorer = scoring.DefaultName
	}
	if !scoring.Registered(c.Scorer) {
		return c, fmt.Errorf("%w: unknown scorer %q (registered: %s)",
			ErrBadConfig, c.Scorer, strings.Join(scoring.Names(), "|"))
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("%w: workers %d must be ≥ 0", ErrBadConfig, c.Workers)
	}
	if c.CacheTTL < 0 {
		return c, fmt.Errorf("%w: cache ttl %v must be ≥ 0 (0 disables expiry)", ErrBadConfig, c.CacheTTL)
	}
	if c.CacheMaxEntries < 0 {
		return c, fmt.Errorf("%w: cache max entries %d must be ≥ 0 (0 means unbounded)", ErrBadConfig, c.CacheMaxEntries)
	}
	if c.CacheMaxCost < 0 {
		return c, fmt.Errorf("%w: cache max cost %d must be ≥ 0 (0 means unbounded)", ErrBadConfig, c.CacheMaxCost)
	}
	return c, nil
}

// Patient is a public mirror of a personal health record profile.
type Patient struct {
	ID          string
	Age         int
	Gender      string
	Problems    []string // ontology concept codes (see snomed)
	Medications []string
	Procedures  []string
	Allergies   []string
	Notes       string
}

// Recommendation is one scored item.
type Recommendation struct {
	Item  string
	Score float64
}

// Peer is a similar user with its similarity score.
type Peer struct {
	User       string
	Similarity float64
}

// GroupResult is the outcome of a fairness-aware group recommendation.
type GroupResult struct {
	// Items are the selected recommendations with their GROUP scores
	// (Def. 2 under the configured aggregation), in selection order.
	Items []Recommendation
	// Fairness is |G_D|/|G| (Def. 3).
	Fairness float64
	// Value is fairness × Σ group scores — the paper's objective.
	Value float64
	// PerMember exposes each member's personal top-k list A_u.
	PerMember map[string][]Recommendation
	// Combinations is the number of candidate subsets scored (brute
	// force only).
	Combinations int64
}

// SearchResult is one document search hit (Fig. 1's search engine).
type SearchResult struct {
	Item  string
	Title string
	Score float64
}

// Stats summarizes system contents.
type Stats struct {
	Users     int
	Items     int
	Ratings   int
	Patients  int
	Documents int
	Sparsity  float64
}

// System is the recommender facade. Create it with New; it is safe for
// concurrent use.
type System struct {
	cfg Config

	ratings  *ratings.Store
	profiles *phr.Store
	ont      *ontology.Ontology
	index    *search.Index
	walLog   *wal.Log // nil for in-memory systems
	walPath  string

	// peerCache memoizes P_u across requests. A rating write evicts the
	// writer's own set and has every other set re-check the writer on
	// its next read (invalidateUsers); profile writes flush it
	// (invalidateAll). cf.PeerCache is generation- and sequence-
	// checked, so an in-flight computation cannot resurrect a stale
	// set.
	peerCache *cf.PeerCache

	// providers holds the lazily built relevance backends, one per
	// scorer name used so far (the item-cf neighbor model, for
	// example, is never built unless a query asks for it).
	provMu    sync.Mutex
	providers map[string]scoring.Provider

	// candIdx is the cluster peer-candidate index over mean-centered
	// rating vectors (nil unless Config.CandidateIndex). Approx-mode
	// recommenders scan its cluster neighborhoods. Rating writes flow
	// to it through invalidateUsers.
	candIdx *candidates.Index

	// groupCache memoizes assembled group-relevance inputs per
	// (scorer, members, aggregation, K) over the shared cache engine.
	// Every entry is scoped under the single ratings scope: a member's
	// relevance is a function of potentially every user's ratings (any
	// rater can be or become a peer), so a rating write to anyone
	// evicts the whole layer — but the eviction is sequence-fenced, so
	// an assembly in flight across a write is refused at store time
	// and a warm hit is always bit-identical to a cold rebuild.
	// Profile writes flush it via invalidateAll.
	groupCache *cache.Cache[string, string, groupInput]

	// pipe serves the System's group queries over localMembers, with
	// groupCache as its memo.
	pipe *Pipeline
}

// groupScopeRatings is the one eviction scope every group-input memo
// entry carries (see System.groupCache).
const groupScopeRatings = "ratings"

// groupInput is a memoized assembled group problem: the inputs both
// in-memory fair solvers consume, keyed by (scorer, members,
// aggregation, K). All maps are read-only after assembly — solvers and
// result shaping never mutate them — so entries are shared across
// concurrent queries without copying.
type groupInput struct {
	group    model.Group
	perUser  map[model.UserID]map[model.ItemID]float64
	groupRel map[model.ItemID]float64
	lists    core.UserLists
}

// New builds a System with the curated mini-SNOMED ontology.
func New(cfg Config) (*System, error) {
	return NewWithOntology(cfg, snomed.Load())
}

// NewWithOntology builds a System over a caller-provided ontology
// (e.g. a generated one for scale experiments).
func NewWithOntology(cfg Config, ont *ontology.Ontology) (*System, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sys := &System{
		cfg:      c,
		ratings:  ratings.New(),
		profiles: phr.NewStore(ont),
		ont:      ont,
		index:    search.NewIndex(nil),
		peerCache: cf.NewPeerCacheWith(cf.PeerCacheOptions{
			TTL:        c.CacheTTL,
			MaxEntries: c.CacheMaxEntries,
			MaxCost:    c.CacheMaxCost,
		}),
		providers: make(map[string]scoring.Provider),
	}
	sys.pipe = NewPipeline(c, localMembers{sys}, 0)
	sys.pipe.EnableMemo()
	sys.groupCache = sys.pipe.memo
	if c.CandidateIndex {
		sys.candIdx = candidates.NewRatings(sys.ratings, candidates.Config{Seed: 1})
	}
	// Every rating write — direct, CSV bulk load, or WAL replay —
	// reports its touched user here, and the scoped invalidation routes
	// it down the cache layers.
	sys.ratings.OnWrite(func(u model.UserID) { sys.invalidateUsers(u) })
	return sys, nil
}

// groupInputCost prices a memoized group problem for the cost bound:
// its resident scored values — every per-member candidate score plus
// the aggregated group scores — so a 10-member group with wide
// candidate sets weighs what it holds, not 1.
func groupInputCost(_ string, in groupInput) int64 {
	n := int64(len(in.groupRel)) + 1
	for _, scores := range in.perUser {
		n += int64(len(scores))
	}
	return n
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// NewPersistent builds a System whose ratings and profiles survive
// restarts: state is replayed from dir/events.wal on start and every
// successful write is appended to it (write-ahead, flushed before the
// in-memory apply). Call Close when done and CompactLog occasionally
// to fold the log down to current state.
func NewPersistent(cfg Config, dir string) (*System, error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fairhealth: create state dir: %w", err)
	}
	path := filepath.Join(dir, "events.wal")
	if _, statErr := os.Stat(path); statErr == nil {
		if _, err := wal.ReplayFile(path, sys.applyRecord); err != nil {
			return nil, fmt.Errorf("fairhealth: replay %s: %w", path, err)
		}
	}
	log, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	sys.walLog = log
	sys.walPath = path
	sys.invalidateAll()
	return sys, nil
}

// ApplyRecord applies one WAL record to the in-memory state — the
// replication seam partitioned serving uses to keep every replica a
// deterministic function of the shared log. Rating records route their
// touched user down the cache layers through the store's write
// observer; patient records flush globally, exactly like AddPatient.
// The record is applied verbatim (no WAL append): the caller owns the
// log.
func (s *System) ApplyRecord(rec wal.Record) error {
	if err := s.applyRecord(rec); err != nil {
		return err
	}
	if rec.Op == wal.OpPatient {
		// Profile text and problem codes feed every pairwise measure —
		// the same global blast radius as AddPatient.
		s.invalidateAll()
	}
	return nil
}

func (s *System) applyRecord(rec wal.Record) error {
	switch rec.Op {
	case wal.OpRate:
		return s.ratings.Add(rec.User, rec.Item, rec.Value)
	case wal.OpUnrate:
		if err := s.ratings.Remove(rec.User, rec.Item); err != nil && !errors.Is(err, ratings.ErrNotFound) {
			return err
		}
		return nil
	case wal.OpPatient:
		if rec.Patient == nil {
			return errors.New("fairhealth: patient record without payload")
		}
		if s.profiles.Has(rec.Patient.ID) {
			return s.profiles.Update(rec.Patient)
		}
		return s.profiles.Put(rec.Patient)
	default:
		return fmt.Errorf("fairhealth: unknown wal op %q", rec.Op)
	}
}

// Close stops the background loops and cache janitor goroutines and
// releases the persistence log (the latter a no-op for in-memory
// systems). The caches themselves remain usable — only their
// background work stops. Required for TTL'd systems; harmless
// otherwise, and safe to call more than once.
//
// Teardown order matters: the candidate index waits out any
// background rebuild (which mutates caches) before the cache layers
// and providers are closed. Partitioned serving closes N systems
// concurrently, which is exactly the schedule that surfaced the old
// ordering.
func (s *System) Close() error {
	if s.candIdx != nil {
		s.candIdx.Close()
	}
	s.peerCache.Close()
	s.pipe.Close()
	s.provMu.Lock()
	for _, p := range s.providers {
		p.Close()
	}
	s.provMu.Unlock()
	if s.walLog == nil {
		return nil
	}
	return s.walLog.Close()
}

// CompactLog rewrites the event log to current state, dropping
// superseded records, and reopens it for appends.
func (s *System) CompactLog() (records int, err error) {
	if s.walLog == nil {
		return 0, errors.New("fairhealth: system is not persistent")
	}
	if err := s.walLog.Close(); err != nil {
		return 0, err
	}
	n, err := wal.Compact(s.walPath, s.ratings, s.profiles)
	if err != nil {
		return 0, err
	}
	log, err := wal.Open(s.walPath)
	if err != nil {
		return n, err
	}
	s.walLog = log
	return n, nil
}

// ---------------------------------------------------------------------------
// ingest

// AddRating records that user rated item with value stars (1–5). On
// persistent systems the event is logged (and flushed) before the
// in-memory apply.
func (s *System) AddRating(user, item string, value float64) error {
	u, i, v := model.UserID(user), model.ItemID(item), model.Rating(value)
	if u == "" || i == "" {
		return ratings.ErrEmptyID
	}
	if err := v.Validate(); err != nil {
		return err
	}
	if s.walLog != nil {
		if _, err := s.walLog.AppendRating(u, i, v); err != nil {
			return err
		}
	}
	// The store's write observer routes the touched user down the cache
	// layers — no global invalidation.
	return s.ratings.Add(u, i, v)
}

// HasRating reports whether user has rated item.
func (s *System) HasRating(user, item string) bool {
	return s.ratings.HasRated(model.UserID(user), model.ItemID(item))
}

// RemoveRating deletes a rating.
func (s *System) RemoveRating(user, item string) error {
	u, i := model.UserID(user), model.ItemID(item)
	if !s.ratings.HasRated(u, i) {
		return fmt.Errorf("%w: %s/%s", ratings.ErrNotFound, user, item)
	}
	if s.walLog != nil {
		if _, err := s.walLog.AppendUnrate(u, i); err != nil {
			return err
		}
	}
	return s.ratings.Remove(u, i)
}

// LoadRatingsCSV bulk-loads "user,item,rating" rows (logged on
// persistent systems).
func (s *System) LoadRatingsCSV(r io.Reader) (int, error) {
	st, err := ratings.ReadCSV(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range st.Triples() {
		if err := s.AddRating(string(t.User), string(t.Item), float64(t.Value)); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Load adds ratings, then patients, in order, one write at a time —
// the bulk seed surface a partition router answers with one batched
// commit. It stops at the first refused record.
func (s *System) Load(rs []model.Triple, patients []Patient) error {
	for _, t := range rs {
		if err := s.AddRating(string(t.User), string(t.Item), float64(t.Value)); err != nil {
			return err
		}
	}
	for _, p := range patients {
		if err := s.AddPatient(p); err != nil {
			return err
		}
	}
	return nil
}

// AddPatient registers (or replaces) a patient profile.
func (s *System) AddPatient(p Patient) error {
	prof := toProfile(p)
	if err := prof.Validate(s.ont); err != nil {
		return err
	}
	if s.walLog != nil {
		if _, err := s.walLog.AppendPatient(prof); err != nil {
			return err
		}
	}
	if s.profiles.Has(prof.ID) {
		if err := s.profiles.Update(prof); err != nil {
			return err
		}
	} else if err := s.profiles.Put(prof); err != nil {
		return err
	}
	// Profile text and problem codes feed the profile-cosine and
	// semantic measures for every pair, so the blast radius is global.
	s.invalidateAll()
	return nil
}

// PatientProfile converts and validates a Patient into its stored
// profile form without registering it — the write-path seam a
// partition coordinator uses to validate a profile once, append it to
// the shared WAL, and then replicate the record to every partition.
func (s *System) PatientProfile(p Patient) (*phr.Profile, error) {
	prof := toProfile(p)
	if err := prof.Validate(s.ont); err != nil {
		return nil, err
	}
	return prof, nil
}

// Patient returns the stored profile for id.
func (s *System) Patient(id string) (Patient, error) {
	prof, err := s.profiles.Get(model.UserID(id))
	if err != nil {
		return Patient{}, fmt.Errorf("%w: %s", ErrUnknownPatient, id)
	}
	return fromProfile(prof), nil
}

// Patients lists all registered patient IDs.
func (s *System) Patients() []string {
	ids := s.profiles.IDs()
	out := make([]string, len(ids))
	for k, id := range ids {
		out[k] = string(id)
	}
	return out
}

// CacheCounters is one cache layer's effectiveness snapshot.
type CacheCounters struct {
	// Hits and Misses count lookups answered from / past the cache
	// since the System was built (full invalidations do not reset
	// them).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries removed before natural expiry: scoped
	// per-user eviction after writes, LRU capacity eviction
	// (Config.CacheMaxEntries), and full invalidations.
	Evictions uint64 `json:"evictions"`
	// Expirations counts entries aged out by the TTL
	// (Config.CacheTTL).
	Expirations uint64 `json:"expirations"`
	// Entries is the number of entries currently cached.
	Entries int `json:"entries"`
	// Cost is the summed cost of the cached entries (similarity pairs
	// cost 1, peer sets len(peers)+1, group inputs their total
	// candidate scores) — the quantity Config.CacheMaxCost bounds.
	Cost int64 `json:"cost"`
	// TTLSeconds is the layer's lease, Config.CacheTTL; 0 means no
	// expiry.
	TTLSeconds float64 `json:"ttl_seconds"`
	// Ages buckets the stored entries by age (expired-but-unreaped
	// entries included at their true age, so the buckets total Entries
	// up to the skew of concurrent writes — the histogram and the
	// counters are separate snapshots) — the feed for tuning
	// Config.CacheTTL from production traffic (a mass in the overflow
	// bucket under a generous TTL means the lease could shrink without
	// costing hits).
	Ages CacheAgeHistogram `json:"age_histogram"`
}

// ageBounds are the bucket upper bounds of every reported entry-age
// histogram.
var ageBounds = []time.Duration{10 * time.Second, time.Minute, 10 * time.Minute, time.Hour}

// CacheAgeHistogram buckets a cache layer's live entries by age.
type CacheAgeHistogram struct {
	// BoundsSeconds are the ascending bucket upper bounds, in seconds.
	BoundsSeconds []float64 `json:"bounds_seconds"`
	// Counts has len(BoundsSeconds)+1 elements: Counts[i] is the
	// number of entries no older than BoundsSeconds[i] (and older than
	// the previous bound); the final element counts entries older than
	// every bound.
	Counts []int `json:"counts"`
}

// ageHistogram shapes raw bucket counts into the public histogram.
func ageHistogram(counts []int) CacheAgeHistogram {
	bounds := make([]float64, len(ageBounds))
	for i, b := range ageBounds {
		bounds[i] = b.Seconds()
	}
	if counts == nil {
		counts = make([]int, len(ageBounds)+1)
	}
	return CacheAgeHistogram{BoundsSeconds: bounds, Counts: counts}
}

// CacheStats reports the hit/miss/size counters of the memoization
// layers — the observability feed for cache tuning (e.g. watching a
// TTL'd warm cache age entries out). All counters are collected from
// atomic, race-safe sources; Stats and CacheStats are cheap enough to
// poll.
type CacheStats struct {
	// Similarity sums the pairwise similarity memo tables of the
	// profile, semantic and hybrid scorers built so far. It reads zero
	// under user-cf-only traffic: user-cf computes Pearson rows and
	// keeps no memo.
	Similarity CacheCounters `json:"similarity"`
	// Peers sums the per-user peer-set (P_u) caches: user-cf's and
	// each built memoized scorer's.
	Peers CacheCounters `json:"peers"`
	// Groups is the assembled group-relevance input memo, keyed by
	// (scorer, members, aggregation, K).
	Groups CacheCounters `json:"groups"`
}

// CacheStats returns the current cache effectiveness counters.
func (s *System) CacheStats() CacheStats {
	// Collect the memoized scorers under provMu but walk them after
	// release: the age scans are O(entries) over pairwise tables, and
	// holding the registry lock across them would let a stats scrape
	// stall writes and serves.
	s.provMu.Lock()
	var memos []scoring.Memo
	for _, p := range s.providers {
		if m, ok := p.(scoring.Memo); ok {
			memos = append(memos, m)
		}
	}
	s.provMu.Unlock()
	sim, peers := s.emptyCounters(), s.emptyCounters()
	peers.add(scoring.LayerStats{Stats: cache.Stats(s.peerCache.Stats()), Ages: s.peerCache.AgeHistogram(ageBounds)})
	for _, m := range memos {
		ms, mp := m.MemoStats(ageBounds)
		sim.add(ms)
		peers.add(mp)
	}
	return CacheStats{Similarity: sim, Peers: peers, Groups: s.pipe.MemoStats()}
}

// emptyCounters is a layer with no traffic under the configured lease.
func (s *System) emptyCounters() CacheCounters {
	return CacheCounters{TTLSeconds: s.cfg.CacheTTL.Seconds(), Ages: ageHistogram(nil)}
}

// add sums one memo layer into c, bucket by bucket for the ages.
func (c *CacheCounters) add(l scoring.LayerStats) {
	c.Hits += l.Hits
	c.Misses += l.Misses
	c.Evictions += l.Evictions
	c.Expirations += l.Expirations
	c.Entries += l.Entries
	c.Cost += l.Cost
	for i, n := range l.Ages {
		c.Ages.Counts[i] += n
	}
}

// CandidateIndexStats snapshots the cluster peer-candidate index
// counters (the /v1/stats "index" section); ok is false when
// Config.CandidateIndex is off. The clustering builds lazily on the
// first approx query, so Built is false under exact-only traffic.
func (s *System) CandidateIndexStats() (candidates.Stats, bool) {
	if s.candIdx == nil {
		return candidates.Stats{}, false
	}
	return s.candIdx.Stats(), true
}

// Stats reports system contents.
func (s *System) Stats() Stats {
	return Stats{
		Users:     s.ratings.NumUsers(),
		Items:     s.ratings.NumItems(),
		Ratings:   s.ratings.Len(),
		Patients:  s.profiles.Len(),
		Documents: s.index.Len(),
		Sparsity:  s.ratings.Sparsity(),
	}
}

// AddDocument indexes a recommendable document in the Fig. 1 search
// engine. The document ID doubles as the rating item ID, so "search,
// read, rate" round-trips work against the same identifier.
func (s *System) AddDocument(id, title, body string) error {
	return s.index.Add(model.ItemID(id), title, body)
}

// SearchDocuments ranks indexed documents against a free-text query
// (TF-IDF, see internal/search) and returns the top k.
func (s *System) SearchDocuments(query string, k int) []SearchResult {
	hits := s.index.Search(query, k)
	out := make([]SearchResult, len(hits))
	for i, h := range hits {
		out[i] = SearchResult{Item: string(h.Doc), Title: h.Title, Score: h.Score}
	}
	return out
}

// DocumentTitle resolves an indexed document's title.
func (s *System) DocumentTitle(id string) (string, bool) {
	return s.index.Title(model.ItemID(id))
}

// SearchPersonalized ranks documents for a free-text query boosted by
// the patient's (ontology-expanded) problem vocabulary — the
// semantically enhanced retrieval of the paper's §VIII future work.
// boost ≤ 0 degrades to plain SearchDocuments.
func (s *System) SearchPersonalized(user, query string, k int, boost float64) ([]SearchResult, error) {
	eng := reasoning.New(s.ont, s.profiles)
	hits, err := eng.PersonalizedSearch(s.index, model.UserID(user), query, k, boost)
	if err != nil {
		if errors.Is(err, reasoning.ErrNoProfile) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownPatient, user)
		}
		return nil, err
	}
	out := make([]SearchResult, len(hits))
	for i, h := range hits {
		out[i] = SearchResult{Item: string(h.Doc), Title: h.Title, Score: h.Score}
	}
	return out, nil
}

// Correspondence is a public mirror of a reasoning explanation: why two
// patients' profiles relate.
type Correspondence struct {
	ProblemA, ProblemB string
	CommonAncestor     string
	Distance           int
	Explanation        string
}

// ProfileCorrespondences explains every problem-pair link between two
// patients, strongest first (the §VIII "reasoning engine to identify
// correspondences in patient profiles").
func (s *System) ProfileCorrespondences(a, b string) ([]Correspondence, error) {
	eng := reasoning.New(s.ont, s.profiles)
	cs, err := eng.Correspondences(model.UserID(a), model.UserID(b))
	if err != nil {
		if errors.Is(err, reasoning.ErrNoProfile) {
			return nil, fmt.Errorf("%w: %v", ErrUnknownPatient, err)
		}
		return nil, err
	}
	out := make([]Correspondence, len(cs))
	for i, c := range cs {
		out[i] = Correspondence{
			ProblemA:       string(c.ProblemA),
			ProblemB:       string(c.ProblemB),
			CommonAncestor: string(c.CommonAncestor),
			Distance:       c.Distance,
			Explanation:    c.Explanation,
		}
	}
	return out, nil
}

func toProfile(p Patient) *phr.Profile {
	problems := make([]ontology.ConceptID, len(p.Problems))
	for k, c := range p.Problems {
		problems[k] = ontology.ConceptID(c)
	}
	return &phr.Profile{
		ID:          model.UserID(p.ID),
		Age:         p.Age,
		Gender:      phr.Gender(p.Gender),
		Problems:    problems,
		Medications: append([]string(nil), p.Medications...),
		Procedures:  append([]string(nil), p.Procedures...),
		Allergies:   append([]string(nil), p.Allergies...),
		Notes:       p.Notes,
	}
}

func fromProfile(prof *phr.Profile) Patient {
	problems := make([]string, len(prof.Problems))
	for k, c := range prof.Problems {
		problems[k] = string(c)
	}
	return Patient{
		ID:          string(prof.ID),
		Age:         prof.Age,
		Gender:      string(prof.Gender),
		Problems:    problems,
		Medications: append([]string(nil), prof.Medications...),
		Procedures:  append([]string(nil), prof.Procedures...),
		Allergies:   append([]string(nil), prof.Allergies...),
		Notes:       prof.Notes,
	}
}

// ---------------------------------------------------------------------------
// similarity wiring

// invalidateUsers routes a rating write down the cache layers with
// user scope: user-cf's peer cache drops the touched users' own sets
// and records them as touched, so every other set patches itself for
// them on its next read. Everything not reachable from the touched
// users stays warm: Pearson(v,w) is a function of v's and w's ratings
// only, so no other pair can have changed. There is no Pearson memo: a
// row is computed from the ratings snapshot, which the store itself
// re-dirties on a write.
//
// The write then fans out to every built scoring provider (item-cf
// records the users for its next patch; the memoized scorers evict
// hybrid's memo rows, then touch the users in their own peer caches;
// user-cf needs nothing) and, LAST, evicts the group-input memo — its
// scope eviction bumps the memo's fence sequence, so an assembly that
// read any pre-write state upstream is refused at store time.
func (s *System) invalidateUsers(users ...model.UserID) {
	s.peerCache.EvictUsers(users)
	s.provMu.Lock()
	for _, p := range s.providers {
		p.InvalidateUsers(users)
	}
	s.provMu.Unlock()
	s.pipe.DropMemo()
	if s.candIdx != nil {
		// After the cache layers: exact answers never read the index,
		// so the only requirement is that the write is counted toward
		// the reassignment/rebuild triggers.
		s.candIdx.OnWrite(users...)
	}
}

// invalidateAll flushes every cache layer — the route for profile
// writes (profile text and problem codes feed pairwise measures whose
// blast radius is the whole matrix) and for the explicit
// InvalidateCaches.
func (s *System) invalidateAll() {
	s.peerCache.Invalidate()
	s.provMu.Lock()
	for _, p := range s.providers {
		p.InvalidateAll()
	}
	s.provMu.Unlock()
	// Flushed last, so anything assembled from pre-flush upstream
	// state is generation-fenced out of the memo.
	s.groupCache.Invalidate()
	if s.candIdx != nil {
		s.candIdx.InvalidateAll()
	}
}

// InvalidateCaches drops all memoized state (similarity memos, profile
// corpora, peer sets, group inputs), forcing the next query to rebuild from
// the stores. Normal writes invalidate with user scope automatically;
// this is the big hammer for tests, benchmarks of cold-path cost, or
// out-of-band store surgery.
func (s *System) InvalidateCaches() { s.invalidateAll() }

// pearson is user-cf's ratings similarity: Eq. 2 mapped into [0,1].
func (s *System) pearson() simfn.Normalized {
	return simfn.Normalized{S: simfn.Pearson{Store: s.ratings, MinOverlap: s.cfg.MinOverlap}}
}

func (s *System) recommender() (*cf.Recommender, error) {
	// The peer-cache fence: a full flush bumps the generation and
	// drops any peer set computed before it; a scoped eviction bumps
	// the sequence instead, and peer sets stored under the older
	// sequence are patched on their next read for exactly the users
	// evicted since.
	gen, seq := s.peerCache.Fence()
	return &cf.Recommender{
		Store:           s.ratings,
		Sim:             s.pearson(),
		Delta:           s.cfg.Delta,
		RequirePositive: true,
		Cache:           s.peerCache,
		CacheGen:        gen,
		CacheSeq:        seq,
	}, nil
}

// recommenderApprox is the approx-mode factory: the peer scan ranges
// over the query user's cluster neighborhood in the candidate index
// instead of the exact candidate universe. No peer cache — an approx
// peer set must never be served to a later exact query — and hence no
// fence. Only reachable when Config.CandidateIndex is set (query
// normalization rejects Approx otherwise).
func (s *System) recommenderApprox() (*cf.Recommender, error) {
	return &cf.Recommender{
		Store:           s.ratings,
		Sim:             s.pearson(),
		Delta:           s.cfg.Delta,
		RequirePositive: true,
		Candidates:      s.candIdx.Approx,
	}, nil
}

// workers resolves the effective pool size for parallel paths.
func (s *System) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PrecomputeSimilarity is kept for the benchmark walk, which times it.
// user-cf computes Pearson rows on demand and keeps no pair memo, so
// there is nothing to precompute: it returns (0, ctx.Err()).
func (s *System) PrecomputeSimilarity(ctx context.Context) (pairs int, err error) {
	return 0, ctx.Err()
}

func (s *System) aggregator() group.Aggregator {
	a, err := group.ParseAggregator(s.cfg.Aggregation)
	if err != nil {
		return group.Average{} // unreachable: Config validated at New
	}
	return a
}

// ---------------------------------------------------------------------------
// queries

// SimilarityBetween evaluates user-cf's normalized Pearson for two
// users; ok=false means undefined.
func (s *System) SimilarityBetween(a, b string) (sim float64, ok bool, err error) {
	sim, ok = s.pearson().Similarity(model.UserID(a), model.UserID(b))
	return sim, ok, nil
}

// knownUser reports whether the system has ever seen the user: at
// least one rating or a registered profile.
func (s *System) knownUser(u model.UserID) bool {
	return s.ratings.NumRatedBy(u) > 0 || s.profiles.Has(u)
}

// KnownUser reports whether the system has ever seen the user (at
// least one rating or a registered profile) — the membership check a
// partition coordinator runs on each member's owning partition before
// fanning a group query out.
func (s *System) KnownUser(user string) bool {
	return s.knownUser(model.UserID(user))
}

// MemberRelevances computes one member's candidate relevance scores
// under the named scorer ("" uses the configured default) — exactly
// the per-member unit of work the System's MemberSource gathers,
// exposed so a partition router can have each member scored on the
// partition that owns (and caches for) that user. approx follows
// scoring.RelevancesFunc: providers without an approx path answer
// through their exact one. Scores are bit-identical to the ones an
// unpartitioned Serve would gather.
func (s *System) MemberRelevances(scorer, user string, approx bool) (map[model.ItemID]float64, error) {
	if scorer == "" {
		scorer = s.cfg.Scorer
	}
	rel, err := s.memberRel(scorer, approx)
	if err != nil {
		return nil, err
	}
	return rel(model.UserID(user))
}

// memberRel resolves the named scorer's per-member relevance function
// (scoring.RelevancesFunc).
func (s *System) memberRel(scorer string, approx bool) (func(model.UserID) (map[model.ItemID]float64, error), error) {
	prov, err := s.scorerProvider(scorer)
	if err != nil {
		return nil, err
	}
	return scoring.RelevancesFunc(prov, approx), nil
}

// Peers returns the user's peer set P_u (Def. 1), best-first. A user
// the system has never seen (no ratings, no profile) is reported as
// ErrUnknownPatient rather than as an empty peer set.
func (s *System) Peers(user string) ([]Peer, error) {
	if !s.knownUser(model.UserID(user)) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPatient, user)
	}
	rec, err := s.recommender()
	if err != nil {
		return nil, err
	}
	peers, err := rec.Peers(model.UserID(user))
	if err != nil {
		return nil, err
	}
	out := make([]Peer, len(peers))
	for k, p := range peers {
		out[k] = Peer{User: string(p.User), Similarity: p.Sim}
	}
	return out, nil
}

// Recommend returns the user's personal top-k list A_u (§III.A). A
// user the system has never seen is reported as ErrUnknownPatient.
func (s *System) Recommend(user string, k int) ([]Recommendation, error) {
	if !s.knownUser(model.UserID(user)) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPatient, user)
	}
	rec, err := s.recommender()
	if err != nil {
		return nil, err
	}
	items, err := rec.Recommend(model.UserID(user), k)
	if err != nil {
		return nil, err
	}
	return toRecs(items), nil
}

func toRecs(items []model.ScoredItem) []Recommendation {
	out := make([]Recommendation, len(items))
	for k, it := range items {
		out[k] = Recommendation{Item: string(it.Item), Score: it.Score}
	}
	return out
}

// scorerProvider returns the relevance backend registered under name,
// building it on first use. Callers validate the name up front (query
// or config validation), so an unknown name here is a programming
// error surfaced as ErrBadQuery.
func (s *System) scorerProvider(name string) (scoring.Provider, error) {
	s.provMu.Lock()
	defer s.provMu.Unlock()
	if p, ok := s.providers[name]; ok {
		return p, nil
	}
	deps := scoring.Deps{
		Ratings:         s.ratings,
		Profiles:        s.profiles,
		Ontology:        s.ont,
		UserCF:          s.recommender,
		CandidateIndex:  s.cfg.CandidateIndex,
		Delta:           s.cfg.Delta,
		MinOverlap:      s.cfg.MinOverlap,
		CacheTTL:        s.cfg.CacheTTL,
		CacheMaxEntries: s.cfg.CacheMaxEntries,
		CacheMaxCost:    s.cfg.CacheMaxCost,
	}
	if s.candIdx != nil {
		deps.UserCFApprox = s.recommenderApprox
	}
	p, err := scoring.New(name, deps)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	s.providers[name] = p
	return p, nil
}

// groupKey canonicalizes a group problem into its memo key. Member
// order matters (scores are aggregated in group order), so the key
// preserves it; the aggregator's canonical Name collapses aliases
// ("mean" and "avg" assemble identical inputs). Every field is
// length-prefixed, so the encoding is injective no matter what bytes
// appear in user IDs — a member named "a<sep>b" can never collide
// with the two-member group ["a","b"].
func groupKey(scorer string, g model.Group, aggr string, k int, approx bool) string {
	var b strings.Builder
	field := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	field(scorer)
	field(aggr)
	field(strconv.Itoa(k))
	// Approx inputs and exact inputs must never share a memo entry —
	// an approx assembly served warm to an exact query would break the
	// bit-identity contract.
	field(strconv.FormatBool(approx))
	for _, u := range g {
		field(string(u))
	}
	return b.String()
}

// GroupTopZ returns the plain (fairness-agnostic) top-z group list —
// the §III.B baseline that Algorithm 1 improves on. z follows the
// shared query rule: 0 means DefaultZ, negative is ErrBadQuery.
func (s *System) GroupTopZ(users []string, z int) ([]Recommendation, error) {
	if z < 0 {
		return nil, fmt.Errorf("%w: z must be ≥ 0 (0 means default %d), got %d", ErrBadQuery, DefaultZ, z)
	}
	if z == 0 {
		z = DefaultZ
	}
	g, err := memberGroup(users)
	if err != nil {
		return nil, err
	}
	in, err := s.pipe.problem(context.Background(), s.cfg.Scorer, g, s.aggregator(), s.cfg.K, s.workers(), false)
	if err != nil {
		return nil, err
	}
	return toRecs(core.SortedItems(in.groupRel)[:min(z, len(in.groupRel))]), nil
}

// ---------------------------------------------------------------------------
// introspection helpers for examples and tools

// RatingTriples exposes a snapshot of all rating triples (user, item,
// value) in deterministic order.
func (s *System) RatingTriples() []struct {
	User, Item string
	Value      float64
} {
	ts := s.ratings.Triples()
	out := make([]struct {
		User, Item string
		Value      float64
	}, len(ts))
	for k, t := range ts {
		out[k].User, out[k].Item, out[k].Value = string(t.User), string(t.Item), float64(t.Value)
	}
	return out
}

// ConceptName resolves an ontology code to its display name.
func (s *System) ConceptName(code string) (string, bool) {
	c, ok := s.ont.Concept(ontology.ConceptID(code))
	if !ok {
		return "", false
	}
	return c.Name, true
}

// ProblemDistance returns the ontology path length between two problem
// codes (§V.C).
func (s *System) ProblemDistance(a, b string) (int, error) {
	return s.ont.PathLength(ontology.ConceptID(a), ontology.ConceptID(b))
}

// SortedUsers lists every user with at least one rating.
func (s *System) SortedUsers() []string {
	us := s.ratings.Users()
	out := make([]string, len(us))
	for k, u := range us {
		out[k] = string(u)
	}
	sort.Strings(out)
	return out
}
