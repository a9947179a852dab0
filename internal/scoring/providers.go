package scoring

import (
	"sync"
	"time"

	"fairhealth/internal/cache"
	"fairhealth/internal/candidates"
	"fairhealth/internal/cf"
	"fairhealth/internal/clustering"
	"fairhealth/internal/itemcf"
	"fairhealth/internal/model"
	"fairhealth/internal/simfn"
)

// ---------------------------------------------------------------------------
// user-cf — the default: the paper's §III.A model, riding the owner's
// Pearson rows and peer cache through the fenced recommender factory.
// Invalidation is a no-op here because the owner already routes writes
// down that shared cache; duplicating the eviction would double-count.

type userCF struct {
	deps Deps
}

func (p *userCF) Name() string { return NameUserCF }

func (p *userCF) Relevances(u model.UserID) (map[model.ItemID]float64, error) {
	rec, err := p.deps.UserCF()
	if err != nil {
		return nil, err
	}
	return rec.AllRelevances(u)
}

func (p *userCF) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	rec, err := p.deps.UserCF()
	if err != nil {
		return 0, false, err
	}
	return rec.Relevance(u, i)
}

// RelevancesApprox implements ApproxRelevancer over the owner's
// approx recommender factory (cluster-restricted peer scan, no shared
// peer cache). Falls back to the exact path when the owner has no
// candidate index.
func (p *userCF) RelevancesApprox(u model.UserID) (map[model.ItemID]float64, error) {
	if p.deps.UserCFApprox == nil {
		return p.Relevances(u)
	}
	rec, err := p.deps.UserCFApprox()
	if err != nil {
		return nil, err
	}
	return rec.AllRelevances(u)
}

func (p *userCF) InvalidateUsers([]model.UserID) {}
func (p *userCF) InvalidateAll()                 {}
func (p *userCF) Close()                         {}

// ---------------------------------------------------------------------------
// item-cf — item-based CF over internal/itemcf. A rating write changes
// the model only through the writer's item set, so writes record dirty
// users and the next query patches the model for exactly them
// (itemcf.Update; a write burst pays once). The patch is fenced by the
// owner's group-input memo, so a serve racing a write can see either
// side but never persists pre-write scores.

type itemCF struct {
	rec *itemcf.Recommender

	// mu guards the record of what the model has not seen yet: the users
	// written since it last read the store, or all — no model yet, or a
	// change of unknown reach.
	mu    sync.Mutex
	dirty map[model.UserID]struct{}
	all   bool

	buildMu sync.Mutex
}

func newItemCF(d Deps) Provider {
	return &itemCF{rec: &itemcf.Recommender{Store: d.Ratings, MinOverlap: d.MinOverlap}, all: true}
}

func (p *itemCF) Name() string { return NameItemCF }

// model returns the recommender, brought up to date when a write
// dirtied it. The dirty record is taken BEFORE the update reads the
// store, so a write landing mid-update re-dirties and the next call
// patches again — the model can lag a racing write but never misses
// one. Every caller passes through buildMu — there is no lock-free
// fast path, because a reader overlapping an update would otherwise
// find nothing dirty (taken when the update STARTED) and serve the old
// model: its assembly would carry a fence sequence captured after the
// write's eviction, so the stale result would be admitted to the group
// memo and served warm until the next write. Outside an update the
// critical section is two lock round trips and a pointer return;
// during one, queueing readers behind it is exactly the freshness the
// fence requires.
func (p *itemCF) model() (*itemcf.Recommender, error) {
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	p.mu.Lock()
	dirty, all := p.dirty, p.all
	p.dirty, p.all = nil, false
	p.mu.Unlock()
	var err error
	switch {
	case all:
		err = p.rec.Build()
	case len(dirty) > 0:
		users := make([]model.UserID, 0, len(dirty))
		for u := range dirty {
			users = append(users, u)
		}
		err = p.rec.Update(users)
	}
	if err != nil {
		p.InvalidateAll()
		return nil, err
	}
	return p.rec, nil
}

func (p *itemCF) Relevances(u model.UserID) (map[model.ItemID]float64, error) {
	rec, err := p.model()
	if err != nil {
		return nil, err
	}
	return rec.AllRelevances(u)
}

func (p *itemCF) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	rec, err := p.model()
	if err != nil {
		return 0, false, err
	}
	return rec.Relevance(u, i)
}

func (p *itemCF) InvalidateUsers(users []model.UserID) {
	p.mu.Lock()
	if !p.all {
		if p.dirty == nil {
			p.dirty = make(map[model.UserID]struct{}, len(users))
		}
		for _, u := range users {
			p.dirty[u] = struct{}{}
		}
	}
	p.mu.Unlock()
}

func (p *itemCF) InvalidateAll() {
	p.mu.Lock()
	p.dirty, p.all = nil, true
	p.mu.Unlock()
}

func (p *itemCF) Close() {}

// ---------------------------------------------------------------------------
// profile, semantic, hybrid — user-user CF with peers selected by a
// memoized §V measure: profile cosine (Def. 4 + Eq. 3), ontology path
// similarity (Eq. 4), or their blend with normalized Pearson. Each
// provider owns its pair memo and peer cache (internal/cache
// instantiations via the simfn/cf adapters); the owner's shared peer
// cache belongs to user-cf's Pearson. A rating write touches the
// writers in the peer cache — the peer-scan candidate universe is the
// set of RATED users, which a first or last rating changes, so every
// other set re-checks a writer on its next read — and, when the
// measure reads ratings (hybrid), first evicts the writers' memo rows.
// Profile writes rebuild the measure and flush the peer sets.

// hybridWeight weights each of the hybrid measure's three components.
const hybridWeight = 1

// profileMeasure is profile cosine over TF-IDF vectors of the rendered
// profiles, frozen at build time.
func profileMeasure(d Deps) (simfn.UserSimilarity, error) {
	return simfn.BuildProfileCosine(d.Profiles, d.Ontology, nil)
}

// semanticMeasure is the ontology path similarity of coded health
// problems, aggregated by harmonic mean.
func semanticMeasure(d Deps) (simfn.UserSimilarity, error) {
	return simfn.Semantic{Ont: d.Ontology, Problems: d.Profiles.Problems}, nil
}

// hybridMeasure blends normalized Pearson, profile cosine and the
// semantic measure with equal weights.
func hybridMeasure(d Deps) (simfn.UserSimilarity, error) {
	pc, err := simfn.BuildProfileCosine(d.Profiles, d.Ontology, nil)
	if err != nil {
		return nil, err
	}
	return simfn.Weighted{Components: []simfn.Component{
		{S: simfn.Normalized{S: simfn.Pearson{Store: d.Ratings, MinOverlap: d.MinOverlap}}, Weight: hybridWeight},
		{S: pc, Weight: hybridWeight},
		{S: simfn.Semantic{Ont: d.Ontology, Problems: d.Profiles.Problems}, Weight: hybridWeight},
	}}, nil
}

// memoCF is user-user CF over one memoized §V measure, which build
// assembles from the current stores.
type memoCF struct {
	name  string
	deps  Deps
	build func(Deps) (simfn.UserSimilarity, error)
	// ratingsFed marks a measure that reads ratings, whose memo rows a
	// rating write must evict.
	ratingsFed bool
	peers      *cf.PeerCache
	// idx clusters the profiled users over their frozen TF-IDF term
	// vectors for approx-mode peer search; only the profile provider
	// has one, and only with the candidate index enabled. Rating writes
	// don't touch it (term vectors are a function of profiles only); a
	// rebuild invalidates it wholesale.
	idx *candidates.Index

	mu      sync.Mutex
	sim     *simfn.Cached
	measure simfn.UserSimilarity
	dirty   bool
	// base accumulates the counters of memos discarded by rebuilds, so
	// MemoStats reports lifetime totals.
	base cache.Stats
}

func newMemoCF(name string, d Deps, build func(Deps) (simfn.UserSimilarity, error), ratingsFed bool) *memoCF {
	return &memoCF{
		name:       name,
		deps:       d,
		build:      build,
		ratingsFed: ratingsFed,
		peers: cf.NewPeerCacheWith(cf.PeerCacheOptions{
			TTL:        d.CacheTTL,
			MaxEntries: d.CacheMaxEntries,
			MaxCost:    d.CacheMaxCost,
		}),
		dirty: true,
	}
}

func newProfileCF(d Deps) Provider {
	p := newMemoCF(NameProfile, d, profileMeasure, false)
	if d.CandidateIndex {
		p.idx = candidates.New(p.termSnapshot, candidates.Config{Seed: 1})
	}
	return p
}

func (p *memoCF) Name() string { return p.name }

// similarity returns the current memoized measure, rebuilding it when a
// profile write dirtied it. The discarded memo's counters move to base,
// its live entries counted as evictions (as the peer cache counts a
// flush).
func (p *memoCF) similarity() (*simfn.Cached, simfn.UserSimilarity, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		m, err := p.build(p.deps)
		if err != nil {
			return nil, nil, err
		}
		if p.sim != nil {
			st := p.sim.Stats()
			p.base.Hits += st.Hits
			p.base.Misses += st.Misses
			p.base.Evictions += st.Evictions + uint64(st.Entries)
			p.base.Expirations += st.Expirations
			p.sim.Close()
		}
		p.sim = simfn.NewCachedWith(m, simfn.CacheOptions{
			TTL:        p.deps.CacheTTL,
			MaxEntries: p.deps.CacheMaxEntries,
			MaxCost:    p.deps.CacheMaxCost,
		})
		p.measure = m
		p.dirty = false
	}
	return p.sim, p.measure, nil
}

// termSnapshot feeds the profile provider's candidate index: the
// profiled users and their frozen TF-IDF term vectors (terms cast to
// the clustering feature-key type). Called by the index at (re)build
// time.
func (p *memoCF) termSnapshot() ([]model.UserID, clustering.VectorFunc, error) {
	_, m, err := p.similarity()
	if err != nil {
		return nil, nil, err
	}
	pc := m.(*simfn.ProfileCosine)
	vf := func(u model.UserID) map[model.ItemID]float64 {
		tv := pc.TermVector(u)
		if tv == nil {
			return nil
		}
		w := make(map[model.ItemID]float64, len(tv))
		for t, x := range tv {
			w[model.ItemID(t)] = x
		}
		return w
	}
	return pc.IndexedUsers(), vf, nil
}

// recommender snapshots the similarity under a peer-cache fence — the
// same capture order as the owner's user-cf factory: the fence comes
// first, so a rebuild between the two steps can only fence off (never
// admit) peer sets computed from the older snapshot.
func (p *memoCF) recommender() (*cf.Recommender, error) {
	gen, seq := p.peers.Fence()
	sim, _, err := p.similarity()
	if err != nil {
		return nil, err
	}
	return &cf.Recommender{
		Store:           p.deps.Ratings,
		Sim:             sim,
		Delta:           p.deps.Delta,
		RequirePositive: true,
		Cache:           p.peers,
		CacheGen:        gen,
		CacheSeq:        seq,
	}, nil
}

// RelevancesApprox implements ApproxRelevancer: the peer scan ranges
// over the query user's term-vector cluster neighborhood instead of
// every rated user. No shared peer cache — an approx peer set must
// never be served to a later exact query. Cluster members who have
// no ratings contribute nothing to Eq. 1 (they rate no items), so
// they are harmless in the candidate list. Without a term index
// (semantic, hybrid, or the index disabled) it answers exactly.
func (p *memoCF) RelevancesApprox(u model.UserID) (map[model.ItemID]float64, error) {
	if p.idx == nil {
		return p.Relevances(u)
	}
	sim, _, err := p.similarity()
	if err != nil {
		return nil, err
	}
	rec := &cf.Recommender{
		Store:           p.deps.Ratings,
		Sim:             sim,
		Delta:           p.deps.Delta,
		RequirePositive: true,
		Candidates:      p.idx.Approx,
	}
	return rec.AllRelevances(u)
}

func (p *memoCF) Relevances(u model.UserID) (map[model.ItemID]float64, error) {
	rec, err := p.recommender()
	if err != nil {
		return nil, err
	}
	return rec.AllRelevances(u)
}

func (p *memoCF) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	rec, err := p.recommender()
	if err != nil {
		return 0, false, err
	}
	return rec.Relevance(u, i)
}

// InvalidateUsers evicts the writers' memo rows when the measure reads
// ratings, then records the writers in the peer cache. The order
// matters: a peer-cache fence captured after EvictUsers can only
// observe post-eviction memo rows, so a set stored under it is built
// from post-write data. A profile-only memo stays warm, but peer sets
// are not ratings-independent: the candidate universe a peer scan
// ranges over is the rated users, so a user's first-ever rating pulls
// them INTO similar users' peer sets (and removing their last rating
// drops them out). Without the touch, warm peer sets would permanently
// miss the newcomer and warm serves would diverge from a cold rebuild.
func (p *memoCF) InvalidateUsers(users []model.UserID) {
	if p.ratingsFed {
		p.mu.Lock()
		if p.sim != nil {
			p.sim.EvictRows(users)
		}
		p.mu.Unlock()
	}
	p.peers.EvictUsers(users)
}

func (p *memoCF) InvalidateAll() {
	// Mark the measure dirty before bumping the peer generation, so a
	// post-bump recommender always snapshots a fresh similarity
	// (mirrors the owner's invalidateAll ordering).
	p.mu.Lock()
	p.dirty = true
	p.mu.Unlock()
	p.peers.Invalidate()
	if p.idx != nil {
		// Every term vector changed wholesale with the corpus.
		p.idx.InvalidateAll()
	}
}

// MemoStats implements Memo.
func (p *memoCF) MemoStats(bounds []time.Duration) (sim, peers LayerStats) {
	p.mu.Lock()
	sim.Stats = p.base
	c := p.sim
	if c != nil {
		st := c.Stats()
		sim.Hits += st.Hits
		sim.Misses += st.Misses
		sim.Evictions += st.Evictions
		sim.Expirations += st.Expirations
		sim.Entries, sim.Cost = st.Entries, st.Cost
	}
	p.mu.Unlock()
	if c != nil {
		sim.Ages = c.AgeHistogram(bounds)
	}
	return sim, LayerStats{Stats: cache.Stats(p.peers.Stats()), Ages: p.peers.AgeHistogram(bounds)}
}

func (p *memoCF) Close() {
	p.mu.Lock()
	if p.sim != nil {
		p.sim.Close()
	}
	p.mu.Unlock()
	p.peers.Close()
	if p.idx != nil {
		p.idx.Close()
	}
}
