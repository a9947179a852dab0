package scoring

import (
	"sync"

	"fairhealth/internal/candidates"
	"fairhealth/internal/cf"
	"fairhealth/internal/clustering"
	"fairhealth/internal/itemcf"
	"fairhealth/internal/model"
	"fairhealth/internal/simfn"
)

// ---------------------------------------------------------------------------
// user-cf — the default: the paper's §III.A model, riding the owner's
// similarity memo and peer cache through the fenced recommender
// factory. Invalidation is a no-op here because the owner already
// routes writes down those shared caches; duplicating the eviction
// would double-count.

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
// profile — user-user CF with peers selected by profile-cosine
// similarity. The provider owns its similarity memo and peer cache
// (internal/cache instantiations via the simfn/cf adapters) because
// the owner's shared layers are built for the configured measure.
// Rating writes leave the similarity memo warm (profile cosine is a
// function of profiles only) but touch the writers in the peer cache —
// the peer-scan candidate universe is the set of RATED users, which a
// first or last rating changes, so every other set re-checks a writer
// on its next read. Profile writes rebuild the corpus and flush the
// peer sets.

type profileCF struct {
	deps  Deps
	peers *cf.PeerCache
	// idx clusters the profiled users over their frozen TF-IDF term
	// vectors for approx-mode peer search; nil when the candidate
	// index is disabled. Rating writes don't touch it (term vectors
	// are a function of profiles only); a corpus rebuild invalidates
	// it wholesale.
	idx *candidates.Index

	mu    sync.Mutex
	sim   *simfn.Cached
	pc    *simfn.ProfileCosine
	dirty bool
}

func newProfileCF(d Deps) Provider {
	p := &profileCF{
		deps: d,
		peers: cf.NewPeerCacheWith(cf.PeerCacheOptions{
			TTL:        d.CacheTTL,
			MaxEntries: d.CacheMaxEntries,
			MaxCost:    d.CacheMaxCost,
		}),
		dirty: true,
	}
	if d.CandidateIndex {
		p.idx = candidates.New(p.termSnapshot, candidates.Config{K: d.CandidateK, Seed: 1})
	}
	return p
}

func (p *profileCF) Name() string { return NameProfile }

// cosine returns the current frozen similarity, rebuilding the corpus
// when a profile write dirtied it.
func (p *profileCF) cosine() (*simfn.Cached, *simfn.ProfileCosine, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		pc, err := simfn.BuildProfileCosine(p.deps.Profiles, p.deps.Ontology, nil)
		if err != nil {
			return nil, nil, err
		}
		if p.sim != nil {
			p.sim.Close()
		}
		p.sim = simfn.NewCachedWith(pc, simfn.CacheOptions{
			TTL:        p.deps.CacheTTL,
			MaxEntries: p.deps.CacheMaxEntries,
			MaxCost:    p.deps.CacheMaxCost,
		})
		p.pc = pc
		p.dirty = false
	}
	return p.sim, p.pc, nil
}

// termSnapshot feeds the candidate index: the profiled users and
// their frozen TF-IDF term vectors (terms cast to the clustering
// feature-key type). Called by the index at (re)build time.
func (p *profileCF) termSnapshot() ([]model.UserID, clustering.VectorFunc, error) {
	_, pc, err := p.cosine()
	if err != nil {
		return nil, nil, err
	}
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
// first, so a corpus rebuild between the two steps can only fence off
// (never admit) peer sets computed from the older snapshot.
func (p *profileCF) recommender() (*cf.Recommender, error) {
	gen, seq := p.peers.Fence()
	sim, _, err := p.cosine()
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
// they are harmless in the candidate list.
func (p *profileCF) RelevancesApprox(u model.UserID) (map[model.ItemID]float64, error) {
	if p.idx == nil {
		return p.Relevances(u)
	}
	sim, _, err := p.cosine()
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

func (p *profileCF) Relevances(u model.UserID) (map[model.ItemID]float64, error) {
	rec, err := p.recommender()
	if err != nil {
		return nil, err
	}
	return rec.AllRelevances(u)
}

func (p *profileCF) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	rec, err := p.recommender()
	if err != nil {
		return 0, false, err
	}
	return rec.Relevance(u, i)
}

// InvalidateUsers records the touched users in the peer cache. The
// SIMILARITY memo stays warm — profile cosine really is a function of
// profiles only — but peer sets are not ratings-independent: the
// candidate universe a peer scan ranges over is the rated users, so a
// user's first-ever rating pulls them INTO profile-similar users'
// peer sets (and removing their last rating drops them out). Without
// the touch, warm peer sets would permanently miss the newcomer and
// warm serves would diverge from a cold rebuild.
func (p *profileCF) InvalidateUsers(users []model.UserID) {
	p.peers.EvictUsers(users)
}

func (p *profileCF) InvalidateAll() {
	// Mark the corpus dirty before bumping the peer generation, so a
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

func (p *profileCF) Close() {
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
