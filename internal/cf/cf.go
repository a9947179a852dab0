// Package cf implements the single-user collaborative-filtering model
// of §III.A: peers are all users whose similarity to the query user
// meets a threshold δ (Def. 1), and the relevance of an unrated item
// is the similarity-weighted average of the peers' ratings (Eq. 1):
//
//	relevance(u,i) = Σ_{u'∈Pu∩U(i)} simU(u,u')·rating(u',i)
//	               / Σ_{u'∈Pu∩U(i)} simU(u,u')
//
// The per-user top-k list A_u produced here is both the single-user
// recommendation output and the input to the fairness-aware group
// algorithm (package core).
package cf

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"fairhealth/internal/cache"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
	"fairhealth/internal/simfn"
	"fairhealth/internal/topk"
)

// Common errors.
var (
	// ErrAlreadyRated is returned by Relevance when the user has an
	// explicit rating for the item (Eq. 1 is defined only for unrated
	// items).
	ErrAlreadyRated = errors.New("cf: item already rated by user")
	// ErrNoConfig is returned when a Recommender is missing its store
	// or similarity function.
	ErrNoConfig = errors.New("cf: recommender not configured")
)

// Peer is one member of P_u with its similarity score.
type Peer struct {
	User model.UserID
	Sim  float64
}

// Recommender predicts item relevance for single users.
type Recommender struct {
	// Store holds the observed ratings.
	Store *ratings.Store
	// Sim is the user-similarity measure simU. For peer selection its
	// output is compared against Delta, so measures with negative
	// ranges (raw Pearson) are usually wrapped in simfn.Normalized.
	// When Sim offers rows (simfn.RowSimilarity, as Pearson and
	// Normalized Pearson do), the full peer scan is one row pass, fast
	// enough that Sim needs no pair memo; other measures are evaluated
	// pair by pair and are usually wrapped in simfn.Cached.
	Sim simfn.UserSimilarity
	// Delta is the peer threshold δ of Def. 1.
	Delta float64
	// RequirePositive drops peers with similarity ≤ 0 even when
	// Delta ≤ 0; negative-similarity peers would otherwise produce
	// negative Eq. 1 weights.
	RequirePositive bool
	// Candidates optionally restricts peer discovery to a candidate
	// subset — e.g. the query user's cluster from package clustering,
	// the speed-up of Ntoutsi et al. [17] the paper's related work
	// discusses. nil (or a nil return) scans every user in the store.
	// With a Cache, whether v is a candidate of u must depend on u's and
	// v's data only: a cached set is patched for the written users alone,
	// so a write to w must not move v in or out of u's candidates.
	Candidates func(model.UserID) []model.UserID
	// Cache optionally memoizes peer sets across requests. Peer
	// discovery scans every candidate user, so group recommendation —
	// which needs P_u for every member against the same frozen ratings
	// snapshot — repays a shared cache immediately. The owner must call
	// Cache.EvictUsers after a write touching specific users' data, or
	// Cache.Invalidate after a change whose blast radius is unknown.
	Cache *PeerCache
	// CacheGen is the Cache generation captured BEFORE Sim was
	// snapshotted; Puts are fenced to it. Capturing the generation
	// first guarantees that a peer set computed from a similarity
	// snapshot predating a full invalidation can never be stored under
	// the post-invalidation generation. Zero is correct for a fresh
	// cache.
	CacheGen uint64
	// CacheSeq is the Cache eviction sequence captured alongside
	// CacheGen (see PeerCache.Fence). A stored peer set is patched on
	// later reads for every user evicted after this point, so scoped
	// evictions racing an in-flight computation stay correct without
	// flushing the whole cache. Zero is correct for a fresh cache.
	CacheSeq uint64
}

// PeerCacheOptions tunes the table behind a PeerCache. The zero value
// is the historical behavior: unbounded, never expiring.
type PeerCacheOptions struct {
	// TTL bounds each cached peer set's lifetime; 0 disables expiry.
	TTL time.Duration
	// MaxEntries caps the number of cached sets (LRU eviction beyond);
	// 0 is unbounded.
	MaxEntries int
	// MaxCost caps the table by summed set size (each cached set costs
	// len(peers)+1, so big fan-out sets consume proportionally more of
	// the budget than empty ones); 0 is unbounded.
	MaxCost int64
	// Clock injects a fake clock for TTL tests; nil means time.Now.
	Clock func() time.Time
	// JanitorInterval tunes the background expiry sweep: 0 derives it
	// from the TTL, negative disables it (lazy expiry still applies).
	JanitorInterval time.Duration
}

// PeerCache memoizes Peers results per user over the shared
// internal/cache engine. It is safe for concurrent use and staleness
// is impossible by construction, through the engine's two fences:
//
//   - Generation (full flush): Invalidate bumps the generation and an
//     in-flight Put carrying the older generation is dropped, so a peer
//     set computed against a pre-flush snapshot can never land.
//   - Eviction sequence (scoped): EvictUsers(users) deletes each user's
//     own set — a write to u can change every pair (u, other) — and
//     records the users as touched at the current sequence. Every other
//     set stays resident: a set stored before a touch does not know
//     about it, so Lookup reports those touched users as stale and the
//     Recommender re-evaluates exactly them, in both directions across
//     δ (a write to u can pull u INTO another user's peer set as well
//     as out of it). Entries stored by in-flight Puts after an eviction
//     carry the pre-eviction sequence and are patched the same way on
//     next read.
//
// TTL expiry and LRU capacity eviction only remove sets — the next
// Peers call rebuilds from current data, so no staleness can arise
// from either. Call Close when discarding a TTL'd cache.
type PeerCache struct {
	c *cache.Cache[model.UserID, model.UserID, []Peer]
}

// CacheStats is a race-safe snapshot of the peer cache's
// effectiveness counters.
type CacheStats struct {
	// Hits and Misses count Lookup outcomes since the cache was built
	// (Invalidate clears entries but not the counters). A hit is a
	// resident set served as stored or after patching it for the users
	// written since; a miss costs a full peer scan.
	Hits, Misses uint64
	// Evictions counts sets dropped by a write to their owner, the LRU
	// capacity bound, or full invalidation; Expirations counts sets
	// aged out by the TTL.
	Evictions, Expirations uint64
	// Entries is the number of peer sets currently cached.
	Entries int
	// Cost is the summed cost of the cached sets (len(peers)+1 each),
	// the quantity MaxCost bounds.
	Cost int64
}

// Stats returns the current counters.
func (c *PeerCache) Stats() CacheStats {
	st := c.c.Stats()
	return CacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Evictions:   st.Evictions,
		Expirations: st.Expirations,
		Entries:     st.Entries,
		Cost:        st.Cost,
	}
}

// NewPeerCache returns an empty, unbounded, non-expiring cache.
func NewPeerCache() *PeerCache {
	return NewPeerCacheWith(PeerCacheOptions{})
}

// NewPeerCacheWith returns an empty cache tuned by opts.
func NewPeerCacheWith(opts PeerCacheOptions) *PeerCache {
	return &PeerCache{
		c: cache.New[model.UserID, model.UserID, []Peer](cache.Config[model.UserID, []Peer]{
			Hash:            func(u model.UserID) uint32 { return cache.FNV1a(string(u)) },
			TTL:             opts.TTL,
			MaxEntries:      opts.MaxEntries,
			MaxCost:         opts.MaxCost,
			Cost:            func(_ model.UserID, peers []Peer) int64 { return int64(len(peers)) + 1 },
			Now:             opts.Clock,
			JanitorInterval: opts.JanitorInterval,
		}),
	}
}

// SetTTL retargets the cache's lease; live sets are re-judged against
// the new value on their next lookup or sweep. Expiry only removes
// sets — the next Peers call rebuilds from current data — so
// adaptation never changes what a hit returns.
func (c *PeerCache) SetTTL(d time.Duration) { c.c.SetTTL(d) }

// TTL reports the current lease.
func (c *PeerCache) TTL() time.Duration { return c.c.TTL() }

// Close stops the cache's background janitor (a no-op without a TTL).
// The cache remains usable afterwards.
func (c *PeerCache) Close() { c.c.Close() }

// Get returns a copy of the cached peer set for u if it is present and
// fully fresh (no touched users to re-evaluate). Callers that can patch
// partially-stale sets should use Lookup instead.
func (c *PeerCache) Get(u model.UserID) ([]Peer, bool) {
	peers, stale, ok := c.Lookup(u)
	if !ok || len(stale) > 0 {
		return nil, false
	}
	return peers, true
}

// Lookup returns a copy of the cached peer set for u together with the
// users evicted since the set was stored (ascending). The set is exact
// except possibly for those stale users: each must be re-evaluated
// against the current similarity and dropped/inserted accordingly (see
// Recommender.Peers), after which the patched set can be Put back.
func (c *PeerCache) Lookup(u model.UserID) (peers []Peer, stale []model.UserID, ok bool) {
	set, stale, ok := c.lookup(u)
	if !ok {
		return nil, nil, false
	}
	return append([]Peer(nil), set...), stale, true
}

// lookup is Lookup without the copy: set is the cache's own slice and
// must not be modified. When u itself is stale the set is reported as a
// miss: EVERY pair (u, other) may have changed — a set for u stored by
// a computation that raced the write to u (the eviction deleted u's
// entry, but a late Put can reinstate it) is wrong in entries the stale
// list does not name, so only a full scan can rebuild it.
func (c *PeerCache) lookup(u model.UserID) (set []Peer, stale []model.UserID, ok bool) {
	set, entrySeq, ok := c.c.Lookup(u)
	if ok {
		stale = c.c.StaleSince(entrySeq)
		for _, t := range stale {
			if t == u {
				ok = false
				break
			}
		}
	}
	if !ok {
		c.c.RecordMiss()
		return nil, nil, false
	}
	sort.Slice(stale, func(a, b int) bool { return stale[a] < stale[b] })
	c.c.RecordHit()
	return set, stale, true
}

// Generation returns the current invalidation generation; capture it
// (via Fence) before computing a peer set and pass it to Put.
func (c *PeerCache) Generation() uint64 { return c.c.Generation() }

// Fence captures the generation and eviction sequence in one shot —
// the pair a Recommender needs before snapshotting its similarity.
func (c *PeerCache) Fence() (gen, seq uint64) { return c.c.Fence() }

// Put stores a copy of u's peer set, valid as of the captured (gen,
// seq) fence. The set is dropped when the cache was fully invalidated
// since gen was captured; scoped evictions since seq are reconciled
// lazily by Lookup's stale reporting.
func (c *PeerCache) Put(u model.UserID, peers []Peer, gen, seq uint64) {
	c.put(u, append([]Peer(nil), peers...), gen, seq)
}

// put is Put without the copy: the cache takes the slice over and the
// caller must not modify it afterwards.
func (c *PeerCache) put(u model.UserID, peers []Peer, gen, seq uint64) {
	c.c.PutFenced(u, peers, []model.UserID{u}, gen, seq)
}

// EvictUsers routes a write touching users down the cache: each user's
// own peer set goes, and the users are recorded as touched so every
// other set — resident now or stored late by an in-flight computation
// — gets patched for them on its next read. The engine periodically
// prunes touch records no live entry can still be behind on, so the
// metadata doesn't grow with every user ever written.
func (c *PeerCache) EvictUsers(users []model.UserID) {
	c.c.EvictScopes(users)
}

// Invalidate clears the cache and bumps the generation, fencing off any
// in-flight Put that started before the call.
func (c *PeerCache) Invalidate() { c.c.Invalidate() }

// Len returns the number of cached peer sets.
func (c *PeerCache) Len() int { return c.c.Len() }

// AgeHistogram buckets the stored cached peer sets by age at the given
// ascending upper bounds (the result is len(bounds)+1 long; the final
// element counts entries older than every bound) — the TTL-tuning feed
// surfaced on GET /v1/stats.
func (c *PeerCache) AgeHistogram(bounds []time.Duration) []int {
	return c.c.AgeHistogram(bounds)
}

func (r *Recommender) check() error {
	if r == nil || r.Store == nil || r.Sim == nil {
		return ErrNoConfig
	}
	return nil
}

// qualifies applies the Def. 1 membership predicate to one similarity
// evaluation.
func (r *Recommender) qualifies(s float64, ok bool) bool {
	if !ok || s < r.Delta {
		return false
	}
	if r.RequirePositive && s <= 0 {
		return false
	}
	return true
}

// before is the canonical peer order: best-first, ties on ascending
// user ID. The full scan produces it by sorting stably over candidates
// visited in ascending ID order, so a patched set merged under the same
// relation is exactly the fresh-scan order.
func before(a, b Peer) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.User < b.User
}

// patchPeers reconciles a cached peer set with the users written since
// it was stored (stale, ascending, never u itself): stale users are
// dropped and re-evaluated exactly as the scan would evaluate them —
// the same candidate universe, the same similarity, the same Def. 1
// predicate — because a write can move a user across δ, or in and out
// of the universe, in either direction. Every retained entry is
// untouched by construction and already in canonical order, so merging
// the re-evaluated users into it yields a set element-wise identical
// to a from-scratch scan. cached is the cache's own slice and is only
// read.
func (r *Recommender) patchPeers(u model.UserID, cached []Peer, stale []model.UserID) []Peer {
	// inUniverse doubles as the drop set: its keys are the stale users,
	// its values whether the scan would visit them at all.
	inUniverse := make(map[model.UserID]bool, len(stale))
	var cs []model.UserID
	if r.Candidates != nil {
		cs = r.Candidates(u)
	}
	if cs != nil {
		for _, t := range stale {
			inUniverse[t] = false
		}
		for _, c := range cs {
			if _, isStale := inUniverse[c]; isStale {
				inUniverse[c] = true
			}
		}
	} else {
		sn := r.Store.Snapshot()
		for _, t := range stale {
			_, inUniverse[t] = sn.Row(t)
		}
	}
	var fresh []Peer
	for _, t := range stale {
		if !inUniverse[t] {
			continue
		}
		if s, ok := r.Sim.Similarity(u, t); r.qualifies(s, ok) {
			fresh = append(fresh, Peer{User: t, Sim: s})
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return before(fresh[i], fresh[j]) })
	patched := make([]Peer, 0, len(cached)+len(fresh))
	for _, p := range cached {
		if _, isStale := inUniverse[p.User]; isStale {
			continue
		}
		for len(fresh) > 0 && before(fresh[0], p) {
			patched = append(patched, fresh[0])
			fresh = fresh[1:]
		}
		patched = append(patched, p)
	}
	return append(patched, fresh...)
}

// Peers returns P_u: every other user whose similarity to u is ≥ δ
// (Def. 1), best-first with ties on ascending user ID. Users for whom
// simU is undefined are excluded.
func (r *Recommender) Peers(u model.UserID) ([]Peer, error) {
	peers, err := r.peers(u)
	return append([]Peer(nil), peers...), err
}

// peers is Peers without the defensive copy: the result may be the
// cached slice itself and must only be read.
func (r *Recommender) peers(u model.UserID) ([]Peer, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	if r.Cache != nil {
		if set, stale, ok := r.Cache.lookup(u); ok {
			if len(stale) > 0 {
				set = r.patchPeers(u, set, stale)
				r.Cache.put(u, set, r.CacheGen, r.CacheSeq)
			}
			return set, nil
		}
	}
	sn := r.Store.Snapshot()
	candidates, filtered := sn.Users(), false // ascending, for deterministic ties
	if r.Candidates != nil {
		if cs := r.Candidates(u); cs != nil {
			candidates = append([]model.UserID(nil), cs...)
			sort.Slice(candidates, func(a, b int) bool { return candidates[a] < candidates[b] })
			filtered = true
		}
	}
	peers, ok := r.rowPeers(sn, u, candidates, filtered)
	if !ok {
		for _, other := range candidates {
			if other == u {
				continue
			}
			s, ok := r.Sim.Similarity(u, other)
			if !r.qualifies(s, ok) {
				continue
			}
			peers = append(peers, Peer{User: other, Sim: s})
		}
		// Candidates are ascending, so equal-similarity peers are already
		// in ID order; sort stably by similarity descending.
		sort.SliceStable(peers, func(i, j int) bool { return peers[i].Sim > peers[j].Sim })
	}
	if r.Cache != nil {
		// Put's copy drops the slack append left behind; the set may stay
		// resident for a long time.
		r.Cache.Put(u, peers, r.CacheGen, r.CacheSeq)
	}
	return peers, nil
}

// rowPool recycles rowPeers' similarity-row buffers.
var rowPool = sync.Pool{New: func() any { return new([]simfn.RowSim) }}

// rowPeers is the full scan computed as one similarity row, kept to the
// ascending candidates when filtered and returned in canonical order;
// ok is false when Sim has no row form.
func (r *Recommender) rowPeers(sn *ratings.Snapshot, u model.UserID, candidates []model.UserID, filtered bool) (peers []Peer, ok bool) {
	rows, ok := r.Sim.(simfn.RowSimilarity)
	if !ok {
		return nil, false
	}
	buf := rowPool.Get().(*[]simfn.RowSim)
	defer rowPool.Put(buf)
	if *buf, ok = rows.SimilarityRow(sn, u, (*buf)[:0]); !ok {
		return nil, false
	}
	users := sn.Users()
	keep := (*buf)[:0]
	for _, e := range *buf {
		if filtered {
			// Both run ascending by user: advance the candidates cursor.
			v := users[e.Pos]
			for len(candidates) > 0 && candidates[0] < v {
				candidates = candidates[1:]
			}
			if len(candidates) == 0 || candidates[0] != v {
				continue
			}
		}
		if r.qualifies(e.Sim, true) {
			keep = append(keep, e)
		}
	}
	// Positions ascend with user IDs, so (similarity desc, position asc)
	// is the canonical order; it is total, so sorting the pointer-free
	// entries gives the same slice the stable sort of a scan would.
	slices.SortFunc(keep, func(a, b simfn.RowSim) int {
		if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	peers = make([]Peer, len(keep))
	for k, e := range keep {
		peers[k] = Peer{User: users[e.Pos], Sim: e.Sim}
	}
	return peers, true
}

// PeerSet returns the peers as a map for O(1) membership checks.
func (r *Recommender) PeerSet(u model.UserID) (map[model.UserID]float64, error) {
	peers, err := r.peers(u)
	if err != nil {
		return nil, err
	}
	out := make(map[model.UserID]float64, len(peers))
	for _, p := range peers {
		out[p.User] = p.Sim
	}
	return out, nil
}

// Relevance predicts Eq. 1 for a single (user, item) pair. ok=false
// means no peer has rated the item (the estimate is undefined); an
// ErrAlreadyRated error means the user has an explicit rating. Like
// AllRelevances it reads one ratings snapshot, never the live store, so
// the rated check and every peer's rating describe the same state.
func (r *Recommender) Relevance(u model.UserID, i model.ItemID) (score float64, ok bool, err error) {
	if err := r.check(); err != nil {
		return 0, false, err
	}
	sn := r.Store.Snapshot()
	rowU, _ := sn.Row(u)
	if _, rated := rowU.Rating(i); rated {
		return 0, false, fmt.Errorf("%w: user %s item %s", ErrAlreadyRated, u, i)
	}
	peers, err := r.peers(u)
	if err != nil {
		return 0, false, err
	}
	return relevanceWithPeers(sn, peers, i)
}

// relevanceWithPeers evaluates Eq. 1 given a prebuilt peer list. Peers
// are visited in their (deterministic) list order, so the floating-
// point accumulation is reproducible across runs — a requirement for
// the batch path, whose results must be bit-identical to single-shot
// serving.
func relevanceWithPeers(sn *ratings.Snapshot, peers []Peer, i model.ItemID) (float64, bool, error) {
	var num, den float64
	for _, p := range peers {
		row, _ := sn.Row(p.User)
		if rating, ok := row.Rating(i); ok {
			num += p.Sim * float64(rating)
			den += p.Sim
		}
	}
	if den == 0 {
		return 0, false, nil
	}
	return num / den, true, nil
}

// acc is one item's Eq. 1 numerator and denominator.
type acc struct{ num, den float64 }

// accPool recycles AllRelevances' per-catalogue accumulator arrays.
var accPool = sync.Pool{New: func() any { return new([]acc) }}

// AllRelevances predicts Eq. 1 for every item the user has NOT rated
// and at least one peer has. The result maps item → score. Peers are
// accumulated in their deterministic Peers order, so scores are
// bit-reproducible across runs and serving paths.
func (r *Recommender) AllRelevances(u model.UserID) (map[model.ItemID]float64, error) {
	out, _, err := r.relevances(u)
	return out, err
}

// relevances is AllRelevances plus the snapshot it read.
func (r *Recommender) relevances(u model.UserID) (map[model.ItemID]float64, *ratings.Snapshot, error) {
	if err := r.check(); err != nil {
		return nil, nil, err
	}
	peers, err := r.peers(u)
	if err != nil {
		return nil, nil, err
	}
	// Accumulate numerator/denominator per item over peers' ratings —
	// O(Σ|I(peer)|) instead of O(|I|·|peers|) — reading each peer's CSR
	// snapshot row into an array addressed by catalogue position. Per
	// item the accumulation order is the peer order (the outer loop), so
	// scores are bit-identical to a map keyed by item ID.
	sn := r.Store.Snapshot()
	cat := sn.Items()
	buf := accPool.Get().(*[]acc)
	defer accPool.Put(buf)
	if cap(*buf) < len(cat) {
		*buf = make([]acc, len(cat))
	}
	accs := (*buf)[:len(cat)]
	clear(accs)
	for _, p := range peers {
		sim := p.Sim
		row, _ := sn.Row(p.User)
		for j, k := range row.Idx {
			a := &accs[k]
			a.num += sim * float64(row.Ratings[j])
			a.den += sim
		}
	}
	// The user's own items are not predicted: den == 0 skips them along
	// with items no peer rated and items whose similarities cancel.
	rowU, _ := sn.Row(u)
	for _, k := range rowU.Idx {
		accs[k] = acc{}
	}
	out := make(map[model.ItemID]float64, len(cat)-len(rowU.Idx))
	for k, a := range accs {
		if a.den != 0 {
			out[cat[k]] = a.num / a.den
		}
	}
	return out, sn, nil
}

// Recommend returns A_u: the top-k unrated items by predicted
// relevance (§III.A: "the items A_u with the top-k relevance scores
// can be suggested to u").
func (r *Recommender) Recommend(u model.UserID, k int) ([]model.ScoredItem, error) {
	scores, err := r.AllRelevances(u)
	if err != nil {
		return nil, err
	}
	return topk.TopOfMap(scores, k), nil
}

// Coverage reports what fraction of the user's unrated items receive a
// defined prediction — a diagnostic for δ tuning (the δ-sweep ablation
// in DESIGN.md).
func (r *Recommender) Coverage(u model.UserID) (float64, error) {
	if err := r.check(); err != nil {
		return 0, err
	}
	scores, sn, err := r.relevances(u)
	if err != nil {
		return 0, err
	}
	// The catalogue may list items nobody rates any more: count only the
	// items some row still holds.
	held := make([]bool, len(sn.Items()))
	unrated := 0
	for _, v := range sn.Users() {
		row, _ := sn.Row(v)
		for _, k := range row.Idx {
			if !held[k] {
				held[k] = true
				unrated++
			}
		}
	}
	rowU, _ := sn.Row(u)
	unrated -= rowU.Len()
	if unrated <= 0 {
		return 0, nil
	}
	return float64(len(scores)) / float64(unrated), nil
}
