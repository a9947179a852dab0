// Package simfn implements the user-similarity measures of §V behind a
// single interface. The paper proposes three ways to compare users —
// Pearson correlation over shared document ratings (Eq. 2), cosine
// similarity over TF-IDF vectors of their textual profiles (Eq. 3),
// and semantic similarity of their coded health problems over an
// ontology (Eq. 4) — plus the implied ability to combine them. Every
// measure reports (similarity, ok): ok=false means the measure is
// undefined for the pair (no co-rated items, empty profile, ...), a
// distinct state from similarity 0.
package simfn

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fairhealth/internal/cache"
	"fairhealth/internal/model"
	"fairhealth/internal/ontology"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/textindex"
)

// UserSimilarity evaluates the proximity of two users (simU in the
// paper, Def. 1). Implementations must be symmetric:
// Similarity(a,b) == Similarity(b,a).
type UserSimilarity interface {
	Similarity(a, b model.UserID) (sim float64, ok bool)
}

// Func adapts a plain function to UserSimilarity.
type Func func(a, b model.UserID) (float64, bool)

// Similarity implements UserSimilarity.
func (f Func) Similarity(a, b model.UserID) (float64, bool) { return f(a, b) }

// ---------------------------------------------------------------------------
// Ratings-based similarity (Eq. 2)

// Pearson computes RS(u,u′), the Pearson correlation over co-rated
// items, with the user means μ taken over each user's full rating set
// I(u) exactly as Eq. 2 defines them. The result lies in [-1, 1].
//
// The correlation is undefined (ok=false) when the users share fewer
// than MinOverlap items or when either user's centered vector has zero
// norm over the shared items.
type Pearson struct {
	Store *ratings.Store
	// MinOverlap is the minimum number of co-rated items required;
	// values < 1 are treated as 1.
	MinOverlap int
}

// Similarity implements UserSimilarity. It is a merge-join over the
// two users' CSR snapshot rows: one pass over the sorted item arrays,
// zero map operations and zero allocations on the hot path. The
// accumulation order is ascending item ID — the same order the
// map-based reference pins — and the means come from the snapshot rows
// (bit-identical to Store.MeanRating), so results match
// PearsonReference bit for bit.
func (p Pearson) Similarity(a, b model.UserID) (float64, bool) {
	minOverlap := p.MinOverlap
	if minOverlap < 1 {
		minOverlap = 1
	}
	sn := p.Store.Snapshot()
	ra, okA := sn.Row(a)
	rb, okB := sn.Row(b)
	if !okA || !okB {
		return 0, false
	}
	var num, da, db float64
	shared := 0
	i, j := 0, 0
	for i < len(ra.Items) && j < len(rb.Items) {
		switch {
		case ra.Items[i] < rb.Items[j]:
			i++
		case ra.Items[i] > rb.Items[j]:
			j++
		default:
			xa := float64(ra.Ratings[i]) - ra.Mean
			xb := float64(rb.Ratings[j]) - rb.Mean
			num += xa * xb
			da += xa * xa
			db += xb * xb
			shared++
			i++
			j++
		}
	}
	if shared < minOverlap {
		return 0, false
	}
	return correlation(num, da, db)
}

// correlation finishes Eq. 2 from its accumulated sums: undefined when
// either centered vector has zero norm, else clamped into [-1, 1]
// against floating point drift.
func correlation(num, da, db float64) (float64, bool) {
	if da == 0 || db == 0 {
		return 0, false
	}
	r := num / (math.Sqrt(da) * math.Sqrt(db))
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, true
}

// RowSimilarity is implemented by measures that can score one user
// against every user of a snapshot in a single pass. Peer discovery
// type-asserts it; measures without a row form keep the pairwise loop.
type RowSimilarity interface {
	// SimilarityRow appends to dst one entry per position of
	// sn.Users(), ascending and u's own excluded, whose similarity to u
	// is defined over sn; each Sim is bit-identical to Similarity(u, v)
	// over the same ratings. ok is false, with dst returned unchanged,
	// when the measure has no row form.
	SimilarityRow(sn *ratings.Snapshot, u model.UserID, dst []RowSim) (row []RowSim, ok bool)
}

// RowSim is one defined entry of a similarity row: a position in the
// snapshot's Users() and the similarity there.
type RowSim struct {
	Pos uint32
	Sim float64
}

// rowAcc is one rater's running Eq. 2 sums in a similarity row.
type rowAcc struct {
	num, da, db float64
	shared      int
}

// rowPool recycles SimilarityRow's per-user accumulator arrays.
var rowPool = sync.Pool{New: func() any { return new([]rowAcc) }}

// SimilarityRow implements RowSimilarity with one item-major pass over
// sn.Columns(): for each of u's items in ascending catalogue order it
// walks that item's raters and accumulates the sums by rater position.
// Per rater the terms arrive in ascending item order, exactly as in
// Similarity's merge-join, so every value is bit-identical to it. The
// row reads sn, not p.Store.
func (p Pearson) SimilarityRow(sn *ratings.Snapshot, u model.UserID, dst []RowSim) ([]RowSim, bool) {
	pu, ok := sn.Position(u)
	if !ok {
		return dst, true
	}
	row, _ := sn.Row(u)
	cols := sn.Columns()
	buf := rowPool.Get().(*[]rowAcc)
	defer rowPool.Put(buf)
	if cap(*buf) < sn.NumUsers() {
		*buf = make([]rowAcc, sn.NumUsers())
	}
	accs := (*buf)[:sn.NumUsers()]
	clear(accs)
	for j, k := range row.Idx {
		xa := float64(row.Ratings[j]) - row.Mean
		for _, c := range cols.Column(k) {
			xb := float64(c.Rating) - cols.Mean(c.User)
			a := &accs[c.User]
			a.num += xa * xb
			a.da += xa * xa
			a.db += xb * xb
			a.shared++
		}
	}
	minOverlap := max(p.MinOverlap, 1)
	for v := range accs {
		a := &accs[v]
		if uint32(v) == pu || a.shared < minOverlap {
			continue
		}
		if r, ok := correlation(a.num, a.da, a.db); ok {
			dst = append(dst, RowSim{Pos: uint32(v), Sim: r})
		}
	}
	return dst, true
}

// PearsonReference is the retained map-based implementation of Eq. 2 —
// CoRated intersection plus per-item map lookups. It exists as the
// equivalence oracle for the merge-join kernel (and its benchmark
// baseline); serving paths should use Pearson.
type PearsonReference struct {
	Store      *ratings.Store
	MinOverlap int
}

// Similarity implements UserSimilarity.
func (p PearsonReference) Similarity(a, b model.UserID) (float64, bool) {
	minOverlap := p.MinOverlap
	if minOverlap < 1 {
		minOverlap = 1
	}
	shared := p.Store.CoRated(a, b)
	if len(shared) < minOverlap {
		return 0, false
	}
	ma, okA := p.Store.MeanRating(a)
	mb, okB := p.Store.MeanRating(b)
	if !okA || !okB {
		return 0, false
	}
	var num, da, db float64
	for _, i := range shared {
		ra, _ := p.Store.Rating(a, i)
		rb, _ := p.Store.Rating(b, i)
		xa := float64(ra) - ma
		xb := float64(rb) - mb
		num += xa * xb
		da += xa * xa
		db += xb * xb
	}
	if da == 0 || db == 0 {
		return 0, false
	}
	r := num / (math.Sqrt(da) * math.Sqrt(db))
	// guard against floating point drift outside [-1, 1]
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, true
}

// ---------------------------------------------------------------------------
// Profile-based similarity (Def. 4 + Eq. 3)

// ProfileCosine compares users by the cosine of the TF-IDF vectors of
// their rendered profile documents (§V.B). Build it with
// BuildProfileCosine, which snapshots the current profiles into a
// corpus.
type ProfileCosine struct {
	corpus *textindex.Corpus
	// vecs precomputes each profile's TF-IDF vector together with its
	// sorted term list and norm — invariants of the frozen corpus
	// snapshot. Peer discovery evaluates O(users²) pairs on a cold
	// scan, so re-deriving (and re-sorting) both vectors per pair
	// would repeat work the snapshot fixed at build time.
	vecs map[model.UserID]profileVec
}

type profileVec struct {
	vec   textindex.Vector
	terms []string // ascending — the deterministic accumulation order
	norm  float64
}

// BuildProfileCosine renders every profile in store to a document
// (expanding problem codes through ont when non-nil) and indexes them.
// tok selects the tokenizer; nil uses the textindex default.
func BuildProfileCosine(store *phr.Store, ont *ontology.Ontology, tok textindex.Tokenizer) (*ProfileCosine, error) {
	corpus := textindex.NewCorpus(tok)
	ids := store.IDs()
	for _, id := range ids {
		p, err := store.Get(id)
		if err != nil {
			return nil, fmt.Errorf("simfn: profile %s: %w", id, err)
		}
		if err := corpus.Add(textindex.DocID(id), p.Document(ont)); err != nil {
			return nil, fmt.Errorf("simfn: index %s: %w", id, err)
		}
	}
	// The corpus is complete (idf is final); freeze every vector with
	// its sorted terms and norm. Accumulation order matches
	// textindex.Vector.Norm, so the values are bit-identical to the
	// unfrozen path.
	vecs := make(map[model.UserID]profileVec, len(ids))
	for _, id := range ids {
		v, err := corpus.TFIDFVector(textindex.DocID(id))
		if err != nil {
			return nil, fmt.Errorf("simfn: vector %s: %w", id, err)
		}
		terms := v.Terms()
		var sum float64
		for _, t := range terms {
			x := v[t]
			sum += x * x
		}
		vecs[id] = profileVec{vec: v, terms: terms, norm: math.Sqrt(sum)}
	}
	return &ProfileCosine{corpus: corpus, vecs: vecs}, nil
}

// Similarity implements UserSimilarity. ok is false when either user
// has no indexed profile or a zero-weight vector. The dot product
// iterates the smaller vector's frozen sorted terms, so only the
// intersection contributes, in ascending-term order — the same
// accumulation textindex.Vector.Cosine performs, without re-sorting
// either vector per pair.
func (pc *ProfileCosine) Similarity(a, b model.UserID) (float64, bool) {
	va, okA := pc.vecs[a]
	vb, okB := pc.vecs[b]
	if !okA || !okB || va.norm == 0 || vb.norm == 0 {
		return 0, false
	}
	small, other := va, vb
	if len(vb.terms) < len(va.terms) {
		small, other = vb, va
	}
	var dot float64
	for _, t := range small.terms {
		if y, ok := other.vec[t]; ok {
			dot += small.vec[t] * y
		}
	}
	return dot / (va.norm * vb.norm), true
}

// Corpus exposes the underlying index (read-mostly; used by examples
// to inspect top terms).
func (pc *ProfileCosine) Corpus() *textindex.Corpus { return pc.corpus }

// TermVector returns a copy of u's frozen TF-IDF term weights, or nil
// when the user has no indexed profile. Candidate indexing clusters
// over these so profile-space locality matches the scorer's cosine.
func (pc *ProfileCosine) TermVector(u model.UserID) map[string]float64 {
	pv, ok := pc.vecs[u]
	if !ok {
		return nil
	}
	out := make(map[string]float64, len(pv.terms))
	for _, t := range pv.terms {
		out[t] = pv.vec[t]
	}
	return out
}

// IndexedUsers lists every user with an indexed profile, ascending.
func (pc *ProfileCosine) IndexedUsers() []model.UserID {
	out := make([]model.UserID, 0, len(pc.vecs))
	for u := range pc.vecs {
		out = append(out, u)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ---------------------------------------------------------------------------
// Semantic similarity (Eq. 4)

// Semantic compares users through the ontology distance of their coded
// health problems (§V.C): per-pair path similarities aggregated with
// the harmonic mean.
type Semantic struct {
	Ont *ontology.Ontology
	// Problems returns the coded problem list of a user; phr.Store's
	// Problems method satisfies this.
	Problems func(model.UserID) []ontology.ConceptID
}

// Similarity implements UserSimilarity. ok is false when either user
// has no recorded problems; unknown concept codes also yield ok=false
// (they indicate a profile/ontology mismatch, not dissimilarity).
func (s Semantic) Similarity(a, b model.UserID) (float64, bool) {
	pa, pb := s.Problems(a), s.Problems(b)
	sim, ok, err := s.Ont.SetSimilarity(pa, pb)
	if err != nil || !ok {
		return 0, false
	}
	return sim, true
}

// ---------------------------------------------------------------------------
// Combinators

// Normalized maps a [-1,1] similarity into [0,1] via (s+1)/2 so that
// correlation-style measures can share a δ threshold with the
// naturally [0,1] measures.
type Normalized struct{ S UserSimilarity }

// Similarity implements UserSimilarity.
func (n Normalized) Similarity(a, b model.UserID) (float64, bool) {
	s, ok := n.S.Similarity(a, b)
	if !ok {
		return 0, false
	}
	return (s + 1) / 2, true
}

// SimilarityRow implements RowSimilarity by forwarding to the inner
// measure's row and mapping each value as Similarity does.
func (n Normalized) SimilarityRow(sn *ratings.Snapshot, u model.UserID, dst []RowSim) ([]RowSim, bool) {
	rs, ok := n.S.(RowSimilarity)
	if !ok {
		return dst, false
	}
	row, ok := rs.SimilarityRow(sn, u, dst)
	for i := len(dst); i < len(row); i++ {
		row[i].Sim = (row[i].Sim + 1) / 2
	}
	return row, ok
}

// Component weights one measure inside a Weighted combination.
type Component struct {
	S      UserSimilarity
	Weight float64
}

// Weighted blends several measures into one score: the weighted
// average of the defined components, with weights renormalized over
// the components that are defined for the pair. This mirrors the
// paper's intent of exploiting "health-related information in addition
// to the traditional ratings".
type Weighted struct {
	Components []Component
}

// Similarity implements UserSimilarity. ok is false when no component
// is defined for the pair or total weight is 0.
func (w Weighted) Similarity(a, b model.UserID) (float64, bool) {
	var sum, weight float64
	for _, c := range w.Components {
		if c.Weight <= 0 {
			continue
		}
		s, ok := c.S.Similarity(a, b)
		if !ok {
			continue
		}
		sum += c.Weight * s
		weight += c.Weight
	}
	if weight == 0 {
		return 0, false
	}
	return sum / weight, true
}

// ---------------------------------------------------------------------------
// Caching

type pairKey struct{ a, b model.UserID }

func canonical(a, b model.UserID) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// scopes returns the eviction scopes of a pair: its two endpoints. A
// write to either user invalidates exactly the entries carrying them.
func (k pairKey) scopes() []model.UserID { return []model.UserID{k.a, k.b} }

type cacheEntry struct {
	sim float64
	ok  bool
}

// CacheOptions tunes the memo table behind Cached. The zero value is
// the historical behavior: unbounded, never expiring.
type CacheOptions struct {
	// TTL bounds each memoized pair's lifetime; 0 disables expiry.
	TTL time.Duration
	// MaxEntries caps the table (LRU eviction beyond); 0 is unbounded.
	MaxEntries int
	// MaxCost caps the table by total entry cost (each memoized pair
	// costs 1, so for this table it is an alternative spelling of
	// MaxEntries that shares one budget unit with the other cache
	// layers); 0 is unbounded.
	MaxCost int64
	// Clock injects a fake clock for TTL tests; nil means time.Now.
	Clock func() time.Time
	// JanitorInterval tunes the background expiry sweep: 0 derives it
	// from the TTL, negative disables it (lazy expiry still applies).
	JanitorInterval time.Duration
}

// Cached memoizes a symmetric similarity measure over the shared
// internal/cache engine. Peer discovery (Def. 1) evaluates simU for
// every candidate pair; caching turns the repeated lookups of group
// recommendation into O(1), and concurrent misses of one pair compute
// it once (singleflight).
//
// Eviction is row-scoped: a write to user u only needs EvictRows(u) —
// every other pair's similarity is a function of data the write did not
// touch, so the rest of the memo table stays warm. Evictions are
// sequence-numbered by the engine, and a computation that started
// before an eviction of either of its endpoints is dropped instead of
// stored, so an in-flight lookup racing a write can never resurrect a
// stale entry (the value is still returned to its caller — a read
// overlapping a write may see either side of it, but the cache only
// keeps entries computed from post-eviction state).
//
// With a TTL, long-idle entries age out (lazily on lookup plus a
// background janitor — call Close when discarding a TTL'd Cached);
// with MaxEntries, the table is LRU-bounded. A recomputation after
// expiry or LRU eviction reads the same underlying data, so warm
// answers stay bit-identical to cold rebuilds.
type Cached struct {
	inner UserSimilarity
	table *cache.Cache[pairKey, model.UserID, cacheEntry]
}

// CacheStats is a race-safe snapshot of the memo table's
// effectiveness counters.
type CacheStats struct {
	// Hits and Misses count Similarity lookups served from / past the
	// table since it was built.
	Hits, Misses uint64
	// Evictions counts entries dropped by row-scoped eviction, the LRU
	// capacity bound, or full invalidation; Expirations counts entries
	// aged out by the TTL.
	Evictions, Expirations uint64
	// Entries is the number of pairs currently memoized.
	Entries int
	// Cost is the summed cost of the memoized pairs (1 each), the
	// quantity MaxCost bounds.
	Cost int64
}

// Stats returns the current counters.
func (c *Cached) Stats() CacheStats {
	st := c.table.Stats()
	return CacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Evictions:   st.Evictions,
		Expirations: st.Expirations,
		Entries:     st.Entries,
		Cost:        st.Cost,
	}
}

// NewCached wraps inner with an unbounded, non-expiring memo table.
func NewCached(inner UserSimilarity) *Cached {
	return NewCachedWith(inner, CacheOptions{})
}

// NewCachedWith wraps inner with a memo table tuned by opts.
func NewCachedWith(inner UserSimilarity, opts CacheOptions) *Cached {
	return &Cached{
		inner: inner,
		table: cache.New[pairKey, model.UserID, cacheEntry](cache.Config[pairKey, cacheEntry]{
			Hash:            func(k pairKey) uint32 { return cache.FNV1a(string(k.a), string(k.b)) },
			TTL:             opts.TTL,
			MaxEntries:      opts.MaxEntries,
			MaxCost:         opts.MaxCost,
			Cost:            func(pairKey, cacheEntry) int64 { return 1 },
			Now:             opts.Clock,
			JanitorInterval: opts.JanitorInterval,
		}),
	}
}

// SetTTL retargets the memo table's lease; live entries are re-judged
// against the new value on their next lookup or sweep. Expiry only
// removes entries — a recomputation reads the same underlying data —
// so adaptation never changes what a hit returns.
func (c *Cached) SetTTL(d time.Duration) { c.table.SetTTL(d) }

// TTL reports the current lease.
func (c *Cached) TTL() time.Duration { return c.table.TTL() }

// Close stops the memo table's background janitor (a no-op without a
// TTL). The table remains usable afterwards.
func (c *Cached) Close() { c.table.Close() }

// Similarity implements UserSimilarity.
func (c *Cached) Similarity(a, b model.UserID) (float64, bool) {
	k := canonical(a, b)
	e := c.table.GetOrCompute(k, k.scopes(), func() cacheEntry {
		sim, ok := c.inner.Similarity(a, b)
		return cacheEntry{sim, ok}
	})
	return e.sim, e.ok
}

// Len returns the number of cached pairs.
func (c *Cached) Len() int { return c.table.Len() }

// AgeHistogram buckets the stored memoized pairs by age at the given
// ascending upper bounds (the result is len(bounds)+1 long; the final
// element counts entries older than every bound) — the TTL-tuning feed
// surfaced on GET /v1/stats.
func (c *Cached) AgeHistogram(bounds []time.Duration) []int {
	return c.table.AgeHistogram(bounds)
}

// EvictRows drops every cached pair with an endpoint in users and
// fences off in-flight computations involving them, keeping the rest of
// the memo table warm — the scoped alternative to Invalidate for a
// write that touched only these users' data. Cost is O(evicted), via
// the engine's scope index, not O(table). It returns the number of
// entries evicted.
func (c *Cached) EvictRows(users []model.UserID) int {
	return c.table.EvictScopes(users)
}

// Invalidate clears the memo table (call after a mutation whose blast
// radius is unknown — e.g. a profile rebuild; for single-user rating
// writes prefer EvictRows).
func (c *Cached) Invalidate() { c.table.Invalidate() }
