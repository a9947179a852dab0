// Package itemcf implements item-based collaborative filtering — the
// classic alternative (Sarwar et al., WWW 2001) to the paper's
// user-based model, included as an ablation baseline: instead of
// finding peer USERS above δ (Def. 1), it precomputes the most similar
// ITEMS per item and predicts
//
//	relevance(u,i) = Σ_{j ∈ I(u)∩N(i)} sim(i,j)·rating(u,j)
//	               / Σ_{j ∈ I(u)∩N(i)} sim(i,j)
//
// with adjusted-cosine item similarity (co-raters' ratings centered on
// each RATER's mean, which removes per-user rating bias; all three
// sums range over the users who rated BOTH items, the strict Sarwar
// form):
//
//	sim(i,j) = Σ_{u∈U(i)∩U(j)} (r(u,i)−μ_u)(r(u,j)−μ_u)
//	         / √Σ_{u∈∩} (r(u,i)−μ_u)² · √Σ_{u∈∩} (r(u,j)−μ_u)²
//
// The neighbor model is built once (O(Σ_u |I(u)|²) via user-centric
// accumulation) and served from memory, the usual deployment shape for
// item-based CF; Update then patches it for the users a write touched.
package itemcf

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
	"fairhealth/internal/topk"
)

// Common errors.
var (
	// ErrNotBuilt is returned when predicting before Build.
	ErrNotBuilt = errors.New("itemcf: model not built")
	// ErrNoStore is returned when the recommender has no rating store.
	ErrNoStore = errors.New("itemcf: nil rating store")
)

// Recommender is an item-based CF model.
type Recommender struct {
	// Store holds the observed ratings.
	Store *ratings.Store
	// MinOverlap is the minimum number of co-raters for an item-item
	// similarity to be defined (< 2 means 2).
	MinOverlap int
	// ModelK bounds the neighbors kept per item (≤ 0 means 50).
	ModelK int

	mu        sync.RWMutex
	neighbors map[model.ItemID][]model.ScoredItem // sim-desc, ties item-asc
	built     bool

	// What Build keeps so Update can patch the model instead of
	// rebuilding it: the item interning, every rater's mean-centred row,
	// and the pair accumulators. upd serializes Build and Update and
	// guards all of it; readers never touch it.
	upd     sync.Mutex
	itemIdx map[model.ItemID]int32
	itemIDs []model.ItemID
	rows    map[model.UserID]centredRow
	pairs   []map[int32]*pairAcc // pairs[a][b]: a before b in ItemID order
	npairs  int
	epoch   uint64
}

// centredRow is one rater's vector as the accumulation reads it:
// interned item indexes in ascending ItemID order, parallel to the
// ratings centred on the rater's mean.
type centredRow struct {
	items   []int32
	centred []float64
}

func (a centredRow) equal(b centredRow) bool {
	if len(a.items) != len(b.items) {
		return false
	}
	for k := range a.items {
		if a.items[k] != b.items[k] || a.centred[k] != b.centred[k] {
			return false
		}
	}
	return true
}

// pairAcc accumulates the adjusted-cosine terms of one item pair over
// its co-raters.
type pairAcc struct {
	dot     float64
	sqA     float64 // Σ centered² of the first (smaller-ID) item
	sqB     float64 // Σ centered² of the second item
	overlap int
	epoch   uint64 // the Update that last recomputed the pair
}

// similarity is the modeled adjusted cosine of the accumulated pair;
// ok=false when it is undefined or carries no weight.
func (acc *pairAcc) similarity(minOverlap int) (float64, bool) {
	if acc.overlap < minOverlap || acc.sqA == 0 || acc.sqB == 0 {
		return 0, false
	}
	sim := acc.dot / (math.Sqrt(acc.sqA) * math.Sqrt(acc.sqB))
	if sim <= 0 {
		return 0, false // negative/zero item similarity carries no weight here
	}
	if sim > 1 {
		sim = 1
	}
	return sim, true
}

func (r *Recommender) params() (minOverlap, modelK int) {
	minOverlap, modelK = r.MinOverlap, r.ModelK
	if minOverlap < 2 {
		minOverlap = 2
	}
	if modelK <= 0 {
		modelK = 50
	}
	return minOverlap, modelK
}

// intern flattens a snapshot row (ascending items, μ_u bit-identical to
// MeanRating) into the form the accumulation reads, assigning indexes
// to items seen for the first time.
func (r *Recommender) intern(row ratings.Row) centredRow {
	out := centredRow{items: make([]int32, len(row.Items)), centred: make([]float64, len(row.Items))}
	for k, it := range row.Items {
		id, ok := r.itemIdx[it]
		if !ok {
			id = int32(len(r.itemIDs))
			r.itemIdx[it] = id
			r.itemIDs = append(r.itemIDs, it)
		}
		out.items[k] = id
		out.centred[k] = float64(row.Ratings[k]) - row.Mean
	}
	return out
}

// pair returns the accumulator of items a and b (a before b in ItemID
// order — rows are ascending, so a pair is always met that way round),
// creating an empty one when the pair is new.
func (r *Recommender) pair(a, b int32) (acc *pairAcc, had bool) {
	for int(a) >= len(r.pairs) {
		r.pairs = append(r.pairs, nil)
	}
	if acc, had = r.pairs[a][b]; had {
		return acc, true
	}
	if r.pairs[a] == nil {
		r.pairs[a] = make(map[int32]*pairAcc)
	}
	acc = &pairAcc{}
	r.pairs[a][b] = acc
	r.npairs++
	return acc, false
}

// Build computes the item-item neighbor lists from scratch. It may be
// called again after the store changes; Update is the cheaper route
// when the changed users are known.
func (r *Recommender) Build() error {
	if r.Store == nil {
		return ErrNoStore
	}
	r.upd.Lock()
	defer r.upd.Unlock()
	r.build()
	return nil
}

// build is Build under upd. Users are visited in ascending ID order, so
// every pair sums its co-raters' terms in that order — the order Update
// reproduces.
func (r *Recommender) build() {
	sn := r.Store.Snapshot()
	r.itemIdx = make(map[model.ItemID]int32)
	r.itemIDs = nil
	r.rows = make(map[model.UserID]centredRow, sn.NumUsers())
	r.pairs, r.npairs = nil, 0
	for _, u := range sn.Users() {
		row, ok := sn.Row(u)
		if !ok {
			continue
		}
		cr := r.intern(row)
		r.rows[u] = cr
		for a := range cr.items {
			for b := a + 1; b < len(cr.items); b++ {
				acc, _ := r.pair(cr.items[a], cr.items[b])
				acc.dot += cr.centred[a] * cr.centred[b]
				acc.sqA += cr.centred[a] * cr.centred[a]
				acc.sqB += cr.centred[b] * cr.centred[b]
				acc.overlap++
			}
		}
	}
	neighbors := r.selectNeighbors(nil)
	r.mu.Lock()
	r.neighbors, r.built = neighbors, true
	r.mu.Unlock()
}

// selectNeighbors picks the ModelK best neighbors of every item marked
// in only (of every item when only is nil) out of the pair
// accumulators, best first with ties on ascending item ID. Items with
// no positive neighbor get no entry. The order is total, so the map's
// iteration order is immaterial.
func (r *Recommender) selectNeighbors(only []bool) map[model.ItemID][]model.ScoredItem {
	minOverlap, modelK := r.params()
	candidates := make([][]model.ScoredItem, len(r.itemIDs))
	for a, row := range r.pairs {
		inA := only == nil || only[a]
		for b, acc := range row {
			inB := only == nil || only[b]
			if !inA && !inB {
				continue
			}
			sim, ok := acc.similarity(minOverlap)
			if !ok {
				continue
			}
			if inA {
				candidates[a] = append(candidates[a], model.ScoredItem{Item: r.itemIDs[b], Score: sim})
			}
			if inB {
				candidates[b] = append(candidates[b], model.ScoredItem{Item: r.itemIDs[a], Score: sim})
			}
		}
	}
	neighbors := make(map[model.ItemID][]model.ScoredItem)
	for i, ns := range candidates {
		if len(ns) == 0 {
			continue
		}
		model.SortScoredItems(ns)
		if len(ns) > modelK {
			ns = slices.Clone(ns[:modelK])
		}
		neighbors[r.itemIDs[i]] = ns
	}
	return neighbors
}

// Update brings a built model up to date with the rating changes of the
// given users — every user written since the model last read the store
// must be named — and leaves it bit-identical to a fresh Build. (A user
// written while the call runs may be left for the next call; this one
// then takes that user as of before or after the write.) A rating by u
// moves μ_u and with it the centred value of every item u rated, so it
// changes exactly the pairs inside u's item set before or after the
// write. Those pairs are recomputed from scratch over their
// co-raters in ascending user order (Build's order, hence Build's
// floats) in one pass over the raters' rows, and the neighbor lists of
// the items involved are reselected. When the changed pairs are at
// least half of all pairs the pass would redo most of Build's work on
// top of its own bookkeeping, so Build runs instead; it also runs when
// there is no model yet.
func (r *Recommender) Update(users []model.UserID) error {
	if r.Store == nil {
		return ErrNoStore
	}
	r.upd.Lock()
	defer r.upd.Unlock()
	if r.rows == nil {
		r.build()
		return nil
	}
	sn := r.Store.Snapshot()

	// Re-read the written users' rows. Each written user contributes one
	// clique of changed pairs: the union of its item set before and
	// after (a pair straddling the two never had the user as a co-rater;
	// recomputing it is harmless). A clique's items are ascending in
	// ItemID order, like a row's.
	var cliques []clique
	for _, u := range users {
		old := r.rows[u]
		var cur centredRow
		if row, ok := sn.Row(u); ok {
			cur = r.intern(row)
			r.rows[u] = cur
		} else {
			delete(r.rows, u)
		}
		if !old.equal(cur) {
			cliques = append(cliques, clique{items: r.union(old.items, cur.items)})
		}
	}
	if len(cliques) == 0 {
		return nil
	}

	// Zero each changed pair once — a pair in several cliques belongs to
	// the first — and file every clique under each of its items.
	r.epoch++
	memberOf := make([][]member, len(r.itemIDs))
	changed := make([]bool, len(r.itemIDs))
	type zeroed struct {
		a, b int32
		acc  *pairAcc
	}
	var pairs []zeroed
	for ci := range cliques {
		c := &cliques[ci]
		n := len(c.items)
		c.accs = make([]*pairAcc, n*n)
		for a, it := range c.items {
			memberOf[it] = append(memberOf[it], member{ci, a})
			changed[it] = true
			for b := a + 1; b < n; b++ {
				acc, had := r.pair(it, c.items[b])
				if had && acc.epoch == r.epoch {
					continue
				}
				*acc = pairAcc{epoch: r.epoch}
				c.accs[a*n+b] = acc
				pairs = append(pairs, zeroed{it, c.items[b], acc})
			}
		}
		if 2*len(pairs) >= r.npairs {
			r.build()
			return nil
		}
	}

	// One pass over the raters, ascending: deal the row's items to the
	// cliques holding them, then sum every pair the row has inside a
	// clique.
	met := 0
	for _, u := range sn.Users() {
		row, ok := r.rows[u]
		if !ok {
			continue // first rated after users was taken: named next time
		}
		met++
		for k, it := range row.items {
			for _, m := range memberOf[it] {
				c := &cliques[m.clique]
				c.pos = append(c.pos, m.pos)
				c.val = append(c.val, row.centred[k])
			}
		}
		for ci := range cliques {
			c := &cliques[ci]
			n := len(c.items)
			for x, a := range c.pos {
				ca := c.val[x]
				for y := x + 1; y < len(c.pos); y++ {
					acc := c.accs[a*n+c.pos[y]]
					if acc == nil {
						continue
					}
					cb := c.val[y]
					acc.dot += ca * cb
					acc.sqA += ca * ca
					acc.sqB += cb * cb
					acc.overlap++
				}
			}
			c.pos, c.val = c.pos[:0], c.val[:0]
		}
	}
	if met != len(r.rows) {
		// A rater the model still counts left the store after users was
		// taken, so the pass never met it and the recomputed pairs lack
		// its terms while the untouched ones keep them. Rebuild rather
		// than serve pairs summed over two different sets of raters.
		r.build()
		return nil
	}
	for _, p := range pairs {
		if p.acc.overlap == 0 {
			delete(r.pairs[p.a], p.b)
			r.npairs--
		}
	}

	reselected := r.selectNeighbors(changed)
	r.mu.Lock()
	for it, is := range changed {
		if !is {
			continue
		}
		id := r.itemIDs[it]
		if ns, ok := reselected[id]; ok {
			r.neighbors[id] = ns
		} else {
			delete(r.neighbors, id)
		}
	}
	r.mu.Unlock()
	return nil
}

// clique is one written user's item set (before ∪ after, ascending in
// ItemID order) during an Update: every pair inside it is recomputed.
type clique struct {
	items []int32
	// accs[a*len(items)+b], a < b, is the accumulator of the pair at
	// positions (a, b); nil when an earlier clique owns the pair.
	accs []*pairAcc
	// pos/val are the current rater's items inside the clique: their
	// positions (ascending) and centred ratings.
	pos []int
	val []float64
}

// member places an item in a clique.
type member struct{ clique, pos int }

// union merges two rows' item lists, each ascending in ItemID order,
// into one.
func (r *Recommender) union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch ia, ib := r.itemIDs[a[0]], r.itemIDs[b[0]]; {
		case ia < ib:
			out, a = append(out, a[0]), a[1:]
		case ia > ib:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Neighbors returns item i's neighbor list (similarity-descending).
func (r *Recommender) Neighbors(i model.ItemID) ([]model.ScoredItem, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.built {
		return nil, ErrNotBuilt
	}
	return append([]model.ScoredItem(nil), r.neighbors[i]...), nil
}

// ItemSimilarity returns the modeled similarity between two items
// (ok=false when the pair is not in either neighbor list).
func (r *Recommender) ItemSimilarity(a, b model.ItemID) (float64, bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.built {
		return 0, false, ErrNotBuilt
	}
	for _, n := range r.neighbors[a] {
		if n.Item == b {
			return n.Score, true, nil
		}
	}
	for _, n := range r.neighbors[b] {
		if n.Item == a {
			return n.Score, true, nil
		}
	}
	return 0, false, nil
}

// Relevance predicts the rating of item i by user u. ok=false when u
// rated none of i's neighbors.
func (r *Recommender) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.built {
		return 0, false, ErrNotBuilt
	}
	var num, den float64
	for _, n := range r.neighbors[i] {
		if v, ok := r.Store.Rating(u, n.Item); ok {
			num += n.Score * float64(v)
			den += n.Score
		}
	}
	if den == 0 {
		return 0, false, nil
	}
	return num / den, true, nil
}

// AllRelevances predicts the relevance of every item the user has NOT
// rated that is reachable from their rated items through the neighbor
// model, mapping item → score. Accumulation order is deterministic —
// the user's rated items ascending (ItemsRatedBy), each neighbor list
// in its stored order — so scores are bit-reproducible across runs and
// serving paths, matching the reproducibility contract of the user-CF
// path's AllRelevances.
func (r *Recommender) AllRelevances(u model.UserID) (map[model.ItemID]float64, error) {
	r.mu.RLock()
	if !r.built {
		r.mu.RUnlock()
		return nil, ErrNotBuilt
	}
	// Score candidates reachable from the user's rated items. The CSR
	// row is the user's ratings in ascending item order — the same
	// deterministic accumulation order as before — and value-typed
	// accumulators avoid the per-item heap allocation.
	type acc struct{ num, den float64 }
	sn := r.Store.Snapshot()
	row, _ := sn.Row(u)
	accs := make(map[model.ItemID]acc)
	for k, j := range row.Items { // ascending → deterministic
		v := row.Ratings[k]
		for _, n := range r.neighbors[j] {
			a := accs[n.Item]
			a.num += n.Score * float64(v)
			a.den += n.Score
			accs[n.Item] = a
		}
	}
	r.mu.RUnlock()

	out := make(map[model.ItemID]float64, len(accs))
	for i, a := range accs {
		if a.den == 0 {
			continue
		}
		if _, rated := row.Rating(i); rated {
			continue
		}
		out[i] = a.num / a.den
	}
	return out, nil
}

// Recommend returns the user's top-k unrated items.
func (r *Recommender) Recommend(u model.UserID, k int) ([]model.ScoredItem, error) {
	scores, err := r.AllRelevances(u)
	if err != nil {
		return nil, err
	}
	return topk.TopOfMap(scores, k), nil
}

// ModelSize returns (items with neighbors, total neighbor edges) for
// diagnostics.
func (r *Recommender) ModelSize() (items, edges int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.built {
		return 0, 0, ErrNotBuilt
	}
	for _, ns := range r.neighbors {
		edges += len(ns)
	}
	return len(r.neighbors), edges, nil
}

// DumpNeighbors renders the model for debugging, item-ascending.
func (r *Recommender) DumpNeighbors(limit int) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.built {
		return "", ErrNotBuilt
	}
	items := make([]model.ItemID, 0, len(r.neighbors))
	for i := range r.neighbors {
		items = append(items, i)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	out := ""
	for _, i := range items {
		out += fmt.Sprintf("%s:", i)
		for _, n := range r.neighbors[i] {
			out += fmt.Sprintf(" %s=%.3f", n.Item, n.Score)
		}
		out += "\n"
	}
	return out, nil
}
