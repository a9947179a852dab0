// Package core implements the paper's primary contribution (§III.C–D):
// fairness-aware selection of the top-z group recommendations.
//
// Given a group G, each member's personal top-k list A_u, and the group
// relevance relevanceG(G,i) of every candidate item, the goal is the
// set D* of z items maximizing
//
//	value(G,D) = fairness(G,D) · Σ_{i∈D} relevanceG(G,i)
//
// where fairness(G,D) = |G_D|/|G| and D is fair to u when it contains
// at least one item of A_u (Def. 3).
//
// Two solvers are provided: the exponential brute force that scores
// all C(m,z) candidate subsets, and the paper's Algorithm 1 — a greedy
// heuristic that repeatedly picks, for every ordered pair of members
// (u_x, u_y), the item of A_{u_y} with the maximum individual
// relevance for u_x. Proposition 1 (z ≥ |G| ⇒ fairness = 1) is
// verified by this package's tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sync"

	"fairhealth/internal/model"
	"fairhealth/internal/topk"
)

// Common errors.
var (
	// ErrEmptyGroup is returned when the problem has no group members.
	ErrEmptyGroup = errors.New("core: empty group")
	// ErrBadZ is returned when z < 1.
	ErrBadZ = errors.New("core: z must be ≥ 1")
	// ErrTooManyCombinations guards the brute force against infeasible
	// C(m,z) enumerations.
	ErrTooManyCombinations = errors.New("core: combination count exceeds limit")
)

// UserLists holds each member's personal top-k list A_u (§III.A).
type UserLists map[model.UserID][]model.ScoredItem

// RelevanceFn returns the individual predicted relevance of item i for
// user u; ok=false when undefined. Algorithm 1 consults it when
// scanning another member's list.
type RelevanceFn func(u model.UserID, i model.ItemID) (float64, bool)

// Input bundles everything both solvers need.
type Input struct {
	// Group is the caregiver's patient group G.
	Group model.Group
	// Lists maps each member to A_u. Items outside these lists never
	// make a set "fair" for the member (Def. 3).
	Lists UserLists
	// GroupRel maps every candidate item to relevanceG(G,i) (Def. 2).
	// The brute force enumerates subsets of exactly this key set; the
	// greedy uses it to score its output.
	GroupRel map[model.ItemID]float64
	// Rel is the individual relevance estimate used by Algorithm 1's
	// inner selection. Items with undefined relevance rank below all
	// defined ones (ties still break on ascending item ID).
	Rel RelevanceFn
}

func (in *Input) validate(z int) error {
	if len(in.Group) == 0 {
		return ErrEmptyGroup
	}
	if z < 1 {
		return fmt.Errorf("%w: got %d", ErrBadZ, z)
	}
	return nil
}

// resultCap bounds a greedy result buffer by what the lists can fill,
// so a z far beyond the candidates allocates no more than they hold.
func (in *Input) resultCap(z int) int {
	n := 0
	for _, u := range in.Group {
		n += len(in.Lists[u])
	}
	return min(z, n)
}

// Result describes a selected recommendation set with its quality
// measures.
type Result struct {
	// Items in selection order (greedy) or value-optimal order (brute
	// force, sorted by group relevance descending).
	Items []model.ItemID
	// Fairness is |G_D| / |G| (Def. 3).
	Fairness float64
	// SumRelevance is Σ_{i∈D} relevanceG(G,i); items missing from
	// GroupRel contribute 0.
	SumRelevance float64
	// Value = Fairness · SumRelevance.
	Value float64
	// Combinations is the number of candidate subsets the brute force
	// scored (0 for the greedy).
	Combinations int64
}

// Fairness evaluates Def. 3 directly: the fraction of group members u
// for which D contains at least one item of A_u. An empty group yields
// 0.
func Fairness(g model.Group, lists UserLists, d []model.ItemID) float64 {
	if len(g) == 0 {
		return 0
	}
	dset := model.NewItemSet(d...)
	satisfied := 0
	for _, u := range g {
		for _, it := range lists[u] {
			if dset.Has(it.Item) {
				satisfied++
				break
			}
		}
	}
	return float64(satisfied) / float64(len(g))
}

// Evaluate scores an arbitrary selection D under the input's group
// relevance and fairness measures.
func Evaluate(in Input, d []model.ItemID) Result {
	f := Fairness(in.Group, in.Lists, d)
	var sum float64
	for _, i := range d {
		sum += in.GroupRel[i]
	}
	return Result{
		Items:        append([]model.ItemID(nil), d...),
		Fairness:     f,
		SumRelevance: sum,
		Value:        f * sum,
	}
}

// ---------------------------------------------------------------------------
// Algorithm 1 — the greedy heuristic

// Greedy implements Algorithm 1. Until |D| = z (or candidates are
// exhausted), it sweeps all ordered member pairs (u_x, u_y), x ≠ y,
// and for each adds the item of A_{u_y} not yet in D with the maximum
// relevance(u_x, ·).
//
// Two pragmatic clarifications of the pseudocode: items already in D
// are skipped so every iteration makes progress (the paper's D = D ∪ i
// silently deduplicates), and a singleton group — for which the x ≠ y
// loops never execute — degenerates to taking the member's own list in
// order, which trivially satisfies Def. 3 for that member.
func Greedy(in Input, z int) (Result, error) {
	return GreedyContext(context.Background(), in, z)
}

// GreedyContext is Greedy with cooperative cancellation: the sweep
// checks ctx between member-pair selections and returns ctx.Err() when
// it fires — the hook the batch group API uses to abandon mid-flight
// work. A nil ctx behaves like context.Background().
//
// Implementation: instead of rescanning every list per round (the
// O(z·n²·L) shape of the pseudocode), each ordered pair (x, y)
// pre-sorts A_{u_y} by x's relevance ONCE — defined before undefined,
// relevance descending, ties ascending item ID, the exact bestFor
// order — and each round pops the first entry not yet in D through a
// monotone cursor: amortized O(n²·L log L + z·n²). The per-pair sorted
// lists live in a pooled scratch arena reused across calls, so batch
// serving does not reallocate them per group. Selections are
// provably identical to the rescan reference (GreedyReference), which
// the equivalence tests pin.
func GreedyContext(ctx context.Context, in Input, z int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.validate(z); err != nil {
		return Result{}, err
	}
	n := len(in.Group)
	c := in.resultCap(z)
	d := make([]model.ItemID, 0, c)
	inD := make(model.ItemSet, c)

	if n == 1 {
		for _, it := range in.Lists[in.Group[0]] {
			if len(d) >= z {
				break
			}
			if !inD.Has(it.Item) {
				d = append(d, it.Item)
				inD.Add(it.Item)
			}
		}
		return Evaluate(in, d), nil
	}

	sc := greedyPool.Get().(*greedyScratch)
	defer sc.release()

	// Size the entry arena up front: carving segments out of one
	// preallocated slice keeps them valid (no reallocation mid-build).
	total := 0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y {
				total += len(in.Lists[in.Group[y]])
			}
		}
	}
	if cap(sc.entries) < total {
		sc.entries = make([]rankedEntry, 0, total)
	}

	// Build the per-pair ranked lists in sweep order.
	for x := 0; x < n; x++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		ux := in.Group[x]
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			start := len(sc.entries)
			for _, it := range in.Lists[in.Group[y]] {
				rel, def := 0.0, false
				if in.Rel != nil {
					rel, def = in.Rel(ux, it.Item)
				}
				sc.entries = append(sc.entries, rankedEntry{item: it.Item, rel: rel, def: def})
			}
			seg := sc.entries[start:len(sc.entries)]
			sortRanked(seg)
			sc.pairs = append(sc.pairs, pairCursor{entries: seg})
		}
	}

	for len(d) < z {
		added := false
		for p := range sc.pairs {
			if len(d) >= z {
				break
			}
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			c := &sc.pairs[p]
			for c.pos < len(c.entries) && inD.Has(c.entries[c.pos].item) {
				c.pos++
			}
			if c.pos < len(c.entries) {
				d = append(d, c.entries[c.pos].item)
				inD.Add(c.entries[c.pos].item)
				c.pos++
				added = true
			}
		}
		if !added {
			break // every list exhausted; |D| < z is the best we can do
		}
	}
	return Evaluate(in, d), nil
}

// rankedEntry is one candidate of a pair's pre-sorted list.
type rankedEntry struct {
	item model.ItemID
	rel  float64
	def  bool
}

// pairCursor walks one (x, y) ranked list; pos only advances (items
// enter D and never leave, so skipped entries stay skippable).
type pairCursor struct {
	entries []rankedEntry
	pos     int
}

// greedyScratch holds the pooled per-call buffers: the pair cursors and
// the entry arena their lists are carved from.
type greedyScratch struct {
	pairs   []pairCursor
	entries []rankedEntry
}

func (sc *greedyScratch) release() {
	sc.pairs = sc.pairs[:0]
	sc.entries = sc.entries[:0]
	greedyPool.Put(sc)
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// rankedBefore is bestFor's preference order as a comparator: defined
// relevance beats undefined, then relevance descending, then item ID
// ascending. Relevances are finite (Eq. 1 outputs are ratios of
// bounded sums), so the order is total.
func rankedBefore(a, b rankedEntry) bool {
	if a.def != b.def {
		return a.def
	}
	if a.rel != b.rel {
		return a.rel > b.rel
	}
	return a.item < b.item
}

// sortRanked is an in-place insertion sort by rankedBefore — stable,
// allocation-free, and fast for the top-k-sized lists it sees.
func sortRanked(s []rankedEntry) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && rankedBefore(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GreedyReference is the retained per-round rescan implementation of
// Algorithm 1 — bestFor re-evaluated over every list each round. It is
// the equivalence oracle (and benchmark baseline) for the rank-order
// Greedy; serving paths should use Greedy/GreedyContext.
func GreedyReference(in Input, z int) (Result, error) {
	if err := in.validate(z); err != nil {
		return Result{}, err
	}
	n := len(in.Group)
	c := in.resultCap(z)
	d := make([]model.ItemID, 0, c)
	inD := make(model.ItemSet, c)

	add := func(i model.ItemID) {
		d = append(d, i)
		inD.Add(i)
	}

	if n == 1 {
		for _, it := range in.Lists[in.Group[0]] {
			if len(d) >= z {
				break
			}
			if !inD.Has(it.Item) {
				add(it.Item)
			}
		}
		return Evaluate(in, d), nil
	}

	for len(d) < z {
		added := false
		for x := 0; x < n && len(d) < z; x++ {
			for y := 0; y < n && len(d) < z; y++ {
				if x == y {
					continue
				}
				best, ok := bestFor(in, in.Group[x], in.Lists[in.Group[y]], inD)
				if ok {
					add(best)
					added = true
				}
			}
		}
		if !added {
			break // every list exhausted; |D| < z is the best we can do
		}
	}
	return Evaluate(in, d), nil
}

// bestFor returns the item of list (excluding members of skip) with
// the maximum relevance for user x. Undefined relevances rank below
// every defined one; ties break on ascending item ID so the algorithm
// is deterministic.
func bestFor(in Input, x model.UserID, list []model.ScoredItem, skip model.ItemSet) (model.ItemID, bool) {
	var (
		bestItem model.ItemID
		bestRel  float64
		bestDef  bool
		found    bool
	)
	for _, it := range list {
		if skip.Has(it.Item) {
			continue
		}
		rel, def := 0.0, false
		if in.Rel != nil {
			rel, def = in.Rel(x, it.Item)
		}
		if !found {
			bestItem, bestRel, bestDef, found = it.Item, rel, def, true
			continue
		}
		switch {
		case def && !bestDef:
			bestItem, bestRel, bestDef = it.Item, rel, true
		case def == bestDef && (rel > bestRel || (rel == bestRel && it.Item < bestItem)):
			bestItem, bestRel = it.Item, rel
		}
	}
	return bestItem, found
}

// ---------------------------------------------------------------------------
// Brute force — the exponential baseline of §III.D

// DefaultMaxCombinations bounds BruteForce enumerations; Table II's
// largest point, C(30,16) ≈ 1.45·10⁸, fits comfortably.
const DefaultMaxCombinations = int64(2_000_000_000)

// BruteForce returns the value-maximal z-subset of the candidate items
// (the keys of in.GroupRel, m = |GroupRel|) — the exact optimum the
// naive C(m,z) enumeration finds, with the identical tie-break: among
// equal-value subsets, the lexicographically smallest item-index list
// over the relevance-sorted candidate order.
//
// Implementation: a depth-first walk of the lexicographic combination
// tree with incremental delta evaluation (each node extends the running
// score sum and coverage bitset union by one candidate, so the per-leaf
// cost is O(1) instead of O(z)) and branch-and-bound pruning. The bound
// is optimistic on both factors: the remaining r slots take the r
// highest-scored candidates of the tail (candidates are sorted score-
// descending, so that is a prefix sum), and coverage takes the union of
// everything the tail could add. A subtree is pruned only when this
// bound — inflated by an epsilon absorbing float accumulation error —
// is strictly below the incumbent, so the argmax and its first-found
// (lexicographic) tie-break are provably unchanged from the reference.
// Result.Combinations reports the subsets actually scored, which
// pruning makes ≤ C(m,z).
//
// maxCombos ≤ 0 applies DefaultMaxCombinations; the C(m,z) feasibility
// gate is checked up front, before any enumeration, exactly as the
// naive reference does.
func BruteForce(in Input, z int, maxCombos int64) (Result, error) {
	if err := in.validate(z); err != nil {
		return Result{}, err
	}
	if maxCombos <= 0 {
		maxCombos = DefaultMaxCombinations
	}

	// Deterministic candidate order: group relevance desc, item asc.
	cands := make([]model.ScoredItem, 0, len(in.GroupRel))
	for i, s := range in.GroupRel {
		cands = append(cands, model.ScoredItem{Item: i, Score: s})
	}
	model.SortScoredItems(cands)

	m := len(cands)
	if m == 0 {
		return Result{Items: []model.ItemID{}}, nil
	}
	if z >= m {
		// Only one subset exists: take everything.
		all := model.ItemsOf(cands)
		res := Evaluate(in, all)
		res.Combinations = 1
		return res, nil
	}
	total := CountCombinations(m, z)
	if total < 0 || total > maxCombos {
		return Result{}, fmt.Errorf("%w: C(%d,%d) with limit %d", ErrTooManyCombinations, m, z, maxCombos)
	}

	covers, scores, words := coverageBitsets(in, cands)
	groupSize := float64(len(in.Group))

	// cum[i] = scores[0]+…+scores[i-1]: with candidates score-descending,
	// cum[a+r]-cum[a] is the best possible sum of r picks from the tail
	// starting at a — the score half of the optimistic bound.
	cum := make([]float64, m+1)
	var absScores float64
	for c, s := range scores {
		cum[c+1] = cum[c] + s
		absScores += math.Abs(s)
	}
	// suffixCover[i] = union of covers[i..m-1]: everything the tail from
	// i could still satisfy — the fairness half of the bound.
	suffixCover := make([][]uint64, m+1)
	suffixCover[m] = make([]uint64, words)
	for i := m - 1; i >= 0; i-- {
		sc := make([]uint64, words)
		copy(sc, suffixCover[i+1])
		if cov := covers[i]; cov != nil {
			for w := range cov {
				sc[w] |= cov[w]
			}
		}
		suffixCover[i] = sc
	}
	// slack inflates the bound past any float accumulation error (the
	// prefix-sum difference vs the leaf's left-to-right sum), so pruning
	// can never discard a subtree holding a strictly better leaf. It is
	// orders of magnitude above the worst-case error and orders below
	// any meaningful value difference.
	slack := 1e-9 * (1 + absScores)

	sumStack := make([]float64, z+1)
	satStack := make([]int, z+1)
	unionStack := make([][]uint64, z+1)
	for k := range unionStack {
		unionStack[k] = make([]uint64, words)
	}
	chosen := make([]int, 0, z)
	best := make([]int, 0, z)
	bestValue := math.Inf(-1)
	var bestFair, bestSum float64
	var combos int64

	var dfs func(start, depth int)
	dfs = func(start, depth int) {
		r := z - depth
		for idx := start; idx <= m-r; idx++ {
			// Delta-extend the running prefix by candidate idx. The sum
			// accumulates left to right exactly like the reference's
			// per-leaf loop, so leaf values are bit-identical.
			sum := sumStack[depth] + scores[idx]
			child := unionStack[depth+1]
			copy(child, unionStack[depth])
			sat := satStack[depth]
			if cov := covers[idx]; cov != nil {
				sat = 0
				for w := range child {
					child[w] |= cov[w]
					sat += bits.OnesCount64(child[w])
				}
			}
			if r == 1 {
				combos++
				fair := float64(sat) / groupSize
				if v := fair * sum; v > bestValue {
					bestValue, bestFair, bestSum = v, fair, sum
					best = append(best[:0], chosen...)
					best = append(best, idx)
				}
				continue
			}
			// Optimistic bound over the subtree below idx: r-1 more picks
			// from idx+1…. fairness·sum is maximized by pairing the max
			// of each factor when the sum can be non-negative; when even
			// the max sum is negative, higher fairness only hurts, so the
			// current (minimum possible) fairness bounds it.
			maxSum := sum + (cum[idx+r] - cum[idx+1])
			var ub float64
			if maxSum >= 0 {
				satMax := unionCount(child, suffixCover[idx+1])
				ub = float64(satMax) / groupSize * maxSum
			} else {
				ub = float64(sat) / groupSize * maxSum
			}
			if ub+slack < bestValue {
				continue // provably nothing below beats the incumbent
			}
			sumStack[depth+1], satStack[depth+1] = sum, sat
			chosen = append(chosen, idx)
			dfs(idx+1, depth+1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(0, 0)

	items := make([]model.ItemID, z)
	for k, c := range best {
		items[k] = cands[c].Item
	}
	return Result{
		Items:        items,
		Fairness:     bestFair,
		SumRelevance: bestSum,
		Value:        bestValue,
		Combinations: combos,
	}, nil
}

// coverageBitsets precomputes, over the sorted candidate order, each
// candidate's group-relevance score and the bitset of members whose
// A_u contains it (nil when it covers nobody).
func coverageBitsets(in Input, cands []model.ScoredItem) (covers [][]uint64, scores []float64, words int) {
	m := len(cands)
	words = (len(in.Group) + 63) / 64
	covers = make([][]uint64, m)
	scores = make([]float64, m)
	memberOf := make(map[model.ItemID][]uint64, m)
	for k, u := range in.Group {
		for _, it := range in.Lists[u] {
			bs, ok := memberOf[it.Item]
			if !ok {
				bs = make([]uint64, words)
				memberOf[it.Item] = bs
			}
			bs[k/64] |= 1 << (k % 64)
		}
	}
	for c, it := range cands {
		scores[c] = it.Score
		covers[c] = memberOf[it.Item] // may be nil: covers nobody
	}
	return covers, scores, words
}

// unionCount returns the popcount of a ∪ b (equal-length words).
func unionCount(a, b []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] | b[w])
	}
	return n
}

// BruteForceReference is the retained naive enumeration: every C(m,z)
// subset scored from scratch in lexicographic index order. It is the
// equivalence oracle (and benchmark baseline) for the branch-and-bound
// BruteForce; serving paths should use BruteForce.
func BruteForceReference(in Input, z int, maxCombos int64) (Result, error) {
	if err := in.validate(z); err != nil {
		return Result{}, err
	}
	if maxCombos <= 0 {
		maxCombos = DefaultMaxCombinations
	}

	// Deterministic candidate order: group relevance desc, item asc.
	cands := make([]model.ScoredItem, 0, len(in.GroupRel))
	for i, s := range in.GroupRel {
		cands = append(cands, model.ScoredItem{Item: i, Score: s})
	}
	model.SortScoredItems(cands)

	m := len(cands)
	if m == 0 {
		return Result{Items: []model.ItemID{}}, nil
	}
	if z >= m {
		// Only one subset exists: take everything.
		all := model.ItemsOf(cands)
		res := Evaluate(in, all)
		res.Combinations = 1
		return res, nil
	}
	total := CountCombinations(m, z)
	if total < 0 || total > maxCombos {
		return Result{}, fmt.Errorf("%w: C(%d,%d) with limit %d", ErrTooManyCombinations, m, z, maxCombos)
	}

	covers, scores, words := coverageBitsets(in, cands)
	groupSize := float64(len(in.Group))
	union := make([]uint64, words)

	evaluate := func(idx []int) (value float64, fair float64, sum float64) {
		for w := range union {
			union[w] = 0
		}
		sum = 0
		for _, c := range idx {
			sum += scores[c]
			if cov := covers[c]; cov != nil {
				for w := range cov {
					union[w] |= cov[w]
				}
			}
		}
		sat := 0
		for _, w := range union {
			sat += bits.OnesCount64(w)
		}
		fair = float64(sat) / groupSize
		return fair * sum, fair, sum
	}

	// Standard combination enumeration in lexicographic index order.
	idx := make([]int, z)
	for k := range idx {
		idx[k] = k
	}
	best := make([]int, z)
	bestValue := math.Inf(-1)
	var bestFair, bestSum float64
	var combos int64
	for {
		combos++
		v, f, s := evaluate(idx)
		if v > bestValue {
			bestValue, bestFair, bestSum = v, f, s
			copy(best, idx)
		}
		// advance
		k := z - 1
		for k >= 0 && idx[k] == m-z+k {
			k--
		}
		if k < 0 {
			break
		}
		idx[k]++
		for j := k + 1; j < z; j++ {
			idx[j] = idx[j-1] + 1
		}
	}

	items := make([]model.ItemID, z)
	for k, c := range best {
		items[k] = cands[c].Item
	}
	return Result{
		Items:        items,
		Fairness:     bestFair,
		SumRelevance: bestSum,
		Value:        bestValue,
		Combinations: combos,
	}, nil
}

// CountCombinations returns C(m,z), or -1 when it exceeds int64.
func CountCombinations(m, z int) int64 {
	if z < 0 || z > m {
		return 0
	}
	r := new(big.Int).Binomial(int64(m), int64(z))
	if !r.IsInt64() {
		return -1
	}
	return r.Int64()
}

// ---------------------------------------------------------------------------
// Candidate pool helpers

// TopCandidates restricts a full group-relevance map to the m best
// items — the candidate pool "m" of the paper's evaluation (§VI) —
// returning a new map suitable for Input.GroupRel.
func TopCandidates(groupRel map[model.ItemID]float64, m int) map[model.ItemID]float64 {
	top := topk.TopOfMap(groupRel, m)
	out := make(map[model.ItemID]float64, len(top))
	for _, it := range top {
		out[it.Item] = it.Score
	}
	return out
}

// SortedItems returns the input's candidate items by group relevance
// descending (ties on ID), useful for deterministic reporting.
func SortedItems(groupRel map[model.ItemID]float64) []model.ScoredItem {
	out := make([]model.ScoredItem, 0, len(groupRel))
	for i, s := range groupRel {
		out = append(out, model.ScoredItem{Item: i, Score: s})
	}
	model.SortScoredItems(out)
	return out
}

// ListsFromRelevances builds each member's A_u (top-k) from per-member
// relevance maps — glue between package group's Candidates output and
// this package.
func ListsFromRelevances(perUser map[model.UserID]map[model.ItemID]float64, k int) UserLists {
	lists := make(UserLists, len(perUser))
	for u, scores := range perUser {
		lists[u] = topk.TopOfMap(scores, k)
	}
	return lists
}

// Verify that Result is internally consistent (used by tests and the
// eval harness as a sanity check).
func (r Result) Verify() error {
	if math.Abs(r.Value-r.Fairness*r.SumRelevance) > 1e-9 {
		return fmt.Errorf("core: value %v != fairness %v × sum %v", r.Value, r.Fairness, r.SumRelevance)
	}
	if r.Fairness < -1e-12 || r.Fairness > 1+1e-12 {
		return fmt.Errorf("core: fairness %v outside [0,1]", r.Fairness)
	}
	seen := make(model.ItemSet, len(r.Items))
	for _, i := range r.Items {
		if seen.Has(i) {
			return fmt.Errorf("core: duplicate item %s in result", i)
		}
		seen.Add(i)
	}
	return nil
}
