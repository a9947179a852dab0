// Package topk provides deterministic top-k selection over scored
// items. §IV of the paper notes that "the final sorting and top-k
// selection of those relevance values is trivial when k elements are
// small enough to fit in memory" and otherwise defers to the top-k
// MapReduce algorithm of Efthymiou et al. [5]; this package implements
// the in-memory half (a bounded min-heap with streaming Push), and
// package mrpipeline builds the MapReduce half on top of it.
//
// Ordering is total and deterministic everywhere: higher score wins,
// ties break on ascending item ID.
package topk

import (
	"container/heap"

	"fairhealth/internal/model"
)

// Less reports whether a ranks strictly better than b under the
// system-wide ordering (score desc, item ID asc).
func Less(a, b model.ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Item < b.Item
}

// entryHeap is a min-heap keyed by the *worst* element so the root is
// the candidate to evict.
type entryHeap []model.ScoredItem

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return Less(h[j], h[i]) } // reversed: worst at root
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(model.ScoredItem)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Selector accumulates a stream of scored items and retains the best
// k. The zero value is unusable; call NewSelector.
type Selector struct {
	k int
	h entryHeap
}

// NewSelector returns a selector retaining the best k items. k ≤ 0
// yields a selector that retains nothing. It preallocates k slots, so
// callers holding the input bound k by its length first.
func NewSelector(k int) *Selector {
	if k < 0 {
		k = 0
	}
	return &Selector{k: k, h: make(entryHeap, 0, k)}
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns the number of currently retained items.
func (s *Selector) Len() int { return len(s.h) }

// Push offers an item to the selector.
func (s *Selector) Push(it model.ScoredItem) {
	if s.k == 0 {
		return
	}
	if len(s.h) < s.k {
		heap.Push(&s.h, it)
		return
	}
	// replace the current worst if the newcomer beats it
	if Less(it, s.h[0]) {
		s.h[0] = it
		heap.Fix(&s.h, 0)
	}
}

// PushAll offers every item in items.
func (s *Selector) PushAll(items []model.ScoredItem) {
	for _, it := range items {
		s.Push(it)
	}
}

// Merge folds another selector's retained items into s.
func (s *Selector) Merge(other *Selector) {
	for _, it := range other.h {
		s.Push(it)
	}
}

// Threshold returns the score of the worst retained item and whether
// the selector is full; items scoring strictly below the threshold
// cannot enter a full selector.
func (s *Selector) Threshold() (float64, bool) {
	if len(s.h) < s.k || s.k == 0 {
		return 0, false
	}
	return s.h[0].Score, true
}

// Result returns the retained items best-first. The selector remains
// usable afterwards.
func (s *Selector) Result() []model.ScoredItem {
	out := append([]model.ScoredItem(nil), s.h...)
	model.SortScoredItems(out)
	return out
}

// Top returns the best k of items without mutating the input.
func Top(items []model.ScoredItem, k int) []model.ScoredItem {
	s := NewSelector(min(k, len(items)))
	s.PushAll(items)
	return s.Result()
}

// TopOfMap ranks a map of item scores and returns the best k.
func TopOfMap(scores map[model.ItemID]float64, k int) []model.ScoredItem {
	s := NewSelector(min(k, len(scores)))
	for it, sc := range scores {
		s.Push(model.ScoredItem{Item: it, Score: sc})
	}
	return s.Result()
}
