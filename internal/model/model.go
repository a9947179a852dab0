// Package model defines the small set of domain types shared by every
// layer of the recommender: user and item identifiers, rating values,
// groups, and scored items. Keeping these in one dependency-free
// package lets the substrates (ratings store, similarity functions,
// MapReduce jobs) agree on vocabulary without import cycles.
//
// The types follow §III of Stratigi et al., ICDE 2017: users u ∈ U rate
// items i ∈ I with scores in [1,5]; a group G ⊆ U is an ordered list of
// members a caregiver is responsible for.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// UserID identifies a patient (or any user) in the system.
type UserID string

// ItemID identifies a rateable data item (a document in the paper).
type ItemID string

// Rating is a user-assigned score for an item. Valid ratings lie in
// [MinRating, MaxRating] as in the paper's 1..5 star scale.
type Rating float64

// Rating bounds from §III.A ("a score rating(u,i) in [1,5]").
const (
	MinRating Rating = 1
	MaxRating Rating = 5
)

// ErrRatingOutOfRange is returned when a rating falls outside
// [MinRating, MaxRating].
var ErrRatingOutOfRange = errors.New("model: rating out of range")

// Valid reports whether r lies within the legal rating bounds.
func (r Rating) Valid() bool { return r >= MinRating && r <= MaxRating }

// Validate returns ErrRatingOutOfRange (wrapped with the value) if r is
// outside the legal bounds.
func (r Rating) Validate() error {
	if !r.Valid() {
		return fmt.Errorf("%w: %v not in [%v,%v]", ErrRatingOutOfRange, float64(r), float64(MinRating), float64(MaxRating))
	}
	return nil
}

// Triple is one observed rating event, the unit of input for both the
// in-memory store and the MapReduce pipeline (§IV: "our input consists
// of a set of user rating triples").
type Triple struct {
	User  UserID
	Item  ItemID
	Value Rating
}

// Group is the set of users a caregiver is responsible for (§III.B).
// Order is not semantically meaningful but is preserved for
// deterministic iteration.
type Group []UserID

// Contains reports whether u is a member of g.
func (g Group) Contains(u UserID) bool {
	for _, m := range g {
		if m == u {
			return true
		}
	}
	return false
}

// Dedup returns a copy of g with duplicate members removed, preserving
// first-occurrence order.
func (g Group) Dedup() Group {
	seen := make(map[UserID]struct{}, len(g))
	out := make(Group, 0, len(g))
	for _, m := range g {
		if _, ok := seen[m]; ok {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	return out
}

// Validate returns an error when the group is empty or contains
// duplicate members.
func (g Group) Validate() error {
	if len(g) == 0 {
		return errors.New("model: empty group")
	}
	seen := make(map[UserID]struct{}, len(g))
	for _, m := range g {
		if m == "" {
			return errors.New("model: group contains empty user id")
		}
		if _, ok := seen[m]; ok {
			return fmt.Errorf("model: duplicate group member %q", m)
		}
		seen[m] = struct{}{}
	}
	return nil
}

// ScoredItem pairs an item with a predicted relevance score. Slices of
// ScoredItem are the universal currency of recommendation lists (the
// A_u sets of §III.A and the group lists of §III.B).
type ScoredItem struct {
	Item  ItemID
	Score float64
}

// SortScoredItems orders items by score descending, breaking ties by
// item ID ascending so every list in the system is deterministic.
func SortScoredItems(items []ScoredItem) {
	slices.SortFunc(items, func(a, b ScoredItem) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Item, b.Item)
	})
}

// ItemsOf projects a scored list to bare item IDs, preserving order.
func ItemsOf(items []ScoredItem) []ItemID {
	out := make([]ItemID, len(items))
	for k, s := range items {
		out[k] = s.Item
	}
	return out
}

// ItemSet is a set of item IDs with convenience constructors; used for
// fairness checks (membership of a user's top-k in D).
type ItemSet map[ItemID]struct{}

// NewItemSet builds a set from ids.
func NewItemSet(ids ...ItemID) ItemSet {
	s := make(ItemSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s ItemSet) Add(id ItemID) { s[id] = struct{}{} }

// Has reports membership.
func (s ItemSet) Has(id ItemID) bool {
	_, ok := s[id]
	return ok
}

// Sorted returns the members in ascending order (for stable output).
func (s ItemSet) Sorted() []ItemID {
	out := make([]ItemID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
