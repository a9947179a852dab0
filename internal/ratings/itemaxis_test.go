package ratings

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fairhealth/internal/model"
)

// itemAxisRef is the item axis recomputed from scratch out of
// Triples: the rated items and each item's raters, both ascending, and
// the sparsity.
type itemAxisRef struct {
	items    []model.ItemID
	raters   map[model.ItemID][]model.UserID
	sparsity float64
}

func itemAxisFromTriples(ts []model.Triple) itemAxisRef {
	ref := itemAxisRef{raters: make(map[model.ItemID][]model.UserID)}
	users := make(map[model.UserID]bool)
	for _, t := range ts {
		// Triples run in (user, item) order, so every rater list is
		// appended in ascending user order.
		ref.raters[t.Item] = append(ref.raters[t.Item], t.User)
		users[t.User] = true
	}
	for i := range ref.raters {
		ref.items = append(ref.items, i)
	}
	sort.Slice(ref.items, func(a, b int) bool { return ref.items[a] < ref.items[b] })
	if den := len(users) * len(ref.items); den > 0 {
		ref.sparsity = 1 - float64(len(ts))/float64(den)
	}
	return ref
}

// checkItemAxis compares Items, NumItems, UsersWhoRated (for every
// item in probe, rated or not) and Sparsity against the Triples
// recomputation.
func checkItemAxis(t *testing.T, s *Store, step int, probe []model.ItemID) {
	t.Helper()
	want := itemAxisFromTriples(s.Triples())
	if got := s.Items(); len(got) != len(want.items) || (len(got) > 0 && !reflect.DeepEqual(got, want.items)) {
		t.Fatalf("step %d: Items = %v, want %v", step, got, want.items)
	}
	if got := s.NumItems(); got != len(want.items) {
		t.Fatalf("step %d: NumItems = %d, want %d", step, got, len(want.items))
	}
	for _, i := range probe {
		got, w := s.UsersWhoRated(i), want.raters[i]
		if got == nil || len(got) != len(w) || (len(got) > 0 && !reflect.DeepEqual(got, w)) {
			t.Fatalf("step %d: UsersWhoRated(%s) = %v, want %v", step, i, got, w)
		}
	}
	if got := s.Sparsity(); got != want.sparsity {
		t.Fatalf("step %d: Sparsity = %v, want %v", step, got, want.sparsity)
	}
}

// TestItemAxisMatchesTriples drives a seeded random Add/AddNew/Remove
// sequence and checks the item-axis reads after every step. The
// sequence removes items' last ratings while the snapshot catalogue
// still lists them (the reads must not report them), re-adds such
// items, and introduces new ones.
func TestItemAxisMatchesTriples(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(11))
	item := func(k int) model.ItemID { return model.ItemID(fmt.Sprintf("i%03d", k)) }
	nItems := 8
	var probe []model.ItemID
	for k := 0; k < nItems; k++ {
		probe = append(probe, item(k))
	}
	var gone []model.ItemID
	var stale, readded, added int
	for step := 0; step < 500; step++ {
		u := model.UserID(fmt.Sprintf("u%02d", rng.Intn(12)))
		switch op := rng.Intn(12); {
		case op == 0: // a brand-new item
			i := item(nItems)
			nItems++
			probe = append(probe, i)
			if err := s.Add(u, i, 4); err != nil {
				t.Fatal(err)
			}
			added++
		case op == 1: // every rating of one item goes
			i := item(rng.Intn(nItems))
			for _, v := range s.UsersWhoRated(i) {
				if err := s.Remove(v, i); err != nil {
					t.Fatal(err)
				}
			}
			gone = append(gone, i)
			cat := s.Snapshot().Items()
			if k := sort.Search(len(cat), func(j int) bool { return cat[j] >= i }); k < len(cat) && cat[k] == i {
				stale++
			}
		case op == 2 && len(gone) > 0: // a gone item comes back
			i := gone[rng.Intn(len(gone))]
			if len(s.UsersWhoRated(i)) == 0 {
				readded++
			}
			if err := s.Add(u, i, model.Rating(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		case op < 6:
			err := s.Remove(u, item(rng.Intn(nItems)))
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		case op < 8:
			err := s.AddNew(u, item(rng.Intn(nItems)), model.Rating(1+rng.Intn(5)))
			if err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		default: // add or change
			if err := s.Add(u, item(rng.Intn(nItems)), model.Rating(1+4*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		checkItemAxis(t, s, step, probe)
	}
	if stale == 0 || readded == 0 || added == 0 {
		t.Fatalf("sequence missed a case: %d stale-catalogue removals, %d re-adds, %d new items", stale, readded, added)
	}
}

// TestItemAxisConcurrentWriters races writers on overlapping (user,
// item) pairs against item-axis readers (run under -race in CI) and
// checks the reads once the writers have stopped.
func TestItemAxisConcurrentWriters(t *testing.T) {
	s := New()
	const writers, perWriter, users, items = 4, 150, 5, 6
	var probe []model.ItemID
	for k := 0; k < items; k++ {
		probe = append(probe, model.ItemID(fmt.Sprintf("i%d", k)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a reader keeps the snapshot and its columns churning
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Items()
			s.NumItems()
			s.UsersWhoRated(probe[0])
			s.Sparsity()
		}
	}()
	var writes sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < perWriter; n++ {
				u := model.UserID(fmt.Sprintf("u%d", rng.Intn(users)))
				i := probe[rng.Intn(items)]
				var err error
				switch rng.Intn(3) {
				case 0:
					err = s.Add(u, i, model.Rating(1+rng.Intn(5)))
				case 1:
					if err = s.AddNew(u, i, model.Rating(1+rng.Intn(5))); errors.Is(err, ErrDuplicate) {
						err = nil
					}
				default:
					if err = s.Remove(u, i); errors.Is(err, ErrNotFound) {
						err = nil
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writes.Wait()
	close(stop)
	wg.Wait()
	checkItemAxis(t, s, writers*perWriter, probe)
}
