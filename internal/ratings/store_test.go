package ratings

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fairhealth/internal/model"
)

func mustAdd(t *testing.T, s *Store, u model.UserID, i model.ItemID, r model.Rating) {
	t.Helper()
	if err := s.Add(u, i, r); err != nil {
		t.Fatalf("Add(%s,%s,%v): %v", u, i, float64(r), err)
	}
}

func TestAddAndLookup(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 4)
	mustAdd(t, s, "u1", "d2", 2)
	mustAdd(t, s, "u2", "d1", 5)

	if got, ok := s.Rating("u1", "d1"); !ok || got != 4 {
		t.Errorf("Rating(u1,d1) = %v,%v want 4,true", got, ok)
	}
	if _, ok := s.Rating("u1", "d9"); ok {
		t.Error("Rating(u1,d9) found, want miss")
	}
	if !s.HasRated("u2", "d1") || s.HasRated("u2", "d2") {
		t.Error("HasRated wrong")
	}
	if s.Len() != 3 || s.NumUsers() != 2 || s.NumItems() != 2 {
		t.Errorf("Len/NumUsers/NumItems = %d/%d/%d, want 3/2/2", s.Len(), s.NumUsers(), s.NumItems())
	}
}

func TestAddOverwrites(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 2)
	mustAdd(t, s, "u1", "d1", 5)
	if got, _ := s.Rating("u1", "d1"); got != 5 {
		t.Errorf("after overwrite rating = %v, want 5", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (overwrite must not double count)", s.Len())
	}
}

func TestAddValidation(t *testing.T) {
	s := New()
	if err := s.Add("", "d1", 3); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty user: %v, want ErrEmptyID", err)
	}
	if err := s.Add("u1", "", 3); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty item: %v, want ErrEmptyID", err)
	}
	if err := s.Add("u1", "d1", 0.5); !errors.Is(err, model.ErrRatingOutOfRange) {
		t.Errorf("low rating: %v, want ErrRatingOutOfRange", err)
	}
	if err := s.Add("u1", "d1", 5.5); !errors.Is(err, model.ErrRatingOutOfRange) {
		t.Errorf("high rating: %v, want ErrRatingOutOfRange", err)
	}
}

func TestAddNew(t *testing.T) {
	s := New()
	if err := s.AddNew("u1", "d1", 3); err != nil {
		t.Fatalf("AddNew first: %v", err)
	}
	if err := s.AddNew("u1", "d1", 4); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("AddNew dup: %v, want ErrDuplicate", err)
	}
	if got, _ := s.Rating("u1", "d1"); got != 3 {
		t.Errorf("duplicate AddNew must not overwrite; rating = %v", got)
	}
}

func TestRemove(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 3)
	mustAdd(t, s, "u1", "d2", 4)
	if err := s.Remove("u1", "d1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.HasRated("u1", "d1") {
		t.Error("rating still present after Remove")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if err := s.Remove("u1", "d1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove: %v, want ErrNotFound", err)
	}
	if err := s.Remove("zz", "d1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove unknown user: %v, want ErrNotFound", err)
	}
	// removing the last rating of an item drops the item
	if err := s.Remove("u1", "d2"); err != nil {
		t.Fatalf("Remove d2: %v", err)
	}
	if s.NumItems() != 0 || s.NumUsers() != 0 {
		t.Errorf("empty store still reports users/items: %d/%d", s.NumUsers(), s.NumItems())
	}
}

func TestIndexesMirrorEachOther(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 1)
	mustAdd(t, s, "u2", "d1", 2)
	mustAdd(t, s, "u1", "d2", 3)

	items := s.ItemsRatedBy("u1")
	if len(items) != 2 || items[0] != "d1" || items[1] != "d2" {
		t.Errorf("ItemsRatedBy(u1) = %v", items)
	}
	users := s.UsersWhoRated("d1")
	if len(users) != 2 || users[0] != "u1" || users[1] != "u2" {
		t.Errorf("UsersWhoRated(d1) = %v", users)
	}
	if got := s.NumRatedBy("u1"); got != 2 {
		t.Errorf("NumRatedBy(u1) = %d, want 2", got)
	}
}

func TestMeanRating(t *testing.T) {
	s := New()
	if _, ok := s.MeanRating("u1"); ok {
		t.Fatal("mean of unknown user should be ok=false")
	}
	mustAdd(t, s, "u1", "d1", 2)
	mustAdd(t, s, "u1", "d2", 4)
	m, ok := s.MeanRating("u1")
	if !ok || m != 3 {
		t.Fatalf("mean = %v,%v want 3,true", m, ok)
	}
	// cache must invalidate on write
	mustAdd(t, s, "u1", "d3", 3)
	m, _ = s.MeanRating("u1")
	if m != 3 {
		t.Fatalf("mean after add = %v, want 3", m)
	}
	mustAdd(t, s, "u1", "d4", 5)
	m, _ = s.MeanRating("u1")
	if math.Abs(m-3.5) > 1e-12 {
		t.Fatalf("mean after second add = %v, want 3.5", m)
	}
	// and on remove
	if err := s.Remove("u1", "d4"); err != nil {
		t.Fatal(err)
	}
	m, _ = s.MeanRating("u1")
	if m != 3 {
		t.Fatalf("mean after remove = %v, want 3", m)
	}
}

func TestCoRated(t *testing.T) {
	s := New()
	mustAdd(t, s, "a", "d1", 1)
	mustAdd(t, s, "a", "d2", 2)
	mustAdd(t, s, "a", "d3", 3)
	mustAdd(t, s, "b", "d2", 4)
	mustAdd(t, s, "b", "d3", 5)
	mustAdd(t, s, "b", "d4", 1)

	got := s.CoRated("a", "b")
	if len(got) != 2 || got[0] != "d2" || got[1] != "d3" {
		t.Errorf("CoRated = %v, want [d2 d3]", got)
	}
	// symmetric
	rev := s.CoRated("b", "a")
	if len(rev) != len(got) {
		t.Errorf("CoRated not symmetric: %v vs %v", got, rev)
	}
	if co := s.CoRated("a", "zz"); len(co) != 0 {
		t.Errorf("CoRated with unknown = %v, want empty", co)
	}
}

func TestTriplesDeterministicOrder(t *testing.T) {
	s := New()
	mustAdd(t, s, "u2", "d1", 1)
	mustAdd(t, s, "u1", "d2", 2)
	mustAdd(t, s, "u1", "d1", 3)
	ts := s.Triples()
	want := []model.Triple{
		{User: "u1", Item: "d1", Value: 3},
		{User: "u1", Item: "d2", Value: 2},
		{User: "u2", Item: "d1", Value: 1},
	}
	if len(ts) != len(want) {
		t.Fatalf("Triples len = %d want %d", len(ts), len(want))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("Triples[%d] = %+v, want %+v", i, ts[i], want[i])
		}
	}
}

func TestFromTriples(t *testing.T) {
	s, err := FromTriples([]model.Triple{
		{User: "u1", Item: "d1", Value: 3},
		{User: "u1", Item: "d1", Value: 5}, // upsert
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rating("u1", "d1"); got != 5 {
		t.Errorf("rating = %v, want 5", got)
	}
	if _, err := FromTriples([]model.Triple{{User: "u1", Item: "d1", Value: 9}}); err == nil {
		t.Error("out-of-range triple accepted")
	}
}

func TestVisitors(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 1)
	mustAdd(t, s, "u1", "d2", 2)
	mustAdd(t, s, "u2", "d1", 3)

	n := 0
	s.VisitUserRatings("u1", func(model.ItemID, model.Rating) bool { n++; return true })
	if n != 2 {
		t.Errorf("VisitUserRatings visited %d, want 2", n)
	}
	n = 0
	s.VisitUserRatings("u1", func(model.ItemID, model.Rating) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop visit visited %d, want 1", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 2)
	c := s.Clone()
	mustAdd(t, c, "u1", "d1", 5)
	if got, _ := s.Rating("u1", "d1"); got != 2 {
		t.Errorf("mutating clone changed original: %v", got)
	}
	if got, _ := c.Rating("u1", "d1"); got != 5 {
		t.Errorf("clone rating = %v, want 5", got)
	}
}

func TestSparsity(t *testing.T) {
	s := New()
	if got := s.Sparsity(); got != 0 {
		t.Errorf("empty sparsity = %v, want 0", got)
	}
	mustAdd(t, s, "u1", "d1", 1)
	mustAdd(t, s, "u2", "d2", 1)
	// 2 ratings of 4 possible cells
	if got := s.Sparsity(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sparsity = %v, want 0.5", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := New()
	mustAdd(t, s, "u1", "d1", 3.5)
	mustAdd(t, s, "u2", "d2", 1)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip len = %d, want %d", back.Len(), s.Len())
	}
	if got, _ := back.Rating("u1", "d1"); got != 3.5 {
		t.Errorf("round trip rating = %v, want 3.5", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("u1,d1,notanumber\n")); err == nil {
		t.Error("bad float accepted")
	}
	if _, err := ReadCSV(strings.NewReader("u1,d1\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("u1,d1,99\n")); err == nil {
		t.Error("out-of-range rating accepted")
	}
	s, err := ReadCSV(strings.NewReader(""))
	if err != nil || s.Len() != 0 {
		t.Errorf("empty input: %v len=%d", err, s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				u := model.UserID(fmt.Sprintf("u%d", w))
				i := model.ItemID(fmt.Sprintf("d%d", k%20))
				if err := s.Add(u, i, model.Rating(1+k%5)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				s.Rating(u, i)
				s.MeanRating(u)
				s.ItemsRatedBy(u)
				s.UsersWhoRated(i)
			}
		}(w)
	}
	wg.Wait()
	if s.NumUsers() != 8 || s.NumItems() != 20 {
		t.Errorf("after concurrent adds users=%d items=%d, want 8/20", s.NumUsers(), s.NumItems())
	}
}

// Property: for random rating batches, Len equals the number of
// distinct (user,item) pairs and the mean matches a direct computation.
func TestStoreProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type key struct {
			u model.UserID
			i model.ItemID
		}
		ref := make(map[key]model.Rating)
		for n := 0; n < 100; n++ {
			u := model.UserID(fmt.Sprintf("u%d", rng.Intn(6)))
			i := model.ItemID(fmt.Sprintf("d%d", rng.Intn(12)))
			r := model.Rating(1 + rng.Float64()*4)
			ref[key{u, i}] = r
			if err := s.Add(u, i, r); err != nil {
				return false
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		// recompute one user's mean directly
		sums := make(map[model.UserID]float64)
		counts := make(map[model.UserID]int)
		for k, r := range ref {
			sums[k.u] += float64(r)
			counts[k.u]++
		}
		for u := range sums {
			want := sums[u] / float64(counts[u])
			got, ok := s.MeanRating(u)
			if !ok || math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
