package itemcf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
	"fairhealth/internal/topk"
)

// referenceNeighbors is the map-based build this package shipped before
// the model learned to patch itself, kept verbatim as the oracle: pair
// accumulators keyed by item IDs, every user's pairs summed in
// ascending user order.
func referenceNeighbors(store *ratings.Store, minOverlap, modelK int) map[model.ItemID][]model.ScoredItem {
	type pairKey struct{ a, b model.ItemID }
	type pairAcc struct {
		dot, sqA, sqB float64
		overlap       int
	}
	pairs := make(map[pairKey]*pairAcc)
	for _, u := range store.Users() {
		items := store.ItemsRatedBy(u) // ascending
		mean, _ := store.MeanRating(u)
		centered := make([]float64, len(items))
		for k, i := range items {
			v, _ := store.Rating(u, i)
			centered[k] = float64(v) - mean
		}
		for a := 0; a < len(items); a++ {
			for b := a + 1; b < len(items); b++ {
				key := pairKey{items[a], items[b]}
				acc, ok := pairs[key]
				if !ok {
					acc = &pairAcc{}
					pairs[key] = acc
				}
				acc.dot += centered[a] * centered[b]
				acc.sqA += centered[a] * centered[a]
				acc.sqB += centered[b] * centered[b]
				acc.overlap++
			}
		}
	}
	selectors := make(map[model.ItemID]*topk.Selector)
	sel := func(i model.ItemID) *topk.Selector {
		s, ok := selectors[i]
		if !ok {
			s = topk.NewSelector(modelK)
			selectors[i] = s
		}
		return s
	}
	for key, acc := range pairs {
		if acc.overlap < minOverlap || acc.sqA == 0 || acc.sqB == 0 {
			continue
		}
		sim := acc.dot / (math.Sqrt(acc.sqA) * math.Sqrt(acc.sqB))
		if sim <= 0 {
			continue
		}
		if sim > 1 {
			sim = 1
		}
		sel(key.a).Push(model.ScoredItem{Item: key.b, Score: sim})
		sel(key.b).Push(model.ScoredItem{Item: key.a, Score: sim})
	}
	neighbors := make(map[model.ItemID][]model.ScoredItem, len(selectors))
	for i, s := range selectors {
		neighbors[i] = s.Result()
	}
	return neighbors
}

// TestUpdateMatchesBuild is the differential: after every batch of
// random writes — a user's first and last rating, brand-new items,
// re-rates to the same value, one dirty user or many — the patched
// model's neighbor lists equal a fresh Build's and the retained
// reference's bit for bit, on both sides of the fall-back-to-Build
// threshold.
func TestUpdateMatchesBuild(t *testing.T) {
	const minOverlap, modelK = 2, 8
	rng := rand.New(rand.NewSource(7))
	store := ratings.New()
	user := func(k int) model.UserID { return model.UserID(fmt.Sprintf("u%03d", k)) }
	item := func(k int) model.ItemID { return model.ItemID(fmt.Sprintf("d%03d", k)) }
	users, items := 60, 30
	for u := 0; u < users; u++ {
		for _, i := range rng.Perm(items)[:6+rng.Intn(6)] {
			if err := store.Add(user(u), item(i), model.Rating(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	patched := &Recommender{Store: store, MinOverlap: minOverlap, ModelK: modelK}
	if err := patched.Build(); err != nil {
		t.Fatal(err)
	}

	var patches, rebuilds int
	for step := 0; step < 400; step++ {
		// Mostly one or two writers per read, now and then a burst big
		// enough to cross the threshold.
		writers := 1 + rng.Intn(2)
		if step%8 == 7 {
			writers = users/2 + rng.Intn(users)
		}
		dirty := make([]model.UserID, 0, writers)
		for w := 0; w < writers; w++ {
			u := user(rng.Intn(users))
			switch op := rng.Intn(20); {
			case op == 0 && users < 90: // a new user's first ratings
				u = user(users)
				users++
				for _, i := range rng.Perm(items)[:2+rng.Intn(5)] {
					_ = store.Add(u, item(i), model.Rating(1+rng.Intn(5)))
				}
			case op == 1 && items < 45: // a brand-new item
				_ = store.Add(u, item(items), model.Rating(1+rng.Intn(5)))
				items++
			case op == 2: // the user leaves: every rating removed
				for _, i := range store.ItemsRatedBy(u) {
					_ = store.Remove(u, i)
				}
			case op == 3: // re-rate to the same value: nothing moves
				if rated := store.ItemsRatedBy(u); len(rated) > 0 {
					i := rated[rng.Intn(len(rated))]
					v, _ := store.Rating(u, i)
					_ = store.Add(u, i, v)
				}
			case op <= 7: // remove one rating
				if rated := store.ItemsRatedBy(u); len(rated) > 0 {
					_ = store.Remove(u, rated[rng.Intn(len(rated))])
				}
			default: // add or change one rating
				_ = store.Add(u, item(rng.Intn(items)), model.Rating(1+rng.Intn(5)))
			}
			dirty = append(dirty, u)
		}

		rowsBefore := reflect.ValueOf(patched.rows).Pointer()
		if err := patched.Update(dirty); err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(patched.rows).Pointer() == rowsBefore {
			patches++
		} else {
			rebuilds++
		}

		fresh := &Recommender{Store: store, MinOverlap: minOverlap, ModelK: modelK}
		if err := fresh.Build(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(patched.neighbors, fresh.neighbors) {
			t.Fatalf("step %d (dirty %v): patched model differs from a fresh Build", step, dirty)
		}
		if want := referenceNeighbors(store, minOverlap, modelK); !reflect.DeepEqual(fresh.neighbors, want) {
			t.Fatalf("step %d: Build differs from the map-based reference", step)
		}
	}
	if patches < 100 || rebuilds < 10 {
		t.Fatalf("exercised %d patches and %d fall-backs to Build; want both well covered", patches, rebuilds)
	}
}

// TestUpdateRacedByALeavingRater: a rater whose last rating goes after
// the caller collected the dirty users but before Update reads the
// store is not named. The model must not mix pairs summed with and
// without that rater: it matches a fresh Build at once, and again when
// the straggler is named.
func TestUpdateRacedByALeavingRater(t *testing.T) {
	// a's item set spans one pair of ten, so the patch path is taken.
	store := storeWith(t,
		tr("a", "x", 5), tr("a", "y", 1),
		tr("b", "v", 3), tr("b", "w", 4), tr("b", "x", 1), tr("b", "y", 5), tr("b", "z", 2),
		tr("c", "v", 1), tr("c", "w", 3), tr("c", "x", 4), tr("c", "y", 2), tr("c", "z", 5),
		tr("d", "v", 5), tr("d", "w", 1), tr("d", "x", 2), tr("d", "y", 4), tr("d", "z", 1),
	)
	r := &Recommender{Store: store}
	if err := r.Build(); err != nil {
		t.Fatal(err)
	}
	if err := store.Add("a", "x", 2); err != nil {
		t.Fatal(err)
	}
	for _, i := range store.ItemsRatedBy("d") { // the unnamed straggler
		_ = store.Remove("d", i)
	}
	for _, named := range []model.UserID{"a", "d"} {
		if err := r.Update([]model.UserID{named}); err != nil {
			t.Fatal(err)
		}
		fresh := &Recommender{Store: store}
		if err := fresh.Build(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.neighbors, fresh.neighbors) {
			t.Fatalf("after naming %s: patched %v, fresh Build %v", named, r.neighbors, fresh.neighbors)
		}
	}
}

// TestUpdateWithoutModelBuilds: Update on a recommender that was never
// built is a Build.
func TestUpdateWithoutModelBuilds(t *testing.T) {
	store := storeWith(t,
		tr("a", "x", 5), tr("a", "y", 1),
		tr("b", "x", 1), tr("b", "y", 5),
	)
	r := &Recommender{Store: store}
	if err := r.Update(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Neighbors("x"); err != nil {
		t.Fatalf("Neighbors after Update on an unbuilt model: %v", err)
	}
	if err := (&Recommender{}).Update(nil); err != ErrNoStore {
		t.Fatalf("Update without a store = %v, want ErrNoStore", err)
	}
}

// BenchmarkUpdate prices a patch against the Build it replaces at the
// repo benchmark's corpus shape (1,000 raters × 25 of 120 items): each
// iteration re-rates one item for `dirty` users and updates the model.
func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	store := ratings.New()
	user := func(k int) model.UserID { return model.UserID(fmt.Sprintf("patient%04d", k)) }
	item := func(k int) model.ItemID { return model.ItemID(fmt.Sprintf("doc%04d", k)) }
	const users, items = 1000, 120
	for u := 0; u < users; u++ {
		for _, i := range rng.Perm(items)[:25] {
			_ = store.Add(user(u), item(i), model.Rating(1+rng.Intn(5)))
		}
	}
	write := func(n int) []model.UserID {
		dirty := make([]model.UserID, n)
		for k := range dirty {
			dirty[k] = user(rng.Intn(users))
			_ = store.Add(dirty[k], item(rng.Intn(items)), model.Rating(1+rng.Intn(5)))
		}
		return dirty
	}
	for _, dirty := range []int{1, 5} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			r := &Recommender{Store: store}
			if err := r.Build(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := r.Update(write(dirty)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("build", func(b *testing.B) {
		r := &Recommender{Store: store}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			write(1)
			if err := r.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
