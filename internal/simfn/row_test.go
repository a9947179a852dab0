package simfn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fairhealth/internal/dataset"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
)

// checkRows asserts, for every user u of s's current snapshot (and for
// one user it does not hold), that Pearson's row holds exactly the
// defined Similarity(u, v) values, ascending by position and without u,
// bit for bit, that the pairwise kernel still equals PearsonReference,
// and that Normalized's row equals Normalized.Similarity.
func checkRows(t *testing.T, label string, s *ratings.Store, minOverlap int) {
	t.Helper()
	sn := s.Snapshot()
	flat := Pearson{Store: s, MinOverlap: minOverlap}
	ref := PearsonReference{Store: s, MinOverlap: minOverlap}
	norm := Normalized{S: flat}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, u := range append(sn.Users(), "ghost") {
		row, ok := flat.SimilarityRow(sn, u, nil)
		nrow, nok := norm.SimilarityRow(sn, u, nil)
		if !ok || !nok || len(row) != len(nrow) {
			t.Fatalf("%s: row(%s) ok %v/%v, %d vs %d normalized entries", label, u, ok, nok, len(row), len(nrow))
		}
		k := 0
		for p, v := range sn.Users() {
			want, wantOK := flat.Similarity(u, v)
			r, rOK := ref.Similarity(u, v)
			if !same(want, r) || wantOK != rOK {
				t.Fatalf("%s: pair (%s,%s): kernel %v,%v != reference %v,%v", label, u, v, want, wantOK, r, rOK)
			}
			got := k < len(row) && row[k].Pos == uint32(p)
			if v == u {
				wantOK = false
			}
			if got != wantOK {
				t.Fatalf("%s: row(%s) has %s = %v, pairwise defined = %v", label, u, v, got, wantOK)
			}
			if !got {
				continue
			}
			if !same(row[k].Sim, want) {
				t.Fatalf("%s: row(%s)[%s] = %v, pairwise %v", label, u, v, row[k].Sim, want)
			}
			if nwant, _ := norm.Similarity(u, v); nrow[k].Pos != row[k].Pos || !same(nrow[k].Sim, nwant) {
				t.Fatalf("%s: normalized row(%s)[%s] = %+v, pairwise %v", label, u, v, nrow[k], nwant)
			}
			k++
		}
		if k != len(row) {
			t.Fatalf("%s: row(%s) has %d entries out of position order or for unknown users", label, u, len(row)-k)
		}
	}
}

// TestRowMatchesPairwise pins the item-major row to the merge-join and
// to the map-based reference on every pair of a generated corpus, then
// again after each kind of write, interleaved: add, overwrite, remove,
// a burst over several users, a new user, removing a user's last
// rating, and a rating on a new item. Ratings are written in quarter
// stars so accumulation order shows at the ULP level.
func TestRowMatchesPairwise(t *testing.T) {
	for _, minOverlap := range []int{1, 2, 5} {
		ds, err := dataset.Generate(dataset.Config{Seed: 11, Users: 40, Items: 50, RatingsPerUser: 12})
		if err != nil {
			t.Fatal(err)
		}
		s := ds.Ratings
		users := s.Users()
		checkRows(t, fmt.Sprintf("minOverlap %d cold", minOverlap), s, minOverlap)
		var add model.ItemID
		for _, i := range s.Items() {
			if !s.HasRated(users[1], i) {
				add = i
				break
			}
		}
		rated := s.ItemsRatedBy(users[2])
		writes := []struct {
			name  string
			write func() error
		}{
			{"add", func() error { return s.Add(users[1], add, 2.25) }},
			{"overwrite", func() error { return s.Add(users[2], rated[0], 4.75) }},
			{"remove", func() error { return s.Remove(users[2], rated[1]) }},
			{"burst", func() error {
				for k, u := range users[3:7] {
					if err := s.Add(u, rated[k%len(rated)], model.Rating(1+0.25*float64(k))); err != nil {
						return err
					}
				}
				return nil
			}},
			{"new user", func() error {
				for k, i := range rated {
					if err := s.Add("newcomer", i, model.Rating(1.5+0.75*float64(k%5))); err != nil {
						return err
					}
				}
				return nil
			}},
			{"overwrite the new user", func() error { return s.Add("newcomer", rated[0], 3.25) }},
			{"remove a user's last rating", func() error {
				for _, i := range s.ItemsRatedBy(users[8]) {
					if err := s.Remove(users[8], i); err != nil {
						return err
					}
				}
				return nil
			}},
			{"rating on a new item", func() error { return s.Add(users[9], "doc-new", 3.75) }},
			{"second rating on the new item", func() error { return s.Add(users[10], "doc-new", 1.25) }},
		}
		for _, w := range writes {
			if err := w.write(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			checkRows(t, fmt.Sprintf("minOverlap %d after %s", minOverlap, w.name), s, minOverlap)
		}
	}
}

// TestRowWithoutRowForm: Normalized over a measure with no row form
// reports false and leaves dst as it was, so callers fall back to
// pairwise evaluation.
func TestRowWithoutRowForm(t *testing.T) {
	s := randomRatings(t, 1, 5, 8, 4)
	dst := []RowSim{{Pos: 7, Sim: 0.5}}
	row, ok := Normalized{S: PearsonReference{Store: s}}.SimilarityRow(s.Snapshot(), "u000", dst)
	if ok || len(row) != 1 || row[0] != dst[0] {
		t.Fatalf("row without a row form = %v, %v; want dst unchanged and false", row, ok)
	}
}

// TestRowConcurrentWrites runs row and column reads on successive
// snapshots while writers land (run under -race), then checks the
// quiesced store's rows against a cold rebuild of the same ratings.
func TestRowConcurrentWrites(t *testing.T) {
	s := randomRatings(t, 21, 30, 40, 15)
	users := s.Users()
	flat := Pearson{Store: s, MinOverlap: 2}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				u := users[rng.Intn(len(users))]
				if k%40 == 39 {
					u = model.UserID(fmt.Sprintf("new%d-%d", seed, k)) // a new user: the index rebuilds
				}
				i := model.ItemID(fmt.Sprintf("i%03d", rng.Intn(45))) // i040+ are new items
				if rng.Intn(4) == 0 {
					_ = s.Remove(u, i)
				} else if err := s.Add(u, i, model.Rating(1+float64(rng.Intn(17))*0.25)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for k := 0; k < 150; k++ {
				sn := s.Snapshot()
				sn.Columns()
				u := users[rng.Intn(len(users))]
				row, _ := flat.SimilarityRow(sn, u, nil)
				for j := 1; j < len(row); j++ {
					if row[j-1].Pos >= row[j].Pos || int(row[j].Pos) >= sn.NumUsers() {
						t.Errorf("torn row for %s: %+v", u, row)
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()

	cold, err := ratings.FromTriples(s.Triples())
	if err != nil {
		t.Fatal(err)
	}
	warmSn, coldSn := s.Snapshot(), cold.Snapshot()
	coldFlat := Pearson{Store: cold, MinOverlap: 2}
	for _, u := range warmSn.Users() {
		got, _ := flat.SimilarityRow(warmSn, u, nil)
		want, _ := coldFlat.SimilarityRow(coldSn, u, nil)
		if len(got) != len(want) {
			t.Fatalf("row(%s): %d entries after quiescence, cold rebuild %d", u, len(got), len(want))
		}
		for j := range want {
			if got[j].Pos != want[j].Pos || math.Float64bits(got[j].Sim) != math.Float64bits(want[j].Sim) {
				t.Fatalf("row(%s)[%d] = %+v, cold rebuild %+v", u, j, got[j], want[j])
			}
		}
	}
	checkRows(t, "after quiescence", s, 2)
}
