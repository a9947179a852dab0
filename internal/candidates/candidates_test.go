package candidates

import (
	"sync"
	"testing"
	"time"

	"fairhealth/internal/dataset"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
)

func testStore(t testing.TB) *ratings.Store {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 7, Users: 40, Items: 120, RatingsPerUser: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Ratings
}

func TestApproxOwnClusterOnly(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{K: 4, Seed: 1, Neighbors: -1})
	defer idx.Close()
	if err := idx.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	for _, u := range st.Users() {
		cands := idx.Approx(u)
		if cands == nil {
			t.Fatalf("Approx(%s) = nil for an indexed user", u)
		}
		// u's own cluster always includes u itself.
		found := false
		for _, c := range cands {
			if c == u {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Approx(%s) does not contain the user's own cluster", u)
		}
	}
	if got := idx.Approx("no-such-user"); got != nil {
		t.Fatalf("Approx(unknown) = %d candidates, want nil (degrade to full scan)", len(got))
	}
}

func TestApproxNeighborsWiden(t *testing.T) {
	st := testStore(t)
	own := NewRatings(st, Config{K: 4, Seed: 1, Neighbors: -1})
	defer own.Close()
	wide := NewRatings(st, Config{K: 4, Seed: 1, Neighbors: 2})
	defer wide.Close()
	u := st.Users()[0]
	if len(wide.Approx(u)) <= len(own.Approx(u)) {
		t.Fatalf("Neighbors=2 candidate set (%d) not larger than own-cluster set (%d)",
			len(wide.Approx(u)), len(own.Approx(u)))
	}
}

func TestLazyBuildAndStats(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{Seed: 1})
	defer idx.Close()
	if s := idx.Stats(); s.Built || s.Rebuilds != 0 {
		t.Fatalf("fresh index reports built=%v rebuilds=%d", s.Built, s.Rebuilds)
	}
	if idx.Approx(st.Users()[0]) == nil {
		t.Fatal("Approx returned nil on a populated store")
	}
	s := idx.Stats()
	if !s.Built || s.Rebuilds != 1 {
		t.Fatalf("after first Approx: built=%v rebuilds=%d, want true/1", s.Built, s.Rebuilds)
	}
	if s.Clusters < 2 || s.Users != len(st.Users()) {
		t.Fatalf("stats clusters=%d users=%d, want ≥2 and %d", s.Clusters, s.Users, len(st.Users()))
	}
	if s.LastRebuildAgeSeconds < 0 {
		t.Fatalf("negative rebuild age %v", s.LastRebuildAgeSeconds)
	}
}

func TestEmptyUniverseDegrades(t *testing.T) {
	idx := NewRatings(ratings.New(), Config{Seed: 1})
	defer idx.Close()
	if got := idx.Approx("anyone"); got != nil {
		t.Fatalf("Approx on empty store = %v, want nil", got)
	}
	if s := idx.Stats(); s.Built {
		t.Fatal("index reports built after a failed build")
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWriteCountTriggersBackgroundRebuild(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{Seed: 1, RebuildEvery: 4, DriftRatio: -1})
	defer idx.Close()
	if err := idx.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	u := st.Users()[0]
	for i := 0; i < 4; i++ {
		idx.OnWrite(u)
	}
	waitFor(t, "write-count rebuild", func() bool { return idx.Stats().Rebuilds >= 2 })
	if s := idx.Stats(); s.WritesSinceRebuild >= 4 {
		t.Fatalf("write counter not reduced by rebuild: %d", s.WritesSinceRebuild)
	}
}

func TestInvalidateAllForcesRebuild(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{Seed: 1})
	defer idx.Close()
	if err := idx.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	idx.InvalidateAll()
	if err := idx.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	if s := idx.Stats(); s.Rebuilds != 2 {
		t.Fatalf("rebuilds = %d after InvalidateAll + EnsureBuilt, want 2", s.Rebuilds)
	}
}

func TestOnWriteAfterCloseIsSafe(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{Seed: 1})
	if err := idx.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	idx.OnWrite(st.Users()[0]) // must not schedule or panic
	if idx.Approx(st.Users()[0]) == nil {
		t.Fatal("index unreadable after Close")
	}
}

// TestConcurrentWritesAndLookups exercises the index under -race: live
// writes into the backing store, OnWrite reassignment, background
// rebuilds, approx lookups and stats reads all at once.
func TestConcurrentWritesAndLookups(t *testing.T) {
	st := testStore(t)
	idx := NewRatings(st, Config{Seed: 1, RebuildEvery: 8})
	defer idx.Close()
	users := st.Users()
	items := st.Items()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := users[(w*50+i)%len(users)]
				switch i % 3 {
				case 0:
					if err := st.Add(u, items[i%len(items)], model.Rating(1+i%5)); err != nil {
						t.Error(err)
						return
					}
					idx.OnWrite(u)
				case 1:
					idx.Approx(u)
				default:
					idx.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	idx.Close()
	s := idx.Stats()
	if !s.Built {
		t.Fatal("index not built after concurrent load")
	}
	if s.Rebuilds < 1 {
		t.Fatalf("no rebuilds under %d writes with RebuildEvery=8", s.WritesSinceRebuild)
	}
}

func TestAutoK(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 2}, {1, 2}, {4, 2}, {16, 4}, {100, 10}, {101, 11}} {
		if got := autoK(tc.n); got != tc.want {
			t.Errorf("autoK(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.RebuildEvery != DefaultRebuildEvery || c.DriftRatio != DefaultDriftRatio || c.Neighbors != DefaultNeighbors {
		t.Fatalf("zero config defaults wrong: %+v", c)
	}
	c = Config{RebuildEvery: -1, DriftRatio: -1, Neighbors: -1}.withDefaults()
	if c.RebuildEvery != -1 || c.DriftRatio != -1 || c.Neighbors != 0 {
		t.Fatalf("negative config normalization wrong: %+v", c)
	}
}
