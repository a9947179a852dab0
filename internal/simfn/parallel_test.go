package simfn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
)

// warmStore builds a deterministic ratings matrix with enough overlap
// for Pearson to be defined on most pairs.
func warmStore(t testing.TB, users, items int) (*ratings.Store, []model.UserID) {
	t.Helper()
	st := ratings.New()
	ids := make([]model.UserID, users)
	for u := 0; u < users; u++ {
		ids[u] = model.UserID(fmt.Sprintf("u%03d", u))
		for i := 0; i < items; i++ {
			if (u+i)%4 == 0 {
				continue // leave holes so the matrix is sparse
			}
			v := model.Rating(1 + (u*7+i*3)%5)
			if err := st.Add(ids[u], model.ItemID(fmt.Sprintf("d%03d", i)), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, ids
}

func warmMeasure(st *ratings.Store) UserSimilarity {
	return Normalized{S: Pearson{Store: st, MinOverlap: 2}}
}

// entriesJSON renders a cache snapshot to bytes so "byte-identical" is
// checked literally, not just structurally.
func entriesJSON(t *testing.T, c *Cached) []byte {
	t.Helper()
	b, err := json.Marshal(c.Entries())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWarmAllMatchesSerialAndLazy(t *testing.T) {
	st, users := warmStore(t, 24, 40)
	base := warmMeasure(st)

	lazy := NewCached(base)
	for x, a := range users {
		for _, b := range users[x+1:] {
			lazy.Similarity(a, b)
		}
	}

	serial := NewCached(base)
	nSerial, err := serial.WarmAll(context.Background(), users, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewCached(base)
	nParallel, err := parallel.WarmAll(context.Background(), users, 8)
	if err != nil {
		t.Fatal(err)
	}

	want := len(users) * (len(users) - 1) / 2
	if nSerial != want || nParallel != want {
		t.Fatalf("pair counts: serial %d, parallel %d, want %d", nSerial, nParallel, want)
	}
	lazyJSON, serialJSON, parallelJSON := entriesJSON(t, lazy), entriesJSON(t, serial), entriesJSON(t, parallel)
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Error("parallel build differs from serial build")
	}
	if !bytes.Equal(lazyJSON, parallelJSON) {
		t.Error("parallel build differs from lazy lookups")
	}
}

func TestWarmAllSkipsExistingEntries(t *testing.T) {
	st, users := warmStore(t, 12, 20)
	c := NewCached(warmMeasure(st))
	if _, err := c.WarmAll(context.Background(), users, 4); err != nil {
		t.Fatal(err)
	}
	n, err := c.WarmAll(context.Background(), users, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-warm recomputed %d pairs, want 0", n)
	}
}

func TestWarmAllCancelled(t *testing.T) {
	st, users := warmStore(t, 16, 20)
	c := NewCached(warmMeasure(st))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := c.WarmAll(ctx, users, 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("cancelled warm added %d pairs, want 0", n)
	}
}

// TestWarmConcurrentWithLookups exercises the warm/lookup interleaving
// under -race: readers must always observe complete, correct entries.
func TestWarmConcurrentWithLookups(t *testing.T) {
	st, users := warmStore(t, 24, 30)
	base := warmMeasure(st)
	c := NewCached(base)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.WarmAll(context.Background(), users, 4); err != nil {
			t.Error(err)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				a := users[(k+off)%len(users)]
				b := users[(k*3+off+1)%len(users)]
				if a == b {
					continue
				}
				gotSim, gotOK := c.Similarity(a, b)
				wantSim, wantOK := base.Similarity(a, b)
				if gotSim != wantSim || gotOK != wantOK {
					t.Errorf("pair (%s,%s): got (%v,%v), want (%v,%v)", a, b, gotSim, gotOK, wantSim, wantOK)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPrecomputeBuildsFullMatrix(t *testing.T) {
	st, users := warmStore(t, 10, 20)
	c, err := Precompute(context.Background(), warmMeasure(st), users, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(users) * (len(users) - 1) / 2; c.Len() != want {
		t.Fatalf("precomputed %d pairs, want %d", c.Len(), want)
	}
}
