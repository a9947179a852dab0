package fairhealth

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestGroupRecommendStreamMatchesBatch(t *testing.T) {
	sys, groups := batchSystem(t, 3)
	want, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []BatchGroupResult
	err = sys.ServeStream(context.Background(), greedyQueries(groups, 6), func(e BatchGroupResult) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(groups) {
		t.Fatalf("stream yielded %d entries, want %d", len(got), len(groups))
	}
	sort.Slice(got, func(a, b int) bool { return got[a].Index < got[b].Index })
	for k, e := range got {
		if e.Index != k {
			t.Fatalf("entry indices not a permutation of the request: %d at position %d", e.Index, k)
		}
		if e.Err != nil {
			t.Fatalf("entry %d: %v", k, e.Err)
		}
		if !reflect.DeepEqual(e.Group, want[k].Group) {
			t.Errorf("entry %d group %v, want %v", k, e.Group, want[k].Group)
		}
		if !reflect.DeepEqual(e.Result.Items, want[k].Result.Items) {
			t.Errorf("entry %d items %v differ from batch %v", k, e.Result.Items, want[k].Result.Items)
		}
		if e.Result.Fairness != want[k].Result.Fairness || e.Result.Value != want[k].Result.Value {
			t.Errorf("entry %d fairness/value differ from batch", k)
		}
	}
}

func TestGroupRecommendStreamCallbackSerialized(t *testing.T) {
	sys, groups := batchSystem(t, 4)
	inFn := 0
	err := sys.ServeStream(context.Background(), greedyQueries(groups, 6), func(e BatchGroupResult) error {
		inFn++ // no lock: -race proves fn is never invoked concurrently
		defer func() { inFn-- }()
		if inFn != 1 {
			t.Errorf("callback re-entered: depth %d", inFn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupRecommendStreamFnErrorStops(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	boom := errors.New("sink full")
	seen := 0
	err := sys.ServeStream(context.Background(), greedyQueries(groups, 6), func(e BatchGroupResult) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if seen != 2 {
		t.Errorf("callback ran %d times after erroring, want exactly 2", seen)
	}
}

func TestGroupRecommendStreamCancelledUpfront(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var entries []BatchGroupResult
	err := sys.ServeStream(ctx, greedyQueries(groups, 6), func(e BatchGroupResult) error {
		entries = append(entries, e)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(entries) != len(groups) {
		t.Fatalf("yielded %d entries, want %d (every group accounted for)", len(entries), len(groups))
	}
	for _, e := range entries {
		if !errors.Is(e.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want context.Canceled", e.Index, e.Err)
		}
	}
}

func TestGroupRecommendStreamValidation(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	if err := sys.ServeStream(context.Background(), greedyQueries(groups, 6), nil); err == nil {
		t.Error("nil callback accepted")
	}
	calls := 0
	if err := sys.ServeStream(context.Background(), greedyQueries(nil, 6), func(BatchGroupResult) error {
		calls++
		return nil
	}); err != nil || calls != 0 {
		t.Errorf("empty stream: err=%v calls=%d, want nil/0", err, calls)
	}
}

// TestGroupRecommendStreamPartialFailure mirrors the batch contract:
// one bad group yields one error entry without poisoning the rest.
func TestGroupRecommendStreamPartialFailure(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	mixed := [][]string{groups[0], {}, groups[1]}
	byIndex := make(map[int]BatchGroupResult)
	err := sys.ServeStream(context.Background(), greedyQueries(mixed, 6), func(e BatchGroupResult) error {
		byIndex[e.Index] = e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byIndex) != 3 {
		t.Fatalf("yielded %d entries, want 3", len(byIndex))
	}
	if byIndex[0].Err != nil || byIndex[2].Err != nil {
		t.Errorf("valid groups failed: %v, %v", byIndex[0].Err, byIndex[2].Err)
	}
	if !errors.Is(byIndex[1].Err, ErrEmptyGroup) {
		t.Errorf("empty group err = %v, want ErrEmptyGroup", byIndex[1].Err)
	}
	if byIndex[1].Result != nil {
		t.Error("failed entry carries a result")
	}
}

// rebuildFrom constructs a fresh System with the same config over the
// current ratings snapshot — the cold-cache reference that scoped
// invalidation must match bit-for-bit.
func rebuildFrom(t *testing.T, sys *System) *System {
	t.Helper()
	fresh, err := New(sys.Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sys.RatingTriples() {
		if err := fresh.AddRating(tr.User, tr.Item, tr.Value); err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

// assertSystemsAgree compares warm-cache answers against the fresh
// system's cold-cache answers, exactly (float bit-equality).
func assertSystemsAgree(t *testing.T, label string, warm, cold *System, groups [][]string) {
	t.Helper()
	for _, g := range groups {
		for _, u := range g {
			wp, err1 := warm.Peers(u)
			cp, err2 := cold.Peers(u)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: Peers(%s): %v / %v", label, u, err1, err2)
			}
			if !reflect.DeepEqual(wp, cp) {
				t.Fatalf("%s: stale peer set for %s:\n warm %+v\n cold %+v", label, u, wp, cp)
			}
			wr, err1 := warm.Recommend(u, 8)
			cr, err2 := cold.Recommend(u, 8)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: Recommend(%s): %v / %v", label, u, err1, err2)
			}
			if !reflect.DeepEqual(wr, cr) {
				t.Fatalf("%s: stale personal list for %s:\n warm %+v\n cold %+v", label, u, wr, cr)
			}
		}
		wg, err1 := warm.Serve(context.Background(), greedyQuery(g, 6))
		cg, err2 := cold.Serve(context.Background(), greedyQuery(g, 6))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Serve(%v): %v / %v", label, g, err1, err2)
		}
		if !reflect.DeepEqual(wg, cg) {
			t.Fatalf("%s: stale group result for %v:\n warm %+v\n cold %+v", label, g, wg, cg)
		}
	}
}

// TestScopedInvalidationEquivalence is the tentpole's acceptance
// property: after every write in a sequence — value changes, brand-new
// users, removals; each able to move users across the δ threshold in
// both directions — a system serving from scoped-invalidated warm
// caches returns bit-identical scores to a freshly built one.
func TestScopedInvalidationEquivalence(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	groups = groups[:4]
	// Warm every cache layer fully before the writes start.
	if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6)); err != nil {
		t.Fatal(err)
	}
	users := sys.SortedUsers()
	writes := []func() error{
		// overwrite an existing rating of a group member
		func() error { return sys.AddRating(users[0], "doc0003", 1) },
		// rate a previously unrated item
		func() error { return sys.AddRating(users[1], "doc0077", 5) },
		// a brand-new user enters the matrix
		func() error { return sys.AddRating("newcomer", "doc0003", 4) },
		func() error { return sys.AddRating("newcomer", "doc0077", 2) },
		// remove a rating again
		func() error { return sys.RemoveRating(users[1], "doc0077") },
		// pile writes onto one user to shift their mean (flips Pearson signs)
		func() error { return sys.AddRating(users[2], "doc0011", 5) },
		func() error { return sys.AddRating(users[2], "doc0012", 5) },
	}
	for k, write := range writes {
		if err := write(); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
		cold := rebuildFrom(t, sys)
		assertSystemsAgree(t, fmt.Sprintf("after write %d", k), sys, cold, groups)
	}
}

// TestConcurrentWritesThenEquivalence is the -race interleaving
// satellite: AddRating runs concurrently with GroupRecommendBatch, and
// once writes quiesce the warm system must agree bit-for-bit with a
// from-scratch recompute — no stale peer sets, no stale similarity
// rows.
func TestConcurrentWritesThenEquivalence(t *testing.T) {
	sys, groups := batchSystem(t, 4)
	groups = groups[:5]
	if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
		t.Fatal(err)
	}
	users := sys.SortedUsers()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			u := users[i%6] // write to users the groups actively read
			if err := sys.AddRating(u, fmt.Sprintf("doc%04d", i%40), float64(1+i%5)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 4; round++ {
		batch, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range batch {
			if e.Err != nil {
				t.Fatalf("round %d group %d: %v", round, k, e.Err)
			}
		}
	}
	wg.Wait()
	assertSystemsAgree(t, "after quiescence", sys, rebuildFrom(t, sys), groups)
}
