package fairhealth

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fairhealth/internal/dataset"
)

// batchSystem builds a System over a synthetic community large enough
// for several overlapping groups.
func batchSystem(t *testing.T, workers int) (*System, [][]string) {
	t.Helper()
	sys, err := New(Config{Delta: 0.55, MinOverlap: 4, K: 8, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 7, Users: 40, Items: 80, RatingsPerUser: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	users := sys.SortedUsers()
	// Overlapping groups: consecutive windows share two members each.
	var groups [][]string
	for g := 0; g+3 <= 12; g++ {
		groups = append(groups, []string{users[g], users[g+1], users[g+2]})
	}
	return sys, groups
}

func TestGroupRecommendBatchMatchesSingle(t *testing.T) {
	sys, groups := batchSystem(t, 4)
	batch, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(groups) {
		t.Fatalf("batch returned %d entries, want %d", len(batch), len(groups))
	}
	for k, entry := range batch {
		if entry.Err != nil {
			t.Fatalf("group %d: unexpected error %v", k, entry.Err)
		}
		if !reflect.DeepEqual(entry.Group, groups[k]) {
			t.Errorf("group %d: echoed members %v, want %v", k, entry.Group, groups[k])
		}
		single, err := sys.Serve(context.Background(), greedyQuery(groups[k], 6))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(entry.Result.Items, single.Items) {
			t.Errorf("group %d: batch items %v differ from single-shot %v", k, entry.Result.Items, single.Items)
		}
		if entry.Result.Fairness != single.Fairness {
			t.Errorf("group %d: batch fairness %v, single %v", k, entry.Result.Fairness, single.Fairness)
		}
	}
}

func TestGroupRecommendBatchPartialFailure(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	mixed := [][]string{groups[0], {}, groups[1]}
	batch, err := sys.ServeBatch(context.Background(), greedyQueries(mixed, 6))
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil || batch[2].Err != nil {
		t.Errorf("valid groups failed: %v, %v", batch[0].Err, batch[2].Err)
	}
	if !errors.Is(batch[1].Err, ErrEmptyGroup) {
		t.Errorf("empty group error = %v, want ErrEmptyGroup", batch[1].Err)
	}
	if batch[1].Result != nil {
		t.Error("failed entry carries a result")
	}
}

func TestGroupRecommendBatchCancelledUpfront(t *testing.T) {
	sys, groups := batchSystem(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch, err := sys.ServeBatch(ctx, greedyQueries(groups, 6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for k, entry := range batch {
		if !errors.Is(entry.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want context.Canceled", k, entry.Err)
		}
	}
}

// TestGroupRecommendBatchMidCancellation cancels while the batch is in
// flight (from a worker observing the first completed entry) and checks
// the invariant every entry must satisfy: either a full result or an
// error, never both, never neither.
func TestGroupRecommendBatchMidCancellation(t *testing.T) {
	sys, base := batchSystem(t, 2)
	var groups [][]string
	for i := 0; i < 8; i++ {
		groups = append(groups, base...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cancel() // races the fan-out deliberately; -race checks the interleaving
	}()
	batch, err := sys.ServeBatch(ctx, greedyQueries(groups, 6))
	<-done
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if len(batch) != len(groups) {
		t.Fatalf("batch returned %d entries, want %d", len(batch), len(groups))
	}
	for k, entry := range batch {
		switch {
		case entry.Err == nil && entry.Result == nil:
			t.Errorf("entry %d has neither result nor error", k)
		case entry.Err != nil && entry.Result != nil:
			t.Errorf("entry %d has both result and error", k)
		case entry.Err != nil && !errors.Is(entry.Err, context.Canceled):
			t.Errorf("entry %d: err = %v, want context.Canceled", k, entry.Err)
		}
	}
}

// TestGroupRecommendBatchConcurrentWrites pounds the batch path while
// ratings arrive — the invalidation hooks must keep every served result
// internally consistent (exercised under -race in CI).
func TestGroupRecommendBatchConcurrentWrites(t *testing.T) {
	sys, groups := batchSystem(t, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			u := fmt.Sprintf("writer%02d", i)
			for j := 0; j < 5; j++ {
				if err := sys.AddRating(u, fmt.Sprintf("doc%04d", j), float64(1+j%5)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for round := 0; round < 5; round++ {
		batch, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
		if err != nil {
			t.Fatal(err)
		}
		for k, entry := range batch {
			if entry.Err != nil {
				t.Fatalf("round %d group %d: %v", round, k, entry.Err)
			}
		}
	}
	wg.Wait()
}

func TestPrecomputeSimilarityWarmsAllPairs(t *testing.T) {
	sys, _ := batchSystem(t, 0)
	n := len(sys.SortedUsers())
	pairs, err := sys.PrecomputeSimilarity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; pairs != want {
		t.Fatalf("precomputed %d pairs, want %d", pairs, want)
	}
	// A second call finds everything cached.
	pairs, err = sys.PrecomputeSimilarity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 0 {
		t.Fatalf("re-precompute recomputed %d pairs, want 0", pairs)
	}
	// A rating write invalidates with user scope: only the touched
	// user's row recomputes, the rest of the matrix stays warm.
	if err := sys.AddRating("fresh", "doc0001", 5); err != nil {
		t.Fatal(err)
	}
	pairs, err = sys.PrecomputeSimilarity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pairs != n { // fresh × the n existing users
		t.Fatalf("post-write precompute %d pairs, want %d (only the touched row)", pairs, n)
	}
	n++
	// A profile write has global blast radius; the next precompute
	// rebuilds the full matrix. InvalidateCaches behaves the same.
	if err := sys.AddPatient(Patient{ID: "fresh"}); err != nil {
		t.Fatal(err)
	}
	pairs, err = sys.PrecomputeSimilarity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; pairs != want {
		t.Fatalf("post-profile-write precompute %d pairs, want %d", pairs, want)
	}
	sys.InvalidateCaches()
	pairs, err = sys.PrecomputeSimilarity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; pairs != want {
		t.Fatalf("post-InvalidateCaches precompute %d pairs, want %d", pairs, want)
	}
}

func TestGroupRecommendBatchEmpty(t *testing.T) {
	sys, _ := batchSystem(t, 1)
	batch, err := sys.ServeBatch(context.Background(), greedyQueries(nil, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Fatalf("empty batch returned %d entries", len(batch))
	}
}

func TestConfigWorkersValidation(t *testing.T) {
	if _, err := New(Config{Workers: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Workers=-1 error = %v, want ErrBadConfig", err)
	}
	sys, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().Workers != 3 {
		t.Errorf("Workers = %d, want 3", sys.Config().Workers)
	}
}
