package partition_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/partition"
)

// TestConcurrentServeWriteLifecycle hammers the coordinator with
// serves, writes, and detach/rejoin/kill/restart cycles at once —
// primarily a -race target, but the invariants (no lost writes, all
// partitions converge) hold either way.
func TestConcurrentServeWriteLifecycle(t *testing.T) {
	dir := t.TempDir()
	coord, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 3}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 41, 24)
	ids := coord.Patients()

	const rounds = 30
	var wg sync.WaitGroup
	ctx := context.Background()

	wg.Add(1)
	go func() { // serving
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			q := fairhealth.GroupQuery{
				Members: []string{ids[i%len(ids)], ids[(i+5)%len(ids)]}, Z: 4,
			}
			if _, err := coord.Serve(ctx, q); err != nil {
				t.Errorf("serve: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // writing
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := coord.AddRating(ids[i%len(ids)], fmt.Sprintf("doc%04d", i%40), 4); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // lifecycle churn on partition 2
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := coord.Detach(2); err != nil {
				t.Errorf("detach: %v", err)
				return
			}
			if err := coord.Rejoin(2); err != nil {
				t.Errorf("rejoin: %v", err)
				return
			}
		}
		if err := coord.Kill(2); err != nil {
			t.Errorf("kill: %v", err)
			return
		}
		if err := coord.Restart(2); err != nil {
			t.Errorf("restart: %v", err)
		}
	}()
	wg.Wait()

	st := coord.PartitionStats()
	for _, s := range st {
		if !s.Live || s.ReplayLag != 0 {
			t.Fatalf("partition %d did not converge: %+v", s.ID, s)
		}
		if s.AppliedSeq != st[0].AppliedSeq {
			t.Fatalf("applied seq diverged: %+v vs %+v", s, st[0])
		}
	}
}

// TestConcurrentClose closes many full systems at once — the regression
// test for the shutdown ordering fix (the index rebuild loop must stop
// before the caches it touches are closed; partitioned serving closes
// N systems concurrently, which is what surfaced the old ordering
// under -race).
func TestConcurrentClose(t *testing.T) {
	cfg := baseConfig()
	cfg.CandidateIndex = true
	cfg.CacheTTL = 5 * time.Second
	systems := make([]*fairhealth.System, 6)
	for i := range systems {
		sys, err := fairhealth.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed(t, sys, int64(50+i), 12)
		systems[i] = sys
	}
	// Touch the caches so the janitors have state.
	ctx := context.Background()
	for _, sys := range systems {
		ids := sys.Patients()
		if _, err := sys.Serve(ctx, fairhealth.GroupQuery{Members: []string{ids[0], ids[1]}, Z: 3}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, sys := range systems {
		wg.Add(1)
		go func(s *fairhealth.System) {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(sys)
	}
	wg.Wait()
}

// TestCoordinatorCloseUnderTraffic closes the coordinator while serves
// are in flight; in-flight queries may fail, but nothing may race or
// panic.
func TestCoordinatorCloseUnderTraffic(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed(t, coord, 61, 16)
	ids := coord.Patients()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Errors are fine once Close lands; data races are not.
				_, _ = coord.Serve(ctx, fairhealth.GroupQuery{
					Members: []string{ids[(w+i)%len(ids)]}, Z: 3,
				})
			}
		}(w)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
