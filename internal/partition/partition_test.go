package partition_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/partition"
	"fairhealth/internal/scoring"
)

// seedTarget is the write surface shared by System and Coordinator.
type seedTarget interface {
	AddRating(user, item string, value float64) error
	AddPatient(p fairhealth.Patient) error
	AddDocument(id, title, body string) error
}

// seed loads the same synthetic dataset in the same order into any
// target — the order is part of the determinism contract.
func seed(t testing.TB, tgt seedTarget, seed int64, users int) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: seed, Users: users, Items: 90, RatingsPerUser: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Profiles first: AddPatient flushes caches, so load them before
	// ratings (the same order the benches use).
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		problems := make([]string, len(prof.Problems))
		for i, c := range prof.Problems {
			problems[i] = string(c)
		}
		err = tgt.AddPatient(fairhealth.Patient{
			ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
			Problems: problems, Medications: prof.Medications,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := tgt.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range ds.Documents {
		if err := tgt.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
			t.Fatal(err)
		}
	}
}

func baseConfig() fairhealth.Config {
	return fairhealth.Config{Delta: 0.3, MinOverlap: 3, K: 8}
}

// TestServeBitIdenticalToSingleSystem is the tentpole contract: for
// every scorer × method × aggregation, across cold, warm, and
// post-write phases, a coordinator with 1, 2, or 4 partitions answers
// exactly (bit-for-bit, including per-member evidence) what one
// unpartitioned System answers.
func TestServeBitIdenticalToSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 7, 48)

	coords := make(map[int]*partition.Coordinator)
	for _, n := range []int{1, 2, 4} {
		coord, err := partition.New(baseConfig(), partition.Options{Partitions: n})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		seed(t, coord, 7, 48)
		coords[n] = coord
	}

	users := single.SortedUsers()
	group := []string{users[1], users[9], users[17], users[25]}
	writer := users[len(users)-1]

	type combo struct {
		scorer string
		method fairhealth.Method
		aggr   string
	}
	var combos []combo
	for _, scorer := range scoring.Names() {
		for _, aggr := range []string{"avg", "min"} {
			combos = append(combos,
				combo{scorer, fairhealth.MethodGreedy, aggr},
				combo{scorer, fairhealth.MethodBrute, aggr},
			)
		}
	}
	// mapreduce is not a serving method: these legs pin that the router
	// rejects it exactly as the System does.
	combos = append(combos,
		combo{"user-cf", "mapreduce", "avg"},
		combo{"user-cf", "mapreduce", "min"},
	)

	ctx := context.Background()
	check := func(t *testing.T, phase string, q fairhealth.GroupQuery) {
		t.Helper()
		want, werr := single.Serve(ctx, q)
		for n, coord := range coords {
			got, gerr := coord.Serve(ctx, q)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: partitions=%d error mismatch: single=%v coordinator=%v", phase, n, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: partitions=%d diverged\nsingle:      %+v\ncoordinator: %+v", phase, n, want, got)
			}
		}
	}

	for _, cb := range combos {
		t.Run(fmt.Sprintf("%s/%s/%s", cb.scorer, cb.method, cb.aggr), func(t *testing.T) {
			q := fairhealth.GroupQuery{
				Members: group, Z: 5, Method: cb.method,
				Scorer: cb.scorer, Aggregation: cb.aggr,
				BruteM: 10, Explain: true,
			}
			check(t, "cold", q)
			check(t, "warm", q) // second serve answers from warm caches
			if cb.method == "mapreduce" {
				for n, coord := range coords {
					if _, err := coord.Serve(ctx, q); !errors.Is(err, fairhealth.ErrBadQuery) {
						t.Errorf("partitions=%d mapreduce: err = %v, want ErrBadQuery", n, err)
					}
				}
			}
		})
	}

	// Post-write: every target takes the same writes, then the matrix
	// must still agree (scoped invalidation on the single system,
	// replicated apply on the partitions).
	if err := single.AddRating(writer, "doc0003", 5); err != nil {
		t.Fatal(err)
	}
	if err := single.AddPatient(fairhealth.Patient{ID: "fresh-patient", Problems: []string{"38341003"}}); err != nil {
		t.Fatal(err)
	}
	for _, coord := range coords {
		if err := coord.AddRating(writer, "doc0003", 5); err != nil {
			t.Fatal(err)
		}
		if err := coord.AddPatient(fairhealth.Patient{ID: "fresh-patient", Problems: []string{"38341003"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cb := range combos {
		q := fairhealth.GroupQuery{
			Members: group, Z: 5, Method: cb.method,
			Scorer: cb.scorer, Aggregation: cb.aggr,
			BruteM: 10, Explain: true,
		}
		check(t, fmt.Sprintf("post-write %s/%s/%s", cb.scorer, cb.method, cb.aggr), q)
	}
}

// TestServeErrorsMatchSingleSystem pins the error surface: unknown
// members, empty groups, and bad queries fail identically.
func TestServeErrorsMatchSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, single, 3, 20)
	seed(t, coord, 3, 20)
	users := single.SortedUsers()

	ctx := context.Background()
	cases := []fairhealth.GroupQuery{
		{Members: []string{users[0], "nobody-here"}, Z: 4},
		{Members: nil, Z: 4},
		{Members: []string{users[0]}, Z: -1},
		{Members: []string{users[0]}, Method: "warp"},
		{Members: []string{users[0]}, Method: "mapreduce", Scorer: "item-cf"},
		{Members: []string{users[0]}, Approx: true}, // no candidate index configured
	}
	for i, q := range cases {
		_, werr := single.Serve(ctx, q)
		_, gerr := coord.Serve(ctx, q)
		if werr == nil || gerr == nil {
			t.Fatalf("case %d: expected errors, got single=%v coordinator=%v", i, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Errorf("case %d: error text diverged:\nsingle:      %v\ncoordinator: %v", i, werr, gerr)
		}
	}
}

// TestBatchAndStreamMatchSingleSystem runs a mixed batch through both
// engines; results must agree entry by entry, and streaming must
// yield every index exactly once.
func TestBatchAndStreamMatchSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, single, 11, 32)
	seed(t, coord, 11, 32)
	users := single.SortedUsers()

	queries := []fairhealth.GroupQuery{
		{Members: []string{users[0], users[5], users[10]}, Z: 4, Explain: true},
		{Members: []string{users[2], users[7]}, Z: 3, Scorer: "item-cf", Aggregation: "min"},
		{Members: []string{users[1], "ghost"}, Z: 3},
		{Members: []string{users[3], users[11], users[19]}, Z: 5, Method: fairhealth.MethodBrute, BruteM: 8},
		{Members: []string{users[4], users[6]}, Z: 4, Scorer: "profile"},
	}
	ctx := context.Background()
	want, werr := single.ServeBatch(ctx, queries)
	got, gerr := coord.ServeBatch(ctx, queries)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("batch error mismatch: single=%v coordinator=%v", werr, gerr)
	}
	if len(want) != len(got) {
		t.Fatalf("batch lengths diverged: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Result, got[i].Result) {
			t.Errorf("entry %d results diverged:\nsingle:      %+v\ncoordinator: %+v", i, want[i].Result, got[i].Result)
		}
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Errorf("entry %d error mismatch: single=%v coordinator=%v", i, want[i].Err, got[i].Err)
		} else if want[i].Err != nil && want[i].Err.Error() != got[i].Err.Error() {
			t.Errorf("entry %d error text diverged: %v vs %v", i, want[i].Err, got[i].Err)
		}
	}

	seen := make(map[int]bool)
	err = coord.ServeStream(ctx, queries, func(e fairhealth.BatchGroupResult) error {
		if seen[e.Index] {
			t.Errorf("index %d streamed twice", e.Index)
		}
		seen[e.Index] = true
		if !reflect.DeepEqual(e.Result, want[e.Index].Result) {
			t.Errorf("streamed entry %d diverged from single system", e.Index)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(queries) {
		t.Fatalf("stream yielded %d entries, want %d", len(seen), len(queries))
	}
}

// TestApproxServesThroughCoordinator exercises the approx path (the
// candidate index is per-partition; approx trades recall, so no
// bit-identity pin — the query must just serve).
func TestApproxServesThroughCoordinator(t *testing.T) {
	cfg := baseConfig()
	cfg.CandidateIndex = true
	coord, err := partition.New(cfg, partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 5, 24)
	users := coord.Stats()
	_ = users
	ids := coord.Patients()
	res, err := coord.Serve(context.Background(), fairhealth.GroupQuery{
		Members: []string{ids[0], ids[1]}, Z: 4, Approx: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("approx serve returned no items")
	}
}

// TestKillRestartConvergesPersistent is the bootstrap acceptance
// criterion: a killed partition rebuilt by WAL snapshot+replay (plus
// journal tail) must converge to bit-identical answers.
func TestKillRestartConvergesPersistent(t *testing.T) {
	dir := t.TempDir()
	coord, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 3}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 13, 30)
	ids := coord.Patients()
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[3], ids[6]}, Z: 5, Explain: true}
	ctx := context.Background()
	before, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	if err := coord.Kill(1); err != nil {
		t.Fatal(err)
	}
	// Serving continues around the dead partition, identically (every
	// live replica holds full state).
	during, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, during) {
		t.Fatal("answers changed while a partition was dead")
	}
	// Writes while dead are what the restarted partition must replay.
	if err := coord.AddRating(ids[0], "doc0001", 4); err != nil {
		t.Fatal(err)
	}

	if err := coord.Restart(1); err != nil {
		t.Fatal(err)
	}
	st := coord.PartitionStats()
	if !st[1].Live {
		t.Fatal("restarted partition is not live")
	}
	if st[1].ReplayLag != 0 {
		t.Fatalf("restarted partition still lags by %d records", st[1].ReplayLag)
	}
	if st[1].AppliedSeq != st[0].AppliedSeq {
		t.Fatalf("applied seq diverged after restart: %d vs %d", st[1].AppliedSeq, st[0].AppliedSeq)
	}

	// A fresh coordinator over the same state dir is the ground truth
	// for convergence after the post-kill write.
	truth, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	want, err := truth.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restarted deployment diverged from ground truth")
	}
}

// TestDetachRejoinCatchesUpViaJournal pins the journal shipping path:
// a detached partition misses writes, rejoins, and must be exactly
// current — without any log file to fall back to.
func TestDetachRejoinCatchesUpViaJournal(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 17, 24)
	ids := coord.Patients()

	if err := coord.Detach(2); err != nil {
		t.Fatal(err)
	}
	if err := coord.Detach(2); !errors.Is(err, partition.ErrNotDetached) {
		t.Fatalf("double detach: want ErrNotDetached, got %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := coord.AddRating(ids[i], "doc0002", 3); err != nil {
			t.Fatal(err)
		}
	}
	st := coord.PartitionStats()
	if st[2].ReplayLag != 5 {
		t.Fatalf("detached partition lag %d, want 5", st[2].ReplayLag)
	}
	if err := coord.Rejoin(2); err != nil {
		t.Fatal(err)
	}
	st = coord.PartitionStats()
	if st[2].ReplayLag != 0 || !st[2].Live {
		t.Fatalf("rejoined partition not current: %+v", st[2])
	}

	// And it answers identically again.
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[4]}, Z: 4, Explain: true}
	ctx := context.Background()
	want, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 17, 24)
	for i := 0; i < 5; i++ {
		if err := single.AddRating(ids[i], "doc0002", 3); err != nil {
			t.Fatal(err)
		}
	}
	got, err := single.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("rejoined deployment diverged from single system")
	}
}

// TestRejoinFallsBackToFilteredReplay bounds the journal so the gap is
// dropped, forcing the wal.ReplayIf path through the shared log file.
func TestRejoinFallsBackToFilteredReplay(t *testing.T) {
	dir := t.TempDir()
	coord, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 2, JournalRetain: 3}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 19, 20)
	ids := coord.Patients()

	if err := coord.Detach(0); err != nil {
		t.Fatal(err)
	}
	// 8 writes with retention 3: the journal drops the front of the
	// gap, so rejoin must go through the log file.
	for i := 0; i < 8; i++ {
		if err := coord.AddRating(ids[i%len(ids)], fmt.Sprintf("doc%04d", i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	st := coord.PartitionStats()
	if st[0].ReplayLag != 0 || !st[0].Live {
		t.Fatalf("partition not current after filtered-replay rejoin: %+v", st[0])
	}
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[1]}, Z: 4, Explain: true}
	want, err := coord.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Detach the OTHER partition so the rejoined one serves alone; the
	// answers must match what the pair produced.
	if err := coord.Detach(1); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("rejoined partition diverged after filtered replay")
	}
}

// TestInMemoryRejoinWithGapFails pins the honest failure: no log file,
// bounded journal, dropped gap → ErrJournalGap (not silent divergence).
func TestInMemoryRejoinWithGapFails(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2, JournalRetain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 23, 12)
	ids := coord.Patients()
	if err := coord.Detach(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := coord.AddRating(ids[i%len(ids)], "doc0005", 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Rejoin(0); !errors.Is(err, partition.ErrJournalGap) {
		t.Fatalf("want ErrJournalGap, got %v", err)
	}
}

// TestPersistentRestartAcrossProcesses simulates a full process
// restart: a new coordinator (different partition count, even) over
// the same state dir serves the same answers.
func TestPersistentRestartAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	first, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, first, 29, 20)
	ids := first.Patients()
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[2]}, Z: 4, Explain: true}
	want, err := first.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 4}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	got, err := second.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Documents are not WAL-logged, so Items counts differ — but the
	// recommendation answers (ratings + profiles state) must match.
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restarted deployment diverged")
	}
	if st := second.Stats(); st.Ratings == 0 || st.Patients == 0 {
		t.Fatalf("restored state is empty: %+v", st)
	}
}

// TestPartitionStats sanity-checks the stats surface: shares sum to 1,
// owned users sum to the known-user count, counters move.
func TestPartitionStats(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 31, 40)
	ids := coord.Patients()
	if _, err := coord.Serve(context.Background(), fairhealth.GroupQuery{Members: []string{ids[0], ids[1], ids[2]}, Z: 4}); err != nil {
		t.Fatal(err)
	}

	st := coord.PartitionStats()
	if len(st) != 4 {
		t.Fatalf("got %d stats rows, want 4", len(st))
	}
	var share float64
	var owned, assembles, writes int
	for _, s := range st {
		if !s.Live {
			t.Fatalf("partition %d not live", s.ID)
		}
		if s.VirtualNodes != partition.DefaultVirtualNodes {
			t.Fatalf("partition %d vnodes %d", s.ID, s.VirtualNodes)
		}
		share += s.RingShare
		owned += s.OwnedUsers
		assembles += int(s.Assembles)
		writes += int(s.OwnedWrites)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("ring shares sum to %v, want 1", share)
	}
	if owned != len(ids) {
		t.Fatalf("owned users sum %d, want %d known users", owned, len(ids))
	}
	if assembles != 3 {
		t.Fatalf("assembles sum %d, want 3 (one per member)", assembles)
	}
	if writes == 0 {
		t.Fatal("no owned writes counted")
	}
}

// TestRingDeterminismAndBalance pins placement stability (same shape →
// same owners) and rough balance across virtual nodes.
func TestRingDeterminismAndBalance(t *testing.T) {
	a := partition.NewRing(4, 0)
	b := partition.NewRing(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("patient%04d", i)
		pa, pb := a.Owner(key), b.Owner(key)
		if pa != pb {
			t.Fatalf("ring placement not deterministic for %s: %d vs %d", key, pa, pb)
		}
		counts[pa]++
	}
	for p, n := range counts {
		if n < 400 || n > 2200 {
			t.Fatalf("partition %d owns %d/4000 users — ring badly unbalanced: %v", p, n, counts)
		}
	}
	// Live-aware lookup degrades to the next partition and only for
	// keys the dead partition owned.
	dead := 2
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("patient%04d", i)
		p, ok := a.OwnerLive(key, func(i int) bool { return i != dead })
		if !ok || p == dead {
			t.Fatalf("OwnerLive routed %s to %d (ok=%v)", key, p, ok)
		}
		if a.Owner(key) != dead && p != a.Owner(key) {
			t.Fatalf("OwnerLive moved %s although its owner %d is live", key, a.Owner(key))
		}
	}
	if _, ok := a.OwnerLive("anyone", func(int) bool { return false }); ok {
		t.Fatal("OwnerLive reported an owner with no live partitions")
	}
}

// TestWritesValidateBeforeWAL pins that an invalid write reaches
// neither the log nor any replica.
func TestWritesValidateBeforeWAL(t *testing.T) {
	dir := t.TempDir()
	coord, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddRating("", "doc1", 3); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := coord.AddRating("u1", "doc1", 99); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
	if err := coord.AddPatient(fairhealth.Patient{ID: "p1", Problems: []string{"not-a-code"}}); err == nil {
		t.Fatal("invalid problem code accepted")
	}
	if err := coord.RemoveRating("u1", "doc1"); err == nil {
		t.Fatal("removing a missing rating succeeded")
	}
	st := coord.PartitionStats()
	for _, s := range st {
		if s.AppliedSeq != 0 {
			t.Fatalf("invalid writes reached the WAL: %+v", s)
		}
	}
}

// TestStreamRulesOnEveryEngine pins the ServeStream rules on all three
// engines: a callback error stops the stream after that entry and is
// returned, and a context cancelled up front yields every index with
// the context's error.
func TestStreamRulesOnEveryEngine(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	networked, _ := startNetCluster(t, baseConfig(), 2)
	engines := []struct {
		name string
		seedTarget
		ServeStream func(context.Context, []fairhealth.GroupQuery, func(fairhealth.BatchGroupResult) error) error
	}{
		{"system", single, single.ServeStream},
		{"coordinator", coord, coord.ServeStream},
		{"networked", networked, networked.ServeStream},
	}
	for _, e := range engines {
		seed(t, e.seedTarget, 5, 24)
	}
	users := single.SortedUsers()
	queries := make([]fairhealth.GroupQuery, 6)
	for k := range queries {
		queries[k] = fairhealth.GroupQuery{Members: []string{users[k], users[k+6]}, Z: 4}
	}

	for _, e := range engines {
		t.Run(e.name+"/fn-error-stops", func(t *testing.T) {
			boom := errors.New("sink full")
			seen := 0
			err := e.ServeStream(context.Background(), queries, func(fairhealth.BatchGroupResult) error {
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
				t.Errorf("callback ran %d times, want exactly 2", seen)
			}
		})
		t.Run(e.name+"/cancelled-upfront", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			seen := make(map[int]bool)
			err := e.ServeStream(ctx, queries, func(r fairhealth.BatchGroupResult) error {
				seen[r.Index] = true
				if !errors.Is(r.Err, context.Canceled) {
					t.Errorf("entry %d: err = %v, want context.Canceled", r.Index, r.Err)
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(seen) != len(queries) {
				t.Fatalf("yielded %d entries, want %d", len(seen), len(queries))
			}
		})
	}
}

// TestServeWithNoLivePartitions pins the routing error the member
// check carries: with every partition detached, Serve reports
// ErrNoLivePartitions rather than an unknown patient.
func TestServeWithNoLivePartitions(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 3, 12)
	ids := coord.Patients()
	for i := 0; i < coord.PartitionCount(); i++ {
		if err := coord.Detach(i); err != nil {
			t.Fatal(err)
		}
	}
	_, err = coord.Serve(context.Background(), fairhealth.GroupQuery{Members: []string{ids[0], ids[1]}, Z: 4})
	if !errors.Is(err, partition.ErrNoLivePartitions) {
		t.Fatalf("err = %v, want ErrNoLivePartitions", err)
	}
}
