package partition_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/partition"
)

// memoGroups picks n groups of one member per peer, so each gather
// reads every peer.
func memoGroups(t testing.TB, coord *partition.Networked, ids []string, n int) [][]string {
	t.Helper()
	ids = slices.Clone(ids)
	slices.Sort(ids)
	byOwner := make([][]string, coord.PartitionCount())
	for _, u := range ids {
		byOwner[coord.Owner(u)] = append(byOwner[coord.Owner(u)], u)
	}
	groups := make([][]string, n)
	for i := range groups {
		for _, owned := range byOwner {
			if len(owned) <= i {
				t.Fatalf("a peer owns %d users, want ≥ %d", len(owned), n)
			}
			groups[i] = append(groups[i], owned[i])
		}
	}
	return groups
}

// serveEqual serves q on both engines and fails on any difference.
func serveEqual(t testing.TB, phase string, want, got interface {
	Serve(context.Context, fairhealth.GroupQuery) (*fairhealth.GroupResult, error)
}, q fairhealth.GroupQuery) {
	t.Helper()
	ctx := context.Background()
	w, err := want.Serve(ctx, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", phase, err)
	}
	g, err := got.Serve(ctx, q)
	if err != nil {
		t.Fatalf("%s: networked: %v", phase, err)
	}
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: %v diverged\nreference: %+v\nnetworked: %+v", phase, q.Members, w, g)
	}
}

// TestNetworkedWarmGroupCostsNoRPC: a repeated group is answered from
// the coordinator's memo, with no Relevances RPC, and CacheStats
// reports that memo as its groups layer.
func TestNetworkedWarmGroupCostsNoRPC(t *testing.T) {
	coord, _ := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 29, 24)
	ids := coord.Patients()
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[4], ids[8]}, Z: 5, Explain: true}
	ctx := context.Background()

	cold, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	before, memo := coord.TransportStats(), coord.CacheStats().Groups
	warm, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm answer differs from cold")
	}
	if rpcs := coord.TransportStats().RelevancesRPCs - before.RelevancesRPCs; rpcs != 0 {
		t.Fatalf("warm serve sent %d relevances RPCs, want 0", rpcs)
	}
	after := coord.CacheStats().Groups
	if after.Hits != memo.Hits+1 || after.Entries == 0 {
		t.Fatalf("groups memo: hits %d → %d, entries %d; want one hit over a resident entry",
			memo.Hits, after.Hits, after.Entries)
	}
}

// TestNetworkedMemoFreshUnderCommits: readers keep the memo hot while a
// writer commits; after every commit the writer's own serve of every
// group equals a single System that took the same writes, and at rest
// every group equals a cold rebuild. A memo drop that runs before the
// commit has reached every peer, or not at all, fails it. Run it under
// -race.
func TestNetworkedMemoFreshUnderCommits(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 31, 30)
	coord, _ := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 31, 30)

	ids := coord.Patients()
	groups := memoGroups(t, coord, ids, 4)
	query := func(i int) fairhealth.GroupQuery {
		scorer := []string{"user-cf", "item-cf"}[i%2]
		return fairhealth.GroupQuery{Members: groups[i], Z: 5, Scorer: scorer, Explain: true}
	}
	type write struct {
		user, item string
		value      float64
	}
	var writes []write
	for k := 0; k < 60; k++ {
		g := groups[k%len(groups)]
		writes = append(writes, write{g[k%len(g)], fmt.Sprintf("doc%04d", (k*13)%90), float64(1 + k%5)})
	}

	const readers = 4
	ctx := context.Background()
	stop := make(chan struct{})
	errs := make(chan error, readers) // one send per reader at most
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := r; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := coord.Serve(ctx, query(j%len(groups))); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	func() {
		defer func() { close(stop); wg.Wait() }()
		for k, w := range writes {
			for _, tgt := range []seedTarget{single, coord} {
				if err := tgt.AddRating(w.user, w.item, w.value); err != nil {
					t.Fatal(err)
				}
			}
			for i := range groups {
				serveEqual(t, fmt.Sprintf("after commit %d", k+1), single, coord, query(i))
			}
		}
	}()
	close(errs)
	for err := range errs {
		t.Fatalf("reader: %v", err)
	}

	cold, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	seed(t, cold, 31, 30)
	for _, w := range writes {
		if err := cold.AddRating(w.user, w.item, w.value); err != nil {
			t.Fatal(err)
		}
	}
	for i := range groups {
		serveEqual(t, "at rest", cold, coord, query(i))
	}
}

// converge polls until every group served by coord equals truth and
// every peer is live again.
func converge(t *testing.T, coord *partition.Networked, truth *fairhealth.System, groups [][]string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		diff := ""
		for _, g := range groups {
			q := fairhealth.GroupQuery{Members: g, Z: 5, Explain: true}
			want, werr := truth.Serve(ctx, q)
			got, gerr := coord.Serve(ctx, q)
			if werr != nil || gerr != nil || !reflect.DeepEqual(want, got) {
				diff = fmt.Sprintf("%v: %+v (%v) vs %+v (%v)", g, want, werr, got, gerr)
				break
			}
		}
		live := coord.LiveCount()
		if diff == "" && live == coord.PartitionCount() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after a silent restart: %d live, first diff %s", live, diff)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// silentRestart restarts w empty on its old address. The pause lets
// the coordinator's pooled connections see the close, so its next call
// redials the empty worker without any error.
func silentRestart(t *testing.T, w *netWorker) {
	t.Helper()
	w.stop()
	time.Sleep(10 * time.Millisecond)
	w.start(t)
}

// TestNetworkedSilentRestartIdleConverges: a worker restarted empty on
// its old address, with no traffic in between, is found by the health
// probe (its applied seq is below what it acknowledged) and caught up.
func TestNetworkedSilentRestartIdleConverges(t *testing.T) {
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	seed(t, truth, 37, 24)
	coord, workers := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 37, 24)
	groups := memoGroups(t, coord, coord.Patients(), 3)

	silentRestart(t, workers[1])
	converge(t, coord, truth, groups)
}

// TestNetworkedSilentRestartWriteConverges: the first write after a
// silent restart must not be applied over the worker's lost state; the
// worker refuses it as a sequence gap, goes down and converges.
func TestNetworkedSilentRestartWriteConverges(t *testing.T) {
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	seed(t, truth, 41, 24)
	coord, workers := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 41, 24)
	ids := coord.Patients()
	groups := memoGroups(t, coord, ids, 3)

	silentRestart(t, workers[1])
	for _, tgt := range []seedTarget{truth, coord} {
		if err := tgt.AddRating(ids[2], "doc0005", 5); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, coord, truth, groups)
}

// TestNetworkedSeqGapTakesPeerDown pins the gap path without the
// health loop: the write after a silent restart succeeds, takes the
// restarted peer down at once, and serving reroutes around it.
func TestNetworkedSeqGapTakesPeerDown(t *testing.T) {
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	seed(t, truth, 43, 24)
	workers := make([]*netWorker, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startNetWorker(t, baseConfig(), "")
		addrs[i] = workers[i].addr
	}
	coord, err := partition.NewNetworked(baseConfig(), addrs, partition.NetOptions{HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Close()
		for _, w := range workers {
			w.stop()
		}
	})
	seed(t, coord, 43, 24)
	ids := coord.Patients()

	silentRestart(t, workers[1])
	for _, tgt := range []seedTarget{truth, coord} {
		if err := tgt.AddRating(ids[2], "doc0005", 5); err != nil {
			t.Fatal(err)
		}
	}
	if live := coord.LiveCount(); live != 2 {
		t.Fatalf("live peers = %d after the refused record, want 2", live)
	}
	for _, g := range memoGroups(t, coord, ids, 3) {
		serveEqual(t, "rerouted", truth, coord, fairhealth.GroupQuery{Members: g, Z: 5, Explain: true})
	}
}
