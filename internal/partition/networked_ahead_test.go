package partition_test

import (
	"strings"
	"testing"
	"time"

	"fairhealth/internal/partition"
)

// commitThree writes three ratings through a short-lived router over
// addrs, leaving those workers at applied seq 3.
func commitThree(t *testing.T, addrs []string) {
	t.Helper()
	old, err := partition.NewNetworked(baseConfig(), addrs, partition.NetOptions{HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	for _, item := range []string{"x1", "x2", "x3"} {
		if err := old.AddRating("a", item, 4); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetworkedRefusesWorkerAheadAtStart: a router started fresh over
// a worker an earlier router wrote to must not count it live — the
// worker would acknowledge the new router's seq 1 as a duplicate and
// silently drop it.
func TestNetworkedRefusesWorkerAheadAtStart(t *testing.T) {
	ahead := startNetWorker(t, baseConfig(), "")
	fresh := startNetWorker(t, baseConfig(), "")
	t.Cleanup(func() {
		ahead.stop()
		fresh.stop()
	})
	commitThree(t, []string{ahead.addr})

	// Every peer ahead: construction fails like an unreachable cluster.
	if coord, err := partition.NewNetworked(baseConfig(), []string{ahead.addr}, partition.NetOptions{}); err == nil {
		coord.Close()
		t.Fatal("router over a worker ahead of it started")
	} else if !strings.Contains(err.Error(), partition.ErrWorkerAhead.Error()) {
		t.Fatalf("start error %q does not name the worker ahead", err)
	}

	coord, err := partition.NewNetworked(baseConfig(), []string{ahead.addr, fresh.addr}, partition.NetOptions{
		HealthEvery: 20 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddRating("b", "x1", 5); err != nil {
		t.Fatal(err)
	}
	// Give the health loop several revive rounds: the worker stays out.
	time.Sleep(100 * time.Millisecond)
	if rows := coord.PartitionStats(); rows[0].Live || !rows[1].Live {
		t.Fatalf("live = %v/%v, want the ahead worker down and the fresh one up", rows[0].Live, rows[1].Live)
	}
	if st := ahead.sys.Stats(); st.Ratings != 3 || ahead.sys.HasRating("b", "x1") {
		t.Fatalf("ahead worker holds %d ratings (b/x1 present: %v), want its own 3 untouched",
			st.Ratings, ahead.sys.HasRating("b", "x1"))
	}
	if !fresh.sys.HasRating("b", "x1") {
		t.Fatal("fresh worker missed the new router's write")
	}
}

// TestNetworkedProbeRefusesWorkerAhead: a live worker that another
// router writes to moves ahead of this one; the health probe takes it
// down instead of letting it swallow this router's writes.
func TestNetworkedProbeRefusesWorkerAhead(t *testing.T) {
	coord, workers := startNetCluster(t, baseConfig(), 1)
	commitThree(t, []string{workers[0].addr})
	waitLive(t, coord, 0)
}
