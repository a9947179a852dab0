package partition_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/ratings"
	"fairhealth/internal/scoring"
)

// netWorker is one in-test "worker process": a full System behind a
// transport server on a loopback listener. stop/start model a process
// kill and a cold restart (the restarted worker comes back EMPTY and
// must converge through document replay + compressed journal
// catch-up).
type netWorker struct {
	cfg  fairhealth.Config
	addr string
	sys  *fairhealth.System
	srv  *transport.Server
}

func startNetWorker(t testing.TB, cfg fairhealth.Config, addr string) *netWorker {
	t.Helper()
	w := &netWorker{cfg: cfg, addr: addr}
	w.start(t)
	return w
}

func (w *netWorker) start(t testing.TB) {
	t.Helper()
	sys, err := fairhealth.New(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(sys, partition.ConfigFingerprint(sys.Config()))
	addr := w.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// A freshly closed listener's port can linger briefly; restarts
	// retry the bind instead of flaking.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.addr = ln.Addr().String()
	w.sys = sys
	w.srv = srv
	go srv.Serve(ln)
}

func (w *netWorker) stop() {
	w.srv.Close()
	w.sys.Close()
}

// startNetCluster brings up n workers plus a networked coordinator
// over them, with fast health/backoff settings for kill tests.
func startNetCluster(t testing.TB, cfg fairhealth.Config, n int) (*partition.Networked, []*netWorker) {
	t.Helper()
	workers := make([]*netWorker, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i] = startNetWorker(t, cfg, "")
		addrs[i] = workers[i].addr
	}
	coord, err := partition.NewNetworked(cfg, addrs, partition.NetOptions{
		HealthEvery: 20 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Close()
		for _, w := range workers {
			w.stop()
		}
	})
	return coord, workers
}

func waitLive(t testing.TB, coord *partition.Networked, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveCount() != want {
		if time.Now().After(deadline) {
			t.Fatalf("live peers stuck at %d, want %d", coord.LiveCount(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNetworkedBitIdenticalToSingleSystem is the networked tentpole
// contract: a coordinator fanning out to worker processes over TCP
// answers exactly — bit for bit, including per-member evidence — what
// one unpartitioned System answers, across every scorer × method ×
// aggregation, cold, warm, and after writes.
func TestNetworkedBitIdenticalToSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 7, 48)

	coord, _ := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 7, 48)

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
		got, gerr := coord.Serve(ctx, q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch: single=%v networked=%v", phase, werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged\nsingle:    %+v\nnetworked: %+v", phase, want, got)
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
			check(t, "warm", q)
			if cb.method == "mapreduce" {
				if _, err := coord.Serve(ctx, q); !errors.Is(err, fairhealth.ErrBadQuery) {
					t.Errorf("mapreduce: err = %v, want ErrBadQuery", err)
				}
			}
		})
	}

	for _, tgt := range []seedTarget{single, coord} {
		if err := tgt.AddRating(writer, "doc0003", 5); err != nil {
			t.Fatal(err)
		}
		if err := tgt.AddPatient(fairhealth.Patient{ID: "fresh-patient", Problems: []string{"38341003"}}); err != nil {
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

// TestNetworkedErrorsMatchSingleSystem pins the error surface across
// the wire: locally validated failures carry identical text, and
// sentinel identity survives for remote ones.
func TestNetworkedErrorsMatchSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, _ := startNetCluster(t, baseConfig(), 2)
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
			t.Fatalf("case %d: expected errors, got single=%v networked=%v", i, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Errorf("case %d: error text diverged:\nsingle:    %v\nnetworked: %v", i, werr, gerr)
		}
	}

	// Sentinels hold across the wire for httpapi's classifier.
	if _, gerr := coord.Serve(ctx, cases[0]); !errors.Is(gerr, fairhealth.ErrUnknownPatient) {
		t.Errorf("unknown member: %v, want ErrUnknownPatient", gerr)
	}
	if err := coord.RemoveRating(users[0], "never-rated"); !errors.Is(err, ratings.ErrNotFound) {
		t.Errorf("remove missing rating: %v, want ratings.ErrNotFound", err)
	}
}

// TestNetworkedBatchAndStreamMatchSingleSystem runs a mixed batch
// through both engines.
func TestNetworkedBatchAndStreamMatchSingleSystem(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, _ := startNetCluster(t, baseConfig(), 2)
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
		t.Fatalf("batch error mismatch: single=%v networked=%v", werr, gerr)
	}
	if len(want) != len(got) {
		t.Fatalf("batch lengths diverged: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Result, got[i].Result) {
			t.Errorf("entry %d results diverged", i)
		}
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Errorf("entry %d error mismatch: single=%v networked=%v", i, want[i].Err, got[i].Err)
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(queries) {
		t.Fatalf("stream yielded %d entries, want %d", len(seen), len(queries))
	}
}

// TestNetworkedCoalescedFanOut is the perf contract behind the
// batched RPC: one group serve costs at most one Relevances RPC per
// live peer — member count does not multiply round-trips.
func TestNetworkedCoalescedFanOut(t *testing.T) {
	coord, _ := startNetCluster(t, baseConfig(), 2)
	seed(t, coord, 9, 36)
	ids := coord.Patients()
	group := []string{ids[0], ids[3], ids[6], ids[9], ids[12], ids[15]}

	before := coord.TransportStats()
	if _, err := coord.Serve(context.Background(), fairhealth.GroupQuery{Members: group, Z: 5}); err != nil {
		t.Fatal(err)
	}
	after := coord.TransportStats()

	rpcs := after.RelevancesRPCs - before.RelevancesRPCs
	members := after.CoalescedMembers - before.CoalescedMembers
	if rpcs == 0 || rpcs > uint64(coord.LiveCount()) {
		t.Fatalf("cold serve of %d members took %d relevances RPCs, want 1..%d",
			len(group), rpcs, coord.LiveCount())
	}
	if members != uint64(len(group)) {
		t.Fatalf("coalesced %d members, want %d", members, len(group))
	}
	if after.MembersPerRPC < 1 {
		t.Fatalf("members/rpc = %v", after.MembersPerRPC)
	}
}

// TestNetworkedApproxServes exercises the approx path (candidate
// index on every replica) across the wire.
func TestNetworkedApproxServes(t *testing.T) {
	cfg := baseConfig()
	cfg.CandidateIndex = true
	coord, _ := startNetCluster(t, cfg, 2)
	seed(t, coord, 5, 24)
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

// TestNetworkedUserReads routes user-level reads to owners and pins
// them against the local full replica (every replica answers alike).
func TestNetworkedUserReads(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	coord, _ := startNetCluster(t, baseConfig(), 2)
	seed(t, single, 17, 24)
	seed(t, coord, 17, 24)

	for _, u := range single.SortedUsers()[:5] {
		want, werr := single.Recommend(u, 5)
		got, gerr := coord.Recommend(u, 5)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(want, got) {
			t.Fatalf("recommend %s diverged: %v/%v vs %v/%v", u, want, werr, got, gerr)
		}
		wp, _ := single.Peers(u)
		gp, _ := coord.Peers(u)
		if !reflect.DeepEqual(wp, gp) {
			t.Fatalf("peers %s diverged", u)
		}
		ws, _ := single.SearchPersonalized(u, "pain", 5, 0.3)
		gs, _ := coord.SearchPersonalized(u, "pain", 5, 0.3)
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("personalized search %s diverged", u)
		}
	}
}

// TestNetworkedKillRestartConverges is the catch-up acceptance
// criterion: serving survives a dead worker unchanged, and a worker
// restarted EMPTY converges through document replay plus compressed
// journal catch-up before rejoining the ring.
func TestNetworkedKillRestartConverges(t *testing.T) {
	coord, workers := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 13, 30)
	ids := coord.Patients()
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[3], ids[6]}, Z: 5, Explain: true}
	ctx := context.Background()
	before, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Kill one worker process outright.
	workers[1].stop()
	// Serving continues around it, bit-identically (every live worker
	// holds full state); in-flight failures reroute within the call.
	during, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, during) {
		t.Fatal("answers changed while a worker was dead")
	}
	waitLive(t, coord, 2)

	// Writes while dead must reach the restarted worker via journal
	// catch-up.
	if err := coord.AddRating(ids[0], "doc0001", 4); err != nil {
		t.Fatal(err)
	}
	if err := coord.AddDocument("post-kill-doc", "Recovery", "document added while a worker was down"); err != nil {
		t.Fatal(err)
	}

	catchupBefore := coord.TransportStats()
	workers[1].start(t) // fresh empty replica on the same address
	waitLive(t, coord, 3)

	snap := coord.TransportStats()
	if snap.CatchupBlocks == catchupBefore.CatchupBlocks {
		t.Fatal("rejoin did not ship any catch-up blocks")
	}
	if snap.CatchupWireBytes >= snap.CatchupRawBytes {
		t.Fatalf("catch-up blocks did not compress: %d wire vs %d raw",
			snap.CatchupWireBytes, snap.CatchupRawBytes)
	}

	// The restarted worker holds exactly the coordinator's state.
	wantStats := coord.Stats()
	gotStats := workers[1].sys.Stats()
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("restarted worker state diverged: %+v vs %+v", wantStats, gotStats)
	}

	// Ground truth after the post-kill writes: one fresh unpartitioned
	// system with the same inputs.
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	seed(t, truth, 13, 30)
	if err := truth.AddRating(ids[0], "doc0001", 4); err != nil {
		t.Fatal(err)
	}
	if err := truth.AddDocument("post-kill-doc", "Recovery", "document added while a worker was down"); err != nil {
		t.Fatal(err)
	}
	want, err := truth.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("rejoined deployment diverged from ground truth")
	}
}

// TestNetworkedWorkerKilledDuringCommit: commits replicate to the
// peers in parallel, so a worker can die with Apply RPCs to all three
// in flight. Every such write must still succeed (the dead peer is
// marked down, not waited for or reported), and the worker restarted
// empty must converge on exactly the coordinator's state.
func TestNetworkedWorkerKilledDuringCommit(t *testing.T) {
	coord, workers := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 17, 24)
	ids := coord.Patients()

	const writes = 300
	killAt := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for k := 0; k < writes; k++ {
			if k == writes/3 {
				close(killAt)
			}
			if err := coord.AddRating(ids[k%len(ids)], fmt.Sprintf("doc%04d", k%40), float64(1+k%5)); err != nil {
				done <- fmt.Errorf("write %d: %w", k, err)
				return
			}
		}
		done <- nil
	}()
	<-killAt
	workers[2].stop() // lands between or inside the commits that follow
	if err := <-done; err != nil {
		t.Fatalf("a write failed on peer loss: %v", err)
	}
	if live := coord.LiveCount(); live != 2 {
		t.Fatalf("live peers = %d after the kill, want 2 (the dead worker marked down)", live)
	}

	workers[2].start(t)
	waitLive(t, coord, 3)
	for i, w := range workers {
		if got, want := w.sys.Stats(), coord.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("worker %d diverged after rejoin: %+v vs %+v", i, got, want)
		}
	}
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	seed(t, truth, 17, 24)
	for k := 0; k < writes; k++ {
		if err := truth.AddRating(ids[k%len(ids)], fmt.Sprintf("doc%04d", k%40), float64(1+k%5)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, scorer := range scoring.Names() {
		q := fairhealth.GroupQuery{Members: []string{ids[1], ids[4], ids[9]}, Z: 5, Scorer: scorer, Explain: true}
		want, err := truth.Serve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Serve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: rejoined deployment diverged from ground truth", scorer)
		}
	}
}

// TestNetworkedConfigMismatchRefused: a worker running different
// scoring parameters must be refused at the handshake, not silently
// served against.
func TestNetworkedConfigMismatchRefused(t *testing.T) {
	wcfg := baseConfig()
	wcfg.Delta = 0.9 // diverges from the coordinator's scoring config
	w := startNetWorker(t, wcfg, "")
	defer w.stop()

	_, err := partition.NewNetworked(baseConfig(), []string{w.addr}, partition.NetOptions{})
	if err == nil {
		t.Fatal("coordinator accepted a config-mismatched worker")
	}
	if !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("mismatch error does not name the cause: %v", err)
	}
}

// TestNetworkedStatsSurfaces sanity-checks the per-peer rows and the
// transport section that /v1/stats serves.
func TestNetworkedStatsSurfaces(t *testing.T) {
	coord, _ := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 19, 24)
	ids := coord.Patients()
	if _, err := coord.Serve(context.Background(), fairhealth.GroupQuery{Members: []string{ids[0], ids[1]}, Z: 4}); err != nil {
		t.Fatal(err)
	}

	rows := coord.PartitionStats()
	if len(rows) != 3 {
		t.Fatalf("%d partition rows, want 3", len(rows))
	}
	owned := 0
	for _, r := range rows {
		if !r.Live {
			t.Fatalf("partition %d not live", r.ID)
		}
		owned += r.OwnedUsers
	}
	if owned == 0 {
		t.Fatal("no owned users across peers")
	}

	snap := coord.TransportStats()
	if snap.RPCs == 0 || snap.BytesOut == 0 || snap.BytesIn == 0 {
		t.Fatalf("transport counters empty: %+v", snap)
	}
	if snap.PeersLive != 3 || snap.PeersTotal != 3 {
		t.Fatalf("peer gauges: %d/%d, want 3/3", snap.PeersLive, snap.PeersTotal)
	}
	if snap.PoolConns == 0 {
		t.Fatal("no pooled connections after traffic")
	}
}

// TestNetworkedChurn drives concurrent serves and writes while one
// worker bounces — run under -race; every operation must succeed
// (rerouting and catch-up are invisible to callers).
func TestNetworkedChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test takes ~2s")
	}
	coord, workers := startNetCluster(t, baseConfig(), 3)
	seed(t, coord, 23, 24)
	ids := coord.Patients()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 1024)

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fairhealth.GroupQuery{
					Members: []string{ids[(i+j)%len(ids)], ids[(i+j+5)%len(ids)]},
					Z:       4,
				}
				if _, err := coord.Serve(ctx, q); err != nil {
					errs <- fmt.Errorf("serve: %w", err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := coord.AddRating(ids[j%len(ids)], "doc0002", float64(j%5)+1); err != nil {
				errs <- fmt.Errorf("write: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// One worker bounces twice while traffic flows.
	for b := 0; b < 2; b++ {
		time.Sleep(200 * time.Millisecond)
		workers[2].stop()
		time.Sleep(200 * time.Millisecond)
		workers[2].start(t)
		waitLive(t, coord, 3)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
