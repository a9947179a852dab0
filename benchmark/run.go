package main

// One run of one workload: set-up → warm-up → timed phases → checks →
// (traced run only) restarts and the layer walk.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/httpapi"
)

// workload is one row of the workload table (README.md has the
// rationale for each).
type workload struct {
	name  string
	net3  bool // coordinator + 3 partition workers, else one iphrd
	churn bool // writes beside fresh-group reads, else read-only hot pool
}

var workloads = []workload{
	{name: "warm_http"},
	{name: "churn_http", churn: true},
	{name: "warm_net3", net3: true},
	{name: "churn_net3", net3: true, churn: true},
}

// settings are the knobs of a run.
type settings struct {
	seed    int64
	seconds time.Duration // length of the main phase
	quick   bool          // smoke mode: fewer set-ups and restarts
	root    string        // checkout root
	outDir  string        // benchmark/out
	bin     string        // the iphrd built for this run
}

const (
	// setupRepeats and setupBudget bound the repeated set-up: set up
	// until setupRepeats set-ups are done or setupBudget has been
	// spent, and report the median. One iphrd is up in 0.1–0.4 s and
	// gets all five; the networked topology takes ≈7 s (26,000 serial
	// replicated commits, itself an average over 78,000 RPCs) and gets
	// one. The last deployment is the one the run measures.
	setupRepeats = 5
	setupBudget  = 3 * time.Second
	// restartsHTTP and restartsNet3 are how many restarts the traced
	// run times (a worker rejoin waits on the coordinator's 500 ms
	// health tick, so it gets fewer).
	restartsHTTP = 5
	restartsNet3 = 3
	// batchRequests and burstWrites are the lengths of the batch phase
	// and of a warm workload's closing write burst. They are counts,
	// not durations: both phases change the caches as they go (a batch
	// of fresh groups warms them, a write evicts rows that nothing
	// recomputes), so a timed phase would report how far it got. Client
	// 0 sends them alone, one request at a time, so a latency is the
	// cost of the request and not of how two happened to overlap.
	batchRequests = 20
	burstWrites   = 512
)

// run carries one workload run's state.
type run struct {
	settings
	w      workload
	dir    string // benchmark/out/<workload>
	ds     *dataset.Dataset
	plan   *plan
	oracle *fairhealth.System

	topo    *topology
	clients []*httpClient
	streams []*clientStream
	probes  []query

	res       results
	attempted int
	failed    int
	problems  []error

	last time.Time // when the stage being reported began

	probe   *probe
	probeMS []float64 // machine-speed probe readings, taken between phases

	walkBlockBytes int          // size of the block the compressor was timed on
	budget         []budgetLine // the printed latency budget (traced run)
}

// stage reports on standard error what the run does next and how long
// the previous stage took.
func (r *run) stage(name string) {
	now := time.Now()
	if !r.last.IsZero() {
		fmt.Fprintf(os.Stderr, " %.1fs\n", now.Sub(r.last).Seconds())
	}
	if name != "" {
		fmt.Fprintf(os.Stderr, "[%s] %s ...", r.w.name, name)
		r.last = now
	} else {
		r.last = time.Time{}
	}
}

func (r *run) problem(err error) {
	r.problems = append(r.problems, err)
}

// runWorkload runs w once. traced selects the per-layer run (one
// set-up, every second request traced, restarts, layer walk) over the
// end-to-end run (repeated set-up, tracing off, batch phase).
func runWorkload(ctx context.Context, s settings, w workload, traced bool) (*run, error) {
	r := &run{settings: s, w: w, dir: filepath.Join(s.outDir, w.name), res: make(results)}
	// A fresh directory per pass: server logs and state directories of
	// earlier runs do not pile up.
	if err := os.RemoveAll(r.dir); err != nil {
		return r, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return r, err
	}
	defer func() {
		r.stage("")
		if r.topo != nil {
			r.topo.stop()
		}
		for _, c := range r.clients {
			c.close()
		}
		if r.oracle != nil {
			r.oracle.Close()
		}
	}()
	if err := r.execute(ctx, traced); err != nil {
		return r, err
	}
	for _, c := range r.clients {
		r.attempted += c.attempted
		r.failed += c.failed
		if c.firstErr != nil {
			r.problem(fmt.Errorf("client %d: %d of %d requests failed, first: %w", c.id, c.failed, c.attempted, c.firstErr))
		}
	}
	return r, errors.Join(r.problems...)
}

func (r *run) execute(ctx context.Context, traced bool) error {
	var err error
	var corp corpus
	r.stage("oracle")
	if r.ds, corp, err = generateCorpus(); err != nil {
		return err
	}
	r.plan = newPlan(r.seed, r.w.churn, corp)
	r.probes = r.plan.probeSet()
	if r.oracle, err = newLoadedSystem(r.ds); err != nil {
		return err
	}
	r.probe = newProbe()
	r.stage("set-up")
	if err := r.setUp(ctx, traced); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, newHTTPClient(c, r.topo.base))
		r.streams = append(r.streams, r.plan.client(c))
	}
	mainOp := func(c int) op { return r.streams[c].next() }

	// Warm-up, untimed, to the state a long-running server is in. A
	// warm workload asks every hot-pool group once (each answer
	// compared to the oracle), so every timed query is a group-memo
	// hit. A churn workload asks every user's peer set once, so that
	// what is cold in the timed phases is what the writes evicted, not
	// what a 10 s run had not reached yet. Then a little of the main
	// traffic, which also builds the item-cf and profile models.
	r.stage("warm-up")
	if r.w.churn {
		runOnce(ctx, r.clients, r.plan.touchOps(), nil)
	} else {
		expect, err := r.compare(ctx, "hot pool, first answers", r.plan.hotQueries())
		if err != nil {
			return err
		}
		for _, c := range r.clients {
			c.expect = expect // from here on every hot-pool reply is compared
		}
	}
	runPhase(ctx, r.clients, max(r.seconds/10, time.Second), mainOp, nil)
	r.probeMS = append(r.probeMS, r.probe.run())

	// Main phase. The end-to-end run keeps tracing off throughout; in
	// the traced run each client traces every second op.
	r.stage("main phase")
	before, err := r.snapshot()
	if err != nil {
		return err
	}
	var trs []*tracer
	if traced {
		for c := 0; c < clients; c++ {
			trs = append(trs, newTracer(c, time.Now()))
		}
	}
	main := runPhase(ctx, r.clients, r.seconds, mainOp, trs)
	if traced {
		var spans []span
		for _, tr := range trs {
			spans = append(spans, tr.spans...)
		}
		if err := writeSpans(filepath.Join(r.outDir, "trace-"+r.w.name+".jsonl"), spans); err != nil {
			return err
		}
		r.clientSpanMetrics(spans, main)
	}
	after, err := r.snapshot()
	if err != nil {
		return err
	}
	r.probeMS = append(r.probeMS, r.probe.run())

	// Batch phase: recommend:batch with 16 queries per request (the
	// traced run prices batches in the walk instead).
	var batch phaseResult
	if !traced {
		r.stage("batch phase")
		ops := make([]op, batchRequests)
		for i := range ops {
			ops[i] = r.streams[0].nextBatch()
		}
		batch = runOnce(ctx, r.clients[:1], ops, nil)
	}

	// Writes: a churn workload's came with the main phase. A warm
	// workload ends with a burst of rating writes on the now read-idle
	// servers (it must come last: every write evicts the group memo).
	writes, wBefore, wAfter := main, before, after
	if !r.w.churn {
		r.stage("write burst")
		if wBefore, err = r.snapshot(); err != nil {
			return err
		}
		burst := make([]op, burstWrites)
		for i := range burst {
			burst[i] = r.streams[0].nextWrite()
		}
		writes = runOnce(ctx, r.clients[:1], burst, nil)
		if wAfter, err = r.snapshot(); err != nil {
			return err
		}
	}

	r.probeMS = append(r.probeMS, r.probe.run())
	r.res.set("machine.probe_ms", median(r.probeMS), len(r.probeMS))

	r.stage("probe set")
	if err := r.checkProbeSet(ctx, "after traffic"); err != nil {
		return err
	}

	if traced {
		r.countMetrics(main, before, after, writes, wBefore, wAfter)
		wr := writes.samples[opWrite]
		r.res.set("write_p99_ms", segmentPercentile(wr, writes.dur.Nanoseconds(), r.writeSegments(), 0.99)/1e6, len(wr))
		r.stage("restarts")
		if err := r.restarts(ctx); err != nil {
			return err
		}
	} else {
		r.endToEndMetrics(main, batch, writes)
		coord, workers, err := r.topo.usage()
		if err != nil {
			return err
		}
		r.res.set("rss_peak_mb", coord.peakMB+workers.peakMB, 0)
	}
	r.stage("stop")
	r.topo.stop()
	r.topo = nil

	if traced {
		return r.walk(ctx)
	}
	return ctx.Err()
}

// setUp starts the deployment: once for the traced run, repeatedly
// (within setupBudget) for the end-to-end run, which reports the
// median as setup_s.
func (r *run) setUp(ctx context.Context, traced bool) error {
	repeats := setupRepeats
	if traced || r.quick {
		repeats = 1
	}
	var took []float64
	var spent time.Duration
	for len(took) < repeats && (len(took) == 0 || spent < setupBudget) {
		if r.topo != nil {
			r.topo.stop()
			r.topo = nil
		}
		t, d, err := startTopology(ctx, r.bin, r.dir, r.w)
		if err != nil {
			return err
		}
		r.topo = t
		took = append(took, d.Seconds())
		spent += d
	}
	if !traced {
		r.res.set("setup_s", median(took), len(took))
	}
	return nil
}

// snap is the server-side state read at a phase boundary.
type snap struct {
	stats          httpapi.StatsResponse
	coord, workers procUsage
	walBytes       int64
}

func (r *run) snapshot() (snap, error) {
	var s snap
	var err error
	if s.stats, err = r.topo.stats(); err != nil {
		return s, err
	}
	if s.coord, s.workers, err = r.topo.usage(); err != nil {
		return s, err
	}
	s.walBytes = r.topo.walBytes()
	return s, nil
}

func (r *run) endToEndMetrics(main, batch, writes phaseResult) {
	g := main.samples[opQuery]
	r.res.set("group_p50_ms", segmentPercentile(g, main.dur.Nanoseconds(), segments, 0.50)/1e6, len(g))
	r.res.set("group_p99_ms", segmentPercentile(g, main.dur.Nanoseconds(), segments, 0.99)/1e6, len(g))
	r.res.set("ops_per_s", float64(main.ops())/main.elapsed.Seconds(), main.ops())
	b := batch.samples[opBatch]
	r.res.set("batch_p50_ms", segmentPercentile(b, batch.dur.Nanoseconds(), 1, 0.50)/1e6, len(b))
	w := writes.samples[opWrite]
	r.res.set("write_p50_ms", segmentPercentile(w, writes.dur.Nanoseconds(), r.writeSegments(), 0.50)/1e6, len(w))
}

// writeSegments is how many segments a write percentile is taken over:
// the main phase's on a churn workload; one on a warm workload, whose
// writes are a fixed burst that gets cheaper as it drains the caches.
func (r *run) writeSegments() int {
	if r.w.churn {
		return segments
	}
	return 1
}

// clientSpanMetrics reports the client-side span medians of the traced
// requests and what tracing cost against the untraced ones.
func (r *run) clientSpanMetrics(spans []span, main phaseResult) {
	// Only group queries: the steps whose parent is a client.op.group.
	groupOps := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name == "client.op.group" {
			groupOps[s.ID] = true
		}
	}
	steps := make(map[string][]int64)
	for _, s := range spans {
		if groupOps[s.Parent] {
			steps[s.Name] = append(steps[s.Name], s.End-s.Start)
		}
	}
	for _, step := range []string{"encode", "roundtrip", "decode", "check"} {
		d := steps["client."+step]
		r.res.set("client."+step+"_us", p50us(d), len(d))
	}
	var on, off []sample
	for _, s := range main.samples[opQuery] {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	p50 := func(ss []sample) float64 { return segmentPercentile(ss, main.dur.Nanoseconds(), segments, 0.50) }
	if base := p50(off); base > 0 {
		r.res.set("trace.overhead_pct", 100*(p50(on)-base)/base, len(on))
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func hitRatio(before, after fairhealth.CacheCounters) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}

// countMetrics turns the /v1/stats and /proc deltas across the main
// phase (and across the phase that wrote) into per-layer counts.
func (r *run) countMetrics(main phaseResult, b, a snap, writes phaseResult, wb, wa snap) {
	set := func(name string, v float64) { r.res.set(name, v, 0) }
	set("cache.groups.hit_ratio", hitRatio(b.stats.Caches.Groups, a.stats.Caches.Groups))
	set("cache.peers.hit_ratio", hitRatio(b.stats.Caches.Peers, a.stats.Caches.Peers))
	set("cache.similarity.hit_ratio", hitRatio(b.stats.Caches.Similarity, a.stats.Caches.Similarity))
	set("cache.groups.entries", float64(a.stats.Caches.Groups.Entries))
	set("cache.similarity.entries", float64(a.stats.Caches.Similarity.Entries))
	if b.stats.Server != nil && a.stats.Server != nil {
		set("httpapi.rejected", float64(a.stats.Server.Rejected-b.stats.Server.Rejected))
	} else {
		set("httpapi.rejected", 0)
	}

	serves := float64(len(main.samples[opQuery]))
	nWrites := float64(len(writes.samples[opWrite]))
	var tb, ta, twb, twa transportCounts
	if a.stats.Transport != nil {
		tb, ta = transportOf(b), transportOf(a)
		twb, twa = transportOf(wb), transportOf(wa)
	}
	relRPCs := ta.relevances - tb.relevances
	set("transport.rpcs_per_serve", ratio(relRPCs, serves))
	set("transport.members_per_rpc", ratio(ta.members-tb.members, relRPCs))
	set("transport.bytes_in_per_serve", ratio(ta.bytesIn-tb.bytesIn, serves))
	set("transport.bytes_out_per_serve", ratio(ta.bytesOut-tb.bytesOut, serves))
	set("transport.rpcs_per_write", ratio((twa.rpcs-twb.rpcs)-(twa.relevances-twb.relevances), nWrites))
	set("transport.retries", ta.retries-tb.retries)
	set("transport.errors", ta.errors-tb.errors)

	var total, top float64
	for i := range a.stats.Partitions {
		d := float64(a.stats.Partitions[i].Assembles - b.stats.Partitions[i].Assembles)
		total += d
		top = max(top, d)
	}
	set("partition.routed_share_max", ratio(top, total))

	ops := float64(main.ops())
	set("proc.cpu_ms_per_op.coordinator", ratio(a.coord.cpuMS-b.coord.cpuMS, ops))
	set("proc.cpu_ms_per_op.workers", ratio(a.workers.cpuMS-b.workers.cpuMS, ops))
	set("proc.rss_mb.coordinator", a.coord.rssMB)
	set("proc.rss_mb.workers", a.workers.rssMB)
	set("wal.bytes_per_write", ratio(float64(wa.walBytes-wb.walBytes), nWrites))
}

type transportCounts struct {
	rpcs, relevances, members, bytesIn, bytesOut, retries, errors float64
}

func transportOf(s snap) transportCounts {
	t := s.stats.Transport
	if t == nil {
		return transportCounts{}
	}
	return transportCounts{
		rpcs: float64(t.RPCs), relevances: float64(t.RelevancesRPCs), members: float64(t.CoalescedMembers),
		bytesIn: float64(t.BytesIn), bytesOut: float64(t.BytesOut),
		retries: float64(t.Retries), errors: float64(t.Errors),
	}
}

// checkProbeSet first applies the writes the servers have acknowledged to the
// oracle (per client, in order; the clients' write sets are disjoint,
// so the final state does not depend on their interleaving), then asks
// the servers the probe set and requires every answer to equal the
// oracle's bit-for-bit. On *_net3 that is "networked ≡ one System"
// asserted on live processes.
func (r *run) checkProbeSet(ctx context.Context, when string) error {
	for _, c := range r.clients {
		for _, o := range c.acked {
			if err := r.oracle.AddRating(o.user, o.item, o.value); err != nil {
				return fmt.Errorf("oracle replay: %w", err)
			}
		}
		c.acked = nil
	}
	_, err := r.compare(ctx, "probe set "+when, r.probes)
	return err
}

// compare asks the servers and the oracle the same queries (at the
// same time: nothing is being timed) and requires every server answer
// to equal the oracle's bit-for-bit. It returns the oracle's answers.
func (r *run) compare(ctx context.Context, what string, qs []query) ([]answer, error) {
	var want []answer
	var oracleErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		want, oracleErr = oracleAnswers(ctx, r.oracle, qs)
	}()
	got := make([][]answer, len(qs))
	runOnce(ctx, r.clients, queryOps(qs), func(i int, a []answer) { got[i] = a })
	<-done
	if oracleErr != nil {
		return nil, oracleErr
	}
	for i, a := range got {
		if a == nil {
			continue // the request failed and is already counted
		}
		if err := sameAnswer(a[0], want[i]); err != nil {
			// The request itself succeeded; its answer is what failed.
			r.failed++
			r.problem(fmt.Errorf("%s: query %d (scorer %q): %w", what, i, qs[i].scorer, err))
		}
	}
	return want, nil
}

// restarts times restartsHTTP/restartsNet3 restarts and reports the
// median as restart_s. One iphrd: SIGTERM → start with the same flags
// (so the same -state directory on churn_http) → /healthz. Networked:
// SIGTERM worker 0 → start it empty → it has rejoined with no replay
// lag. Wherever the restarted state must equal the oracle's, the probe
// set is asked again: every acknowledged write survived.
func (r *run) restarts(ctx context.Context) error {
	n := restartsHTTP
	if r.w.net3 {
		n = restartsNet3
	}
	if r.quick {
		n = 1
	}
	var took []float64
	for i := 0; i < n; i++ {
		var d time.Duration
		var err error
		if r.w.net3 {
			d, err = r.restartWorker(ctx, 0)
		} else {
			d, err = r.topo.restartCoordinator(ctx)
		}
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		took = append(took, d.Seconds())
		// A stateless iphrd reloads the demo corpus and forgets the
		// warm workload's write burst, by design; everywhere else the
		// restarted deployment must still equal the oracle.
		if r.w.net3 || r.topo.stateDir != "" {
			for _, c := range r.clients {
				c.close() // the old connections died with the server
			}
			if err := r.checkProbeSet(ctx, fmt.Sprintf("after restart %d", i+1)); err != nil {
				return err
			}
		}
	}
	r.res.set("restart_s", median(took), len(took))
	return nil
}

// restartWorker restarts partition worker i. The coordinator only
// learns a peer is gone when an RPC to it fails, so one rating write
// is sent while the worker is down (the next probe-set check applies it to the
// oracle like any acknowledged write); the
// health loop then revives the restarted worker by journal catch-up.
func (r *run) restartWorker(ctx context.Context, i int) (time.Duration, error) {
	r.topo.procs[1+i].halt()
	o := r.streams[0].nextWrite()
	if _, _, ok := r.clients[0].do(ctx, o, nil); !ok {
		return 0, fmt.Errorf("write while worker %d is down: %w", i, r.clients[0].firstErr)
	}
	start := time.Now()
	p, err := r.topo.respawn(1 + i)
	if err != nil {
		return 0, err
	}
	err = waitFor(ctx, p, func() bool {
		st, err := r.topo.stats()
		if err != nil || st.Transport == nil || len(st.Partitions) <= i {
			return false
		}
		return st.Transport.PeersLive == st.Transport.PeersTotal && st.Partitions[i].Live && st.Partitions[i].ReplayLag == 0
	})
	return time.Since(start), err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
