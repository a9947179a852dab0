package main

// The layer walk: after the traced run the benchmark loads the same
// corpus in-process and, for ops sampled from the workload's own
// stream, times the calls into each layer's public functions — one
// span per call, the op as its parent. Nothing inside the program is
// instrumented; the spans sit in this package, around the calls.
//
// Span names are the metric names, so a metric's value is the median
// duration of the spans that carry its name.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairhealth"
	"fairhealth/internal/core"
	"fairhealth/internal/group"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/model"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/scoring"
	"fairhealth/internal/wal"
)

const (
	// walkOps is how many ops of the workload's stream the walk
	// samples (walkOpsQuick in smoke mode); expensive states are
	// measured on every walkStride-th.
	walkOps      = 200
	walkOpsQuick = 40
	walkStride   = 4
	// walkWarmOps of a churn stream follow the peer-set pass in the
	// replay's untimed warm-up, as a little of the main traffic follows
	// it in the run's.
	walkWarmOps = 20
	// walkFew is the sample count of the calls that cost tens of
	// milliseconds each (batches, full flushes).
	walkFew = 8
	// bruteM is the brute-force candidate pool (the HTTP default).
	bruteM = httpapi.DefaultBruteM
)

// walker records the walk's spans. Worker-side spans arrive from
// transport goroutines, hence the lock and the atomics; cur is the span
// a wrapped backend call names as its parent (the walk is serial, so
// whatever runs inside an op belongs to that op).
type walker struct {
	epoch time.Time
	next  atomic.Uint64
	cur   atomic.Uint64
	req   atomic.Uint64

	mu     sync.Mutex
	spans  []span
	values map[string][]float64 // answer-quality samples, by metric name
}

// open reserves a span ID so children can name it before it ends.
func (w *walker) open() uint64 { return w.next.Add(1) }

func (w *walker) close(id, parent uint64, name string, start, end time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.spans = append(w.spans, span{ID: id, Parent: parent, Req: w.req.Load(), Name: name,
		Start: start.Sub(w.epoch).Nanoseconds(), End: end.Sub(w.epoch).Nanoseconds()})
}

// timed runs fn inside a span named name under parent.
func (w *walker) timed(parent uint64, name string, fn func()) {
	id := w.open()
	start := time.Now()
	fn()
	w.close(id, parent, name, start, time.Now())
}

// op runs fn as one walked op: a root span whose ID fn's spans use as
// parent.
func (w *walker) op(name string, fn func(op uint64)) {
	id := w.open()
	w.req.Store(id)
	start := time.Now()
	fn(id)
	w.close(id, 0, name, start, time.Now())
}

// under runs fn inside a span that wrapped backend calls made during
// fn name as their parent.
func (w *walker) under(parent uint64, name string, fn func()) {
	id := w.open()
	prev := w.cur.Swap(id)
	start := time.Now()
	fn()
	w.close(id, parent, name, start, time.Now())
	w.cur.Store(prev)
}

// tracedBackend wraps the engine behind the HTTP handler so that the
// call from httpapi into the serving layer is a span of its own, a
// child of the handler span.
type tracedBackend struct {
	httpapi.Backend
	w    *walker
	name string // "system" or "partition.networked"
}

// around records the call as a span when it happens inside a traced
// handler call (untimed warm-up calls pass through unrecorded).
func (b tracedBackend) around(what string, fn func()) {
	if parent := b.w.cur.Load(); parent != 0 {
		b.w.under(parent, b.name+"."+what, fn)
	} else {
		fn()
	}
}

func (b tracedBackend) Serve(ctx context.Context, q fairhealth.GroupQuery) (res *fairhealth.GroupResult, err error) {
	b.around("serve", func() { res, err = b.Backend.Serve(ctx, q) })
	return res, err
}

func (b tracedBackend) AddRating(user, item string, value float64) (err error) {
	b.around("add_rating", func() { err = b.Backend.AddRating(user, item, value) })
	return err
}

// tracedWorker wraps a partition worker's replica so the work a
// coordinator's RPC lands on the worker is a span under the
// coordinator call in flight.
type tracedWorker struct {
	transport.Backend
	w *walker
}

func (t tracedWorker) span(name string, fn func()) {
	if parent := t.w.cur.Load(); parent != 0 {
		t.w.timed(parent, name, fn)
	} else {
		fn()
	}
}

func (t tracedWorker) MemberRelevances(scorer, user string, approx bool) (m map[model.ItemID]float64, err error) {
	t.span("worker.member_relevances", func() { m, err = t.Backend.MemberRelevances(scorer, user, approx) })
	return m, err
}

func (t tracedWorker) ApplyRecord(rec wal.Record) (err error) {
	t.span("worker.apply_record", func() { err = t.Backend.ApplyRecord(rec) })
	return err
}

// loopback is a set of transport servers on loopback ports in this
// process, each over its own replica.
type loopback struct {
	servers []*transport.Server
	systems []*fairhealth.System
	addrs   []string
	done    []chan struct{}
}

// serveLoopback starts one transport server over backend (sys is the
// replica to close with it, nil when the caller owns it).
func (l *loopback) serve(backend transport.Backend, sys *fairhealth.System, fingerprint string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := transport.NewServer(backend, fingerprint)
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns when close() closes the server
		close(done)
	}()
	l.servers = append(l.servers, srv)
	l.systems = append(l.systems, sys)
	l.addrs = append(l.addrs, ln.Addr().String())
	l.done = append(l.done, done)
	return nil
}

func (l *loopback) close() {
	for i, srv := range l.servers {
		srv.Close()
		<-l.done[i]
		if l.systems[i] != nil {
			l.systems[i].Close()
		}
	}
}

// walkInputs are the ops the walk draws from the workload's stream.
type walkInputs struct {
	warmup  []op    // replayed untimed before the timed replay
	replay  []op    // the timed replay: main-schedule ops, clients interleaved
	queries []query // the group queries among replay
	writes  func() op
}

func (r *run) walkInputs() walkInputs {
	streams := make([]*clientStream, clients)
	for c := range streams {
		streams[c] = r.plan.client(c)
	}
	n := walkOps
	if r.quick {
		n = walkOpsQuick
	}
	var in walkInputs
	turn := 0
	in.writes = func() op {
		turn++
		return streams[turn%clients].nextWrite()
	}
	// The run's own warm-up: every user's peer set, then a little of
	// the stream (churn); every hot-pool group (warm).
	if r.w.churn {
		in.warmup = r.plan.touchOps()
		for i := 0; i < walkWarmOps; i++ {
			in.warmup = append(in.warmup, streams[i%clients].next())
		}
	} else {
		in.warmup = queryOps(r.plan.hotQueries())
	}
	for i := 0; i < n; i++ {
		o := streams[i%clients].next()
		in.replay = append(in.replay, o)
		if o.kind == opQuery {
			in.queries = append(in.queries, o.queries[0])
		}
	}
	if !r.w.churn {
		// A warm stream has no writes; the handler's timing for a
		// rating comes from the write burst's generator, after the
		// reads (every write evicts the group memo).
		for i := 0; i < n/walkStride; i++ {
			in.replay = append(in.replay, in.writes())
		}
	}
	return in
}

// walk runs every section and turns the spans into metrics.
func (r *run) walk(ctx context.Context) error {
	r.stage("walk: load engines")
	w := &walker{epoch: time.Now(), values: make(map[string][]float64)}
	in := r.walkInputs()
	cfg := r.oracle.Config()

	sys, err := newLoadedSystem(r.ds)
	if err != nil {
		return err
	}
	defer sys.Close()

	// The networked engine of the walk: three transport servers on
	// loopback, each over its own replica, behind partition.Networked.
	fp := partition.ConfigFingerprint(cfg)
	var workers loopback
	defer workers.close()
	for i := 0; i < netWorkers; i++ {
		replica, err := fairhealth.New(fairhealth.Config{})
		if err != nil {
			return err
		}
		if err := workers.serve(tracedWorker{Backend: replica, w: w}, replica, fp); err != nil {
			replica.Close()
			return err
		}
	}
	networked, err := partition.NewNetworked(fairhealth.Config{}, workers.addrs, partition.NetOptions{})
	if err != nil {
		return err
	}
	defer networked.Close()
	if err := loadCorpus(networked, r.ds); err != nil {
		return err
	}

	r.stage("walk: system states")
	if err := r.walkStates(ctx, w, sys, in); err != nil {
		return err
	}
	r.stage("walk: partition")
	if err := r.walkPartition(ctx, w, networked, in); err != nil {
		return err
	}
	r.stage("walk: transport, storage, precompute")
	if err := r.walkTransport(ctx, w, sys, fp, in); err != nil {
		return err
	}
	if err := r.walkStorage(w, in); err != nil {
		return err
	}
	// Last on sys: it fills the whole similarity table.
	if err := walkPrecompute(ctx, w, sys); err != nil {
		return err
	}

	// The replay runs against the engine the workload's servers run.
	r.stage("walk: handler replay")
	var engine httpapi.Backend = networked
	name := "partition.networked"
	if !r.w.net3 {
		fresh, err := newLoadedSystem(r.ds)
		if err != nil {
			return err
		}
		defer fresh.Close()
		engine, name = fresh, "system"
	}
	if err := r.walkReplay(w, tracedBackend{Backend: engine, w: w, name: name}, in); err != nil {
		return err
	}

	if err := writeSpans(filepath.Join(r.outDir, "walk-"+r.w.name+".jsonl"), w.spans); err != nil {
		return err
	}
	r.walkMetrics(w.spans, w.values)
	return ctx.Err()
}

func (r *run) walkFew() int {
	if r.quick {
		return 2
	}
	return walkFew
}

// memberIDs converts a query's members for the internal packages.
func memberIDs(members []string) model.Group {
	g := make(model.Group, len(members))
	for i, m := range members {
		g[i] = model.UserID(m)
	}
	return g
}

// rotated is g with its members rotated left by k: the same patients
// under a different memo key (the key preserves member order).
func rotated(g []string, k int) []string {
	return append(append([]string(nil), g[k:]...), g[:k]...)
}

// walkStates times one System in each cache state, the scorers, and
// the kernels a memo miss runs (re-composed from public functions the
// way Networked.serve composes them, and required to reproduce
// System.Serve's answer exactly).
func (r *run) walkStates(ctx context.Context, w *walker, sys *fairhealth.System, in walkInputs) error {
	cfg := sys.Config()
	aggr, err := group.ParseAggregator(cfg.Aggregation)
	if err != nil {
		return err
	}
	ring := partition.NewRing(netWorkers, 0)
	serve := func(members []string) (*fairhealth.GroupResult, error) {
		return sys.Serve(ctx, fairhealth.GroupQuery{Members: members, Z: listZ})
	}
	rotations := make(map[string]int)
	var walkErr error
	fail := func(err error) {
		if walkErr == nil && err != nil {
			walkErr = err
		}
	}

	for i, q := range in.queries {
		g := q.members
		first, err := serve(g) // first touch: fills the memo, warms the members' peer sets
		if err != nil {
			return err
		}
		w.op("walk.op.states", func(op uint64) {
			w.timed(op, "system.serve_us.memo_hit", func() { _, err = serve(g) })
			fail(err)
			// A hot-pool group can come up again: each of its rotations
			// is a memo miss only once.
			key := strings.Join(g, ",")
			if rotations[key]++; rotations[key] < len(g) {
				w.timed(op, "system.serve_us.memo_miss", func() { _, err = serve(rotated(g, rotations[key])) })
				fail(err)
			}
			gq := fairhealth.GroupQuery{Members: g, Z: listZ}
			var nq fairhealth.GroupQuery
			w.timed(op, "query.normalize_us", func() { nq, err = gq.Normalized(cfg) })
			fail(err)

			// The memo-miss pipeline, kernel by kernel.
			pipe := w.open()
			pipeStart := time.Now()
			grp := memberIDs(g)
			maps := make([]map[model.ItemID]float64, len(g))
			for k, m := range g {
				w.timed(pipe, "scoring.usercf.relevances_us.warm", func() { maps[k], err = sys.MemberRelevances(scoring.NameUserCF, m, false) })
				fail(err)
			}
			if walkErr != nil {
				return
			}
			var cands scoring.Candidates
			w.timed(pipe, "scoring.combine_us", func() { cands = scoring.Combine(grp, maps) })
			groupRel := make(map[model.ItemID]float64, len(cands.Items))
			w.timed(pipe, "group.aggregate_us", func() {
				for item, scores := range cands.Items {
					groupRel[item] = aggr.Aggregate(scores)
				}
			})
			var lists core.UserLists
			w.timed(pipe, "core.lists_us", func() { lists = core.ListsFromRelevances(cands.PerUser, nq.K) })
			perUser := cands.PerUser
			input := core.Input{Group: grp, Lists: lists, GroupRel: groupRel,
				Rel: func(u model.UserID, it model.ItemID) (float64, bool) { sc, ok := perUser[u][it]; return sc, ok }}
			var res core.Result
			w.timed(pipe, "core.greedy_us", func() { res, err = core.Greedy(input, nq.Z) })
			fail(err)
			w.close(pipe, op, "walk.pipeline", pipeStart, time.Now())
			got := answer{fairness: res.Fairness, value: res.Value}
			for _, it := range res.Items {
				got.items = append(got.items, fairhealth.Recommendation{Item: string(it), Score: groupRel[it]})
			}
			if err := sameAnswer(got, answerOf(first)); err != nil {
				fail(fmt.Errorf("walk: the re-composed pipeline differs from System.Serve: %w", err))
			}
			w.values["core.fairness_mean"] = append(w.values["core.fairness_mean"], res.Fairness)
			w.values["core.value_mean"] = append(w.values["core.value_mean"], res.Value)
			if i%walkStride == 0 {
				brute := input
				brute.GroupRel = core.TopCandidates(groupRel, bruteM)
				w.timed(op, "core.brute_us", func() { _, err = core.BruteForce(brute, nq.Z, httpapi.MaxBruteCombos) })
				fail(err)
			}

			w.timed(op, "cf.peers_us.warm", func() { _, err = sys.Peers(g[0]) })
			fail(err)
			w.timed(op, "simfn.similarity_between_us", func() { _, _, err = sys.SimilarityBetween(g[0], g[1]) })
			fail(err)
			w.timed(op, "partition.ring.owner_ns", func() { ring.Owner(g[0]) })
			for _, sc := range []struct{ scorer, span string }{
				{scoring.NameItemCF, "scoring.itemcf.relevances_us.warm"},
				{scoring.NameProfile, "scoring.profile.relevances_us.warm"},
			} {
				_, err = sys.MemberRelevances(sc.scorer, g[0], false)
				fail(err)
				w.timed(op, sc.span, func() { _, err = sys.MemberRelevances(sc.scorer, g[0], false) })
				fail(err)
			}
		})
		if walkErr != nil {
			return walkErr
		}
	}

	// After a write: one rating write before each measurement, so each
	// is the first reader of the evicted state.
	write := func(op uint64) {
		o := in.writes()
		w.timed(op, "system.add_rating_us", func() { err = sys.AddRating(o.user, o.item, o.value) })
		fail(err)
	}
	for i := 0; i < len(in.queries); i += walkStride {
		g := in.queries[i].members
		w.op("walk.op.after_write", func(op uint64) {
			write(op)
			w.timed(op, "system.serve_us.after_write", func() { _, err = serve(g) })
			fail(err)
			write(op)
			w.timed(op, "cf.peers_us.after_write", func() { _, err = sys.Peers(g[0]) })
			fail(err)
			for _, sc := range []struct{ scorer, span string }{
				{scoring.NameUserCF, "scoring.usercf.relevances_us.after_write"},
				{scoring.NameItemCF, "scoring.itemcf.relevances_us.after_write"},
				{scoring.NameProfile, "scoring.profile.relevances_us.after_write"},
			} {
				write(op)
				w.timed(op, sc.span, func() { _, err = sys.MemberRelevances(sc.scorer, g[0], false) })
				fail(err)
			}
		})
		if walkErr != nil {
			return walkErr
		}
	}

	// Batches of 16 memo hits, and full flushes (a profile write).
	for i := 0; i < r.walkFew(); i++ {
		batch := make([]fairhealth.GroupQuery, batchQueries)
		for k := range batch {
			g := in.queries[(i*batchQueries+k)%len(in.queries)].members
			batch[k] = fairhealth.GroupQuery{Members: g, Z: listZ}
			if _, err := serve(g); err != nil {
				return err
			}
		}
		g := in.queries[i].members
		p, err := sys.Patient(g[0])
		if err != nil {
			return err
		}
		w.op("walk.op.few", func(op uint64) {
			w.timed(op, "system.serve_batch16_us", func() { _, err = sys.ServeBatch(ctx, batch) })
			fail(err)
			w.timed(op, "system.add_patient_us", func() { err = sys.AddPatient(p) })
			fail(err)
			w.timed(op, "system.serve_us.after_flush", func() { _, err = serve(g) })
			fail(err)
		})
		if walkErr != nil {
			return walkErr
		}
	}
	return nil
}

// walkPartition times the same query through the in-process
// coordinator and through the networked one, warm and after a write.
func (r *run) walkPartition(ctx context.Context, w *walker, networked *partition.Networked, in walkInputs) error {
	coord, err := partition.New(fairhealth.Config{}, partition.Options{Partitions: netWorkers})
	if err != nil {
		return err
	}
	defer coord.Close()
	if err := loadCorpus(coord, r.ds); err != nil {
		return err
	}
	type engine interface {
		Serve(ctx context.Context, q fairhealth.GroupQuery) (*fairhealth.GroupResult, error)
		AddRating(user, item string, value float64) error
	}
	for _, e := range []struct {
		engine           engine
		warm, after, add string
	}{
		{coord, "partition.coordinator.serve_us.memo_hit", "partition.coordinator.serve_us.after_write", "partition.coordinator.add_rating_us"},
		{networked, "partition.networked.serve_us.warm", "partition.networked.serve_us.after_write", "partition.networked.add_rating_us"},
	} {
		for i := 0; i < len(in.queries); i += walkStride {
			gq := fairhealth.GroupQuery{Members: in.queries[i].members, Z: listZ}
			if _, err := e.engine.Serve(ctx, gq); err != nil {
				return err
			}
			o := in.writes()
			w.op("walk.op.partition", func(op uint64) {
				w.timed(op, e.warm, func() { _, err = e.engine.Serve(ctx, gq) })
				if err == nil {
					w.timed(op, e.add, func() { err = e.engine.AddRating(o.user, o.item, o.value) })
				}
				if err == nil {
					w.timed(op, e.after, func() { _, err = e.engine.Serve(ctx, gq) })
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// walkTransport times single RPCs against a transport server over sys,
// and the catch-up compressor on a block of journal records.
func (r *run) walkTransport(ctx context.Context, w *walker, sys *fairhealth.System, fingerprint string, in walkInputs) error {
	var lb loopback
	defer lb.close()
	if err := lb.serve(sys, nil, fingerprint); err != nil {
		return err
	}
	client := transport.NewClient(lb.addrs[0], transport.ClientOptions{})
	defer client.Close()
	seq, _, err := client.Hello(ctx, fingerprint)
	if err != nil {
		return err
	}
	out := make([]map[model.ItemID]float64, 1)
	for i, q := range in.queries {
		member := []model.UserID{model.UserID(q.members[0])}
		if err := client.Relevances(ctx, scoring.NameUserCF, false, member, out); err != nil {
			return err
		}
		w.op("walk.op.transport", func(op uint64) {
			w.timed(op, "transport.relevances_rpc_us", func() { err = client.Relevances(ctx, scoring.NameUserCF, false, member, out) })
			if err == nil && i%walkStride == 0 {
				o := in.writes()
				seq++
				rec := wal.Record{Seq: seq, Op: wal.OpRate, User: model.UserID(o.user), Item: model.ItemID(o.item), Value: model.Rating(o.value)}
				w.timed(op, "transport.apply_rpc_us", func() { err = client.Apply(ctx, rec) })
			}
		})
		if err != nil {
			return err
		}
	}

	// One catch-up block's worth of journal records (512 is the
	// coordinator's default block), as the JSON the WAL stores.
	var block []byte
	for i, tr := range r.ds.Ratings.Triples() {
		if i == 512 {
			break
		}
		line, err := json.Marshal(wal.Record{Seq: uint64(i + 1), Op: wal.OpRate, User: tr.User, Item: tr.Item, Value: tr.Value})
		if err != nil {
			return err
		}
		block = append(append(block, line...), '\n')
	}
	var packed []byte
	for i := 0; i < len(in.replay); i++ {
		w.timed(0, "transport.compress", func() { packed = transport.AppendCompress(packed[:0], block) })
	}
	raw, err := transport.Decompress(nil, packed)
	if err != nil || string(raw) != string(block) {
		return fmt.Errorf("walk: compressed block does not round-trip (%v)", err)
	}
	r.res.set("transport.compress_ratio", float64(len(block))/float64(len(packed)), 0)
	r.walkBlockBytes = len(block)
	return nil
}

// walkStorage times the ratings store and the write-ahead log on their
// own: the corpus and the stream's writes go into a fresh store and a
// fresh log, and the log is replayed into a fresh System.
func (r *run) walkStorage(w *walker, in walkInputs) error {
	store := r.ds.Ratings.Clone()
	for i := 0; i < len(in.replay); i++ {
		o := in.writes()
		var err error
		w.timed(0, "ratings.add_us", func() { err = store.Add(model.UserID(o.user), model.ItemID(o.item), model.Rating(o.value)) })
		if err != nil {
			return err
		}
	}

	path := filepath.Join(r.dir, "walk.wal")
	os.Remove(path)
	lg, err := wal.Open(path)
	if err != nil {
		return err
	}
	records := 0
	for _, tr := range r.ds.Ratings.Triples() {
		w.timed(0, "wal.append_us", func() { _, err = lg.AppendRating(tr.User, tr.Item, tr.Value) })
		if err != nil {
			lg.Close()
			return err
		}
		records++
	}
	for _, id := range r.ds.Profiles.IDs() {
		prof, err := r.ds.Profiles.Get(id)
		if err == nil {
			_, err = lg.AppendPatient(prof)
		}
		if err != nil {
			lg.Close()
			return err
		}
		records++
	}
	if err := lg.Close(); err != nil {
		return err
	}
	target, err := fairhealth.New(fairhealth.Config{})
	if err != nil {
		return err
	}
	defer target.Close()
	start := time.Now()
	n, err := wal.ReplayFile(path, target.ApplyRecord)
	took := time.Since(start)
	if err != nil || n != records {
		return fmt.Errorf("walk: replayed %d of %d records: %v", n, records, err)
	}
	r.res.set("wal.replay_ms_per_10k", took.Seconds()*1e3*1e4/float64(n), n)
	return nil
}

func walkPrecompute(ctx context.Context, w *walker, sys *fairhealth.System) error {
	sys.InvalidateCaches()
	var err error
	w.timed(0, "simfn.precompute_s", func() { _, err = sys.PrecomputeSimilarity(ctx) })
	return err
}

// walkReplay sends the workload's own ops through the HTTP handler (no
// socket: an httptest recorder) over the engine the workload's servers
// run, in stream order, so each op meets the cache state the stream
// itself produced. The warm-up ops go first, untimed.
func (r *run) walkReplay(w *walker, backend tracedBackend, in walkInputs) error {
	srv := httpapi.NewWithOptions(backend, httpapi.Options{Logger: log.New(io.Discard, "iphrd ", log.LstdFlags)})
	send := func(o op, timed bool) error {
		method, path, body, err := encode(o)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		if !timed {
			srv.ServeHTTP(rec, req)
		} else {
			w.op("walk.op."+o.kind.className(), func(op uint64) {
				w.under(op, "httpapi.handler_us."+o.kind.className(), func() { srv.ServeHTTP(rec, req) })
				if o.kind == opQuery && rec.Code == http.StatusOK {
					var resp httpapi.GroupResponse
					if err = json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
						w.timed(op, "httpapi.encode_us", func() { err = json.NewEncoder(io.Discard).Encode(resp) })
					}
				}
			})
		}
		if err == nil && (rec.Code < 200 || rec.Code > 299) {
			err = fmt.Errorf("walk: replay %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return err
	}
	for _, o := range in.warmup {
		if err := send(o, false); err != nil {
			return err
		}
	}
	for _, o := range in.replay {
		if err := send(o, true); err != nil {
			return err
		}
	}
	return nil
}

// walkMetrics turns span medians into the walk's metrics, and prices
// the round trip the traced run saw against the walked layers.
func (r *run) walkMetrics(spans []span, values map[string][]float64) {
	st := summarizeSpans(spans)
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
	for _, d := range perLayer {
		durs, ok := st.dur[d.name]
		if !ok {
			continue
		}
		r.res.set(d.name, p50ns(durs)/scale[d.unit], len(durs))
	}
	for name, vals := range values {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		r.res.set(name, sum/float64(len(vals)), len(vals))
	}
	if durs := st.dur["transport.compress"]; len(durs) > 0 {
		sec := p50ns(durs) / 1e9
		r.res.set("transport.compress_mb_per_s", float64(r.walkBlockBytes)/1e6/sec, len(durs))
	}

	// The latency budget of a group query: the traced run's round trip
	// against the self times of the layers the replay walked.
	rt := r.res["client.roundtrip_us"].value
	handler := p50us(st.dur["httpapi.handler_us.group"])
	r.budget = []budgetLine{
		{"client.encode", r.res["client.encode_us"].value},
		{"client.roundtrip", rt},
		{"  httpapi (self)", p50us(st.self["httpapi.handler_us.group"])},
	}
	for _, name := range []string{"system.serve", "partition.networked.serve"} {
		if self, ok := st.self[name]; ok {
			r.budget = append(r.budget, budgetLine{"  " + name + " (self)", p50us(self)})
		}
	}
	if self, ok := st.self["partition.networked.serve"]; ok {
		// What the workers' spans cover of the coordinator's serve: the
		// fan-out waits for its slowest peer.
		covered := make([]int64, len(self))
		for i, d := range st.dur["partition.networked.serve"] {
			covered[i] = d - self[i]
		}
		r.budget = append(r.budget, budgetLine{"  workers' member_relevances (covered part)", p50us(covered)})
	}
	r.budget = append(r.budget,
		budgetLine{"  unattributed (wire, net/http, scheduling)", rt - handler},
		budgetLine{"client.decode", r.res["client.decode_us"].value},
		budgetLine{"client.check", r.res["client.check_us"].value},
	)
	if rt > 0 {
		r.res.set("budget.unattributed_pct", 100*(rt-handler)/rt, len(st.dur["httpapi.handler_us.group"]))
	}
}

// budgetLine is one row of the printed latency budget, in µs.
type budgetLine struct {
	what string
	us   float64
}
