package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// fakeBackend is a scriptable Backend for wire-level tests.
type fakeBackend struct {
	mu      sync.Mutex
	applied []wal.Record
	docs    []string

	// relevances answers MemberRelevances; relGate, when non-nil,
	// blocks the named user's call until the channel closes (for
	// out-of-order pipelining tests).
	relevances map[string]map[model.ItemID]float64
	relGate    map[string]chan struct{}
	relErr     error
	// relPanic makes MemberRelevances panic for this user.
	relPanic string

	relCalls atomic.Int64
}

func (f *fakeBackend) ApplyRecord(rec wal.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, rec)
	return nil
}

func (f *fakeBackend) AddDocument(id, title, body string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.docs = append(f.docs, id)
	return nil
}

func (f *fakeBackend) MemberRelevances(scorer, user string, approx bool) (map[model.ItemID]float64, error) {
	f.relCalls.Add(1)
	f.mu.Lock()
	gate := f.relGate[user]
	m, ok := f.relevances[user]
	relErr := f.relErr
	relPanic := f.relPanic
	f.mu.Unlock()
	if user == relPanic {
		panic("backend bug")
	}
	if gate != nil {
		<-gate
	}
	if relErr != nil {
		return nil, relErr
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", fairhealth.ErrUnknownPatient, user)
	}
	return m, nil
}

func (f *fakeBackend) Recommend(user string, k int) ([]fairhealth.Recommendation, error) {
	return []fairhealth.Recommendation{{Item: "d1", Score: 0.5}}, nil
}

func (f *fakeBackend) Peers(user string) ([]fairhealth.Peer, error) { return nil, nil }

func (f *fakeBackend) SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error) {
	return nil, nil
}

func (f *fakeBackend) Stats() fairhealth.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fairhealth.Stats{Documents: len(f.docs)}
}

// startServer runs a transport server over fb on a loopback listener
// and returns a connected client plus a cleanup-registered shutdown.
func startServer(t *testing.T, fb *fakeBackend, fingerprint string, opts ClientOptions) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fb, fingerprint)
	go srv.Serve(ln)
	cl := NewClient(ln.Addr().String(), opts)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

func TestHelloHandshake(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "v1|x", ClientOptions{})
	ctx := context.Background()

	seq, docs, err := cl.Hello(ctx, "v1|x")
	if err != nil || seq != 0 || docs != 0 {
		t.Fatalf("hello: seq=%d docs=%d err=%v", seq, docs, err)
	}
	if err := cl.Document(ctx, "d1", "t", "b"); err != nil {
		t.Fatal(err)
	}
	if _, docs, err = cl.Hello(ctx, "v1|x"); err != nil || docs != 1 {
		t.Fatalf("hello after document: docs=%d err=%v", docs, err)
	}

	// A mismatched fingerprint is refused with the sentinel intact
	// across the wire.
	_, _, err = cl.Hello(ctx, "v1|y")
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("mismatched hello: %v, want ErrConfigMismatch", err)
	}
}

func TestApplyAndSeqDedup(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "fp", ClientOptions{})
	ctx := context.Background()

	for _, seq := range []uint64{1, 2, 2, 1, 3} { // duplicates redelivered
		rec := wal.Record{Seq: seq, Op: wal.OpRate, User: "u1", Item: "d1", Value: 4}
		if err := cl.Apply(ctx, rec); err != nil {
			t.Fatalf("apply seq %d: %v", seq, err)
		}
	}
	fb.mu.Lock()
	n := len(fb.applied)
	fb.mu.Unlock()
	if n != 3 {
		t.Fatalf("backend applied %d records, want 3 (duplicates skipped)", n)
	}
}

// A record past the next expected seq is refused with ErrSeqGap across
// the wire and leaves the replica untouched: a worker restarted empty
// must not apply a live write over the records it lost.
func TestApplyAndCatchupRefuseSeqGap(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "fp", ClientOptions{})
	ctx := context.Background()

	rec := func(seq uint64) wal.Record {
		return wal.Record{Seq: seq, Op: wal.OpRate, User: "u1", Item: "d1", Value: 4}
	}
	if err := cl.Apply(ctx, rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Apply(ctx, rec(3)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("apply seq 3 after 1: %v, want ErrSeqGap", err)
	}
	if _, err := cl.Catchup(ctx, []wal.Record{rec(2), rec(4)}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("catch-up 2,4 after 1: %v, want ErrSeqGap", err)
	}
	seq, _, err := cl.Hello(ctx, "fp")
	if err != nil || seq != 2 {
		t.Fatalf("applied seq after the refusals: %d, %v; want 2", seq, err)
	}
	fb.mu.Lock()
	n := len(fb.applied)
	fb.mu.Unlock()
	if n != 2 {
		t.Fatalf("backend applied %d records, want 2", n)
	}
}

func TestCatchupAppliesAndDedups(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "fp", ClientOptions{})
	ctx := context.Background()

	var recs []wal.Record
	for i := 1; i <= 50; i++ {
		recs = append(recs, wal.Record{Seq: uint64(i), Op: wal.OpRate, User: "u", Item: model.ItemID(fmt.Sprintf("d%d", i)), Value: 1})
	}
	seq, err := cl.Catchup(ctx, recs[:30])
	if err != nil || seq != 30 {
		t.Fatalf("catch-up block 1: seq=%d err=%v", seq, err)
	}
	// Overlapping second block: seqs 21..50, only 31..50 apply.
	seq, err = cl.Catchup(ctx, recs[20:])
	if err != nil || seq != 50 {
		t.Fatalf("catch-up block 2: seq=%d err=%v", seq, err)
	}
	fb.mu.Lock()
	n := len(fb.applied)
	fb.mu.Unlock()
	if n != 50 {
		t.Fatalf("backend applied %d records, want 50", n)
	}
}

func TestRelevancesRoundTripAndStats(t *testing.T) {
	fb := &fakeBackend{relevances: map[string]map[model.ItemID]float64{
		"u1": {"d1": 0.1 + 0.2, "d2": 0.9},
		"u2": {"d1": 0.4},
	}}
	var st Stats
	cl := startServer(t, fb, "fp", ClientOptions{Stats: &st})
	ctx := context.Background()

	members := []model.UserID{"u1", "u2"}
	out := make([]map[model.ItemID]float64, 2)
	if err := cl.Relevances(ctx, "user-cf", false, members, out); err != nil {
		t.Fatal(err)
	}
	if out[0]["d1"] != 0.1+0.2 || out[1]["d1"] != 0.4 {
		t.Fatalf("relevances round-trip: %v", out)
	}
	snap := st.Snapshot()
	if snap.RelevancesRPCs != 1 || snap.CoalescedMembers != 2 {
		t.Fatalf("stats: %d RPCs, %d coalesced members", snap.RelevancesRPCs, snap.CoalescedMembers)
	}
	if snap.MembersPerRPC != 2 {
		t.Fatalf("members/rpc = %v, want 2", snap.MembersPerRPC)
	}

	// An unknown member surfaces the sentinel across the wire.
	err := cl.Relevances(ctx, "user-cf", false, []model.UserID{"nobody"}, make([]map[model.ItemID]float64, 1))
	if !errors.Is(err, fairhealth.ErrUnknownPatient) {
		t.Fatalf("unknown member: %v, want ErrUnknownPatient", err)
	}
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("unknown member error is %T, want *WireError", err)
	}
}

// TestHandlerPanicAnswersError: a backend op that panics is answered
// with an error reply instead of killing the worker, and the next call
// on the same connection succeeds.
func TestHandlerPanicAnswersError(t *testing.T) {
	fb := &fakeBackend{
		relevances: map[string]map[model.ItemID]float64{"u1": {"d1": 0.5}},
		relPanic:   "boom",
	}
	var st Stats
	cl := startServer(t, fb, "fp", ClientOptions{Stats: &st, PoolSize: 1})
	ctx := context.Background()

	err := cl.Relevances(ctx, "user-cf", false, []model.UserID{"boom"}, make([]map[model.ItemID]float64, 1))
	var we *WireError
	if !errors.As(err, &we) || we.Code != errGeneric || !strings.Contains(we.Msg, "backend bug") {
		t.Fatalf("panicking op: %v (%T), want an errGeneric *WireError naming the panic", err, err)
	}
	out := make([]map[model.ItemID]float64, 1)
	if err := cl.Relevances(ctx, "user-cf", false, []model.UserID{"u1"}, out); err != nil {
		t.Fatalf("call after the panic: %v", err)
	}
	if out[0]["d1"] != 0.5 {
		t.Fatalf("call after the panic answered %v", out)
	}
	if d := st.Snapshot().Dials; d != 1 {
		t.Fatalf("%d dials, want 1 (the connection must survive the panic)", d)
	}
}

// Pipelining: with one pooled connection, a response for a later
// request completes while an earlier one is still blocked server-side.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{
		relevances: map[string]map[model.ItemID]float64{
			"slow": {"d1": 1}, "fast": {"d2": 2},
		},
		relGate: map[string]chan struct{}{"slow": gate},
	}
	cl := startServer(t, fb, "fp", ClientOptions{PoolSize: 1})
	ctx := context.Background()

	slowDone := make(chan error, 1)
	go func() {
		out := make([]map[model.ItemID]float64, 1)
		slowDone <- cl.Relevances(ctx, "s", false, []model.UserID{"slow"}, out)
	}()
	// Wait until the slow request is actually in flight server-side.
	deadline := time.Now().Add(5 * time.Second)
	for fb.relCalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	// The fast request rides the same connection and must complete
	// while the slow one is still parked.
	out := make([]map[model.ItemID]float64, 1)
	if err := cl.Relevances(ctx, "s", false, []model.UserID{"fast"}, out); err != nil {
		t.Fatalf("fast call behind a parked slow call: %v", err)
	}
	if cl.Conns() != 1 {
		t.Fatalf("pool grew to %d connections, want 1", cl.Conns())
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call completed early: %v", err)
	default:
	}

	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call after release: %v", err)
	}
}

// A context that ends mid-call returns immediately; the late response
// is dropped and the connection stays usable.
func TestCallContextCancellation(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{
		relevances: map[string]map[model.ItemID]float64{"slow": {"d1": 1}, "ok": {"d2": 2}},
		relGate:    map[string]chan struct{}{"slow": gate},
	}
	cl := startServer(t, fb, "fp", ClientOptions{PoolSize: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		out := make([]map[model.ItemID]float64, 1)
		done <- cl.Relevances(ctx, "s", false, []model.UserID{"slow"}, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fb.relCalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled call did not return")
	}
	close(gate) // let the server finish; its reply must be dropped

	// The same pooled connection still serves new calls.
	out := make([]map[model.ItemID]float64, 1)
	if err := cl.Relevances(context.Background(), "s", false, []model.UserID{"ok"}, out); err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
}

// Deadlines propagate across the wire: a request framed with an
// already-expired deadline fails server-side with the deadline
// sentinel, not a generic error.
func TestDeadlinePropagation(t *testing.T) {
	fb := &fakeBackend{relevances: map[string]map[model.ItemID]float64{"u1": {"d1": 1}}}
	cl := startServer(t, fb, "fp", ClientOptions{})

	gate := make(chan struct{})
	fb.mu.Lock()
	fb.relGate = map[string]chan struct{}{"u1": gate}
	fb.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Two members: the first parks past the deadline, so the server's
	// per-member ctx check fails before the second member is scored.
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()
	out := make([]map[model.ItemID]float64, 2)
	err := cl.Relevances(ctx, "s", false, []model.UserID{"u1", "u1"}, out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

// A dead peer fails fast at dial time with a transport error (not a
// WireError), and the client recovers once calls stop.
func TestDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var st Stats
	cl := NewClient(addr, ClientOptions{DialTimeout: 200 * time.Millisecond, Stats: &st})
	defer cl.Close()
	_, _, err = cl.Hello(context.Background(), "fp")
	if err == nil {
		t.Fatal("hello to dead peer succeeded")
	}
	var we *WireError
	if errors.As(err, &we) {
		t.Fatalf("dial failure surfaced as WireError: %v", err)
	}
	if st.DialsErr.Load() == 0 || st.Errors.Load() == 0 {
		t.Fatalf("stats: dialsErr=%d errors=%d", st.DialsErr.Load(), st.Errors.Load())
	}
}

func TestClientClosed(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "fp", ClientOptions{})
	if _, _, err := cl.Hello(context.Background(), "fp"); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, _, err := cl.Hello(context.Background(), "fp"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on closed client: %v, want ErrClientClosed", err)
	}
}

// The user-level reads reply in JSON but share the framed transport;
// spot-check the round-trip.
func TestRoutedOps(t *testing.T) {
	fb := &fakeBackend{}
	cl := startServer(t, fb, "fp", ClientOptions{})
	recs, err := cl.Recommend(context.Background(), "u1", 5)
	if err != nil || len(recs) != 1 || recs[0].Item != "d1" {
		t.Fatalf("recommend: %+v, %v", recs, err)
	}
}

// A raw frame carrying the retired opcode 6 gets the unknown-opcode
// error reply, and the same connection then answers a Relevances
// request: a stale or hostile peer cannot wedge the port.
func TestRetiredOpcodeRejected(t *testing.T) {
	fb := &fakeBackend{relevances: map[string]map[model.ItemID]float64{"u1": {"d1": 0.5}}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fb, "fp")
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	roundTrip := func(reqID uint64, op byte, payload []byte) frame {
		t.Helper()
		if err := writeFrame(bw, reqID, kindRequest, op, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		f, _, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if f.kind != kindResponse || f.reqID != reqID {
			t.Fatalf("reply kind=%d reqID=%d, want a response to %d", f.kind, f.reqID, reqID)
		}
		return f
	}

	f := roundTrip(1, 6, []byte(`{"Members":["u1"],"Method":"mapreduce"}`))
	if f.op == statusOK || string(f.payload) != "transport: unknown opcode 6" {
		t.Fatalf("retired opcode reply: status=%d payload=%q", f.op, f.payload)
	}
	f = roundTrip(2, opRelevances, appendRelevancesReq(nil, "user-cf", false, []model.UserID{"u1"}))
	if f.op != statusOK {
		t.Fatalf("relevances after a retired opcode: status=%d payload=%q", f.op, f.payload)
	}
	out := make([]map[model.ItemID]float64, 1)
	if err := readRelevancesResp(f.payload, out); err != nil || out[0]["d1"] != 0.5 {
		t.Fatalf("relevances after a retired opcode: %v, %v", out, err)
	}
}

// Concurrent mixed traffic over a small pool — run with -race.
func TestConcurrentCalls(t *testing.T) {
	fb := &fakeBackend{relevances: map[string]map[model.ItemID]float64{
		"u1": {"d1": 1}, "u2": {"d2": 2},
	}}
	cl := startServer(t, fb, "fp", ClientOptions{PoolSize: 2})
	ctx := context.Background()

	// Apply refuses sequence gaps, so writers draw contiguous seqs
	// under a lock held across the call, as a coordinator's commit does.
	var (
		applyMu sync.Mutex
		nextSeq uint64
	)
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				switch (i + j) % 3 {
				case 0:
					out := make([]map[model.ItemID]float64, 2)
					errs <- cl.Relevances(ctx, "s", false, []model.UserID{"u1", "u2"}, out)
				case 1:
					_, err := cl.Recommend(ctx, "u1", 3)
					errs <- err
				case 2:
					applyMu.Lock()
					nextSeq++
					errs <- cl.Apply(ctx, wal.Record{Seq: nextSeq, Op: wal.OpRate, User: "u1", Item: "d1", Value: 1})
					applyMu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Conns(); got > 2 {
		t.Fatalf("pool grew to %d connections, want <= 2", got)
	}
}
