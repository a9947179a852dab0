// server.go is the worker side of the wire: an accept loop over a
// listener, one reader goroutine per connection, and one goroutine
// per in-flight request so responses complete out of order — the
// pipelining contract. Writes back to the connection serialize on a
// per-connection mutex; everything else runs concurrently against the
// backend System, whose own locking already serves concurrent HTTP
// traffic in unpartitioned deployments.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// Backend is what a worker serves over the wire — satisfied by
// *fairhealth.System. MemberRelevances is the coalesced fan-out's
// unit of work; ApplyRecord and AddDocument are the replication
// write path; the rest are user-level reads routed to their owner.
type Backend interface {
	ApplyRecord(rec wal.Record) error
	AddDocument(id, title, body string) error
	MemberRelevances(scorer, user string, approx bool) (map[model.ItemID]float64, error)
	Recommend(user string, k int) ([]fairhealth.Recommendation, error)
	Peers(user string) ([]fairhealth.Peer, error)
	SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error)
	Stats() fairhealth.Stats
}

// Server answers the transport protocol over a listener. One Server
// fronts one replica (worker process mode of cmd/iphrd).
type Server struct {
	backend     Backend
	fingerprint string

	// appliedSeq is the highest WAL sequence applied through this
	// server (Apply or Catchup) — the Hello answer a coordinator uses
	// to size catch-up shipping.
	appliedSeq atomic.Uint64
	// applyMu serializes state writes so catch-up blocks and live
	// applies cannot interleave out of order.
	applyMu sync.Mutex

	stats Stats

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps backend for serving. fingerprint is the effective
// scoring-config fingerprint (partition.ConfigFingerprint); Hello
// requests carrying a different one are refused, because mixed
// configs would silently break the bit-identity contract.
func NewServer(backend Backend, fingerprint string) *Server {
	s := &Server{
		backend:     backend,
		fingerprint: fingerprint,
		conns:       make(map[net.Conn]struct{}),
	}
	// A worker restarted over durable state already holds applied
	// records; it reports zero here (transport servers are started on
	// fresh or WAL-bootstrapped systems whose seq the caller seeds via
	// SetAppliedSeq when it knows better).
	return s
}

// SetAppliedSeq seeds the applied-sequence gauge, for workers started
// over pre-loaded state.
func (s *Server) SetAppliedSeq(seq uint64) { s.appliedSeq.Store(seq) }

// AppliedSeq reports the highest WAL sequence applied via this
// server.
func (s *Server) AppliedSeq() uint64 { return s.appliedSeq.Load() }

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection, and waits for
// per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// serverConn is one accepted connection: shared write side, fan-out
// read side.
type serverConn struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex
	wg   sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	sc := &serverConn{srv: s, conn: conn, bw: bufio.NewWriter(conn)}
	br := bufio.NewReader(conn)
	for {
		f, n, err := readFrame(br)
		if err != nil {
			break
		}
		s.stats.BytesIn.Add(uint64(n))
		if f.kind != kindRequest {
			break // protocol violation: peers never push responses
		}
		sc.wg.Add(1)
		go func(f frame) {
			defer sc.wg.Done()
			status, payload, release := sc.handle(f)
			sc.reply(f.reqID, status, payload)
			if release != nil {
				release()
			}
		}(f)
	}
	// Wait for in-flight handlers before releasing the connection so
	// their replies never write into a recycled buffer.
	sc.wg.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (sc *serverConn) reply(reqID uint64, status byte, payload []byte) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := writeFrame(sc.bw, reqID, kindResponse, status, 0, payload); err != nil {
		sc.conn.Close()
		return
	}
	if err := sc.bw.Flush(); err != nil {
		sc.conn.Close()
		return
	}
	sc.srv.stats.BytesOut.Add(uint64(frameHeaderLen + len(payload)))
	sc.srv.stats.RPCs.Add(1)
}

// handle runs one request and returns its status, response payload,
// and an optional release hook returning pooled payload scratch after
// the reply is written. Application errors become status codes with
// the error text, so the client can rebuild sentinel-compatible
// errors.
func (sc *serverConn) handle(f frame) (byte, []byte, func()) {
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if f.deadlineMicros > 0 {
		deadline := time.UnixMicro(f.deadlineMicros)
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	defer cancel()
	payload, release, err := sc.dispatch(ctx, f)
	if err != nil {
		if release != nil {
			release()
		}
		return codeFor(err), []byte(err.Error()), nil
	}
	return statusOK, payload, release
}

func (sc *serverConn) dispatch(ctx context.Context, f frame) ([]byte, func(), error) {
	s := sc.srv
	switch f.op {
	case opHello:
		fp, err := readHelloReq(f.payload)
		if err != nil {
			return nil, nil, err
		}
		if fp != s.fingerprint {
			return nil, nil, fmt.Errorf("%w: coordinator %q, worker %q", ErrConfigMismatch, fp, s.fingerprint)
		}
		return appendHelloResp(nil, s.appliedSeq.Load(), s.backend.Stats().Documents), nil, nil

	case opApply:
		c := cursor{b: f.payload}
		rec, err := readRecord(&c)
		if err != nil {
			return nil, nil, err
		}
		s.applyMu.Lock()
		defer s.applyMu.Unlock()
		if rec.Seq <= s.appliedSeq.Load() {
			return nil, nil, nil // duplicate delivery (rejoin race): already applied
		}
		if err := s.backend.ApplyRecord(rec); err != nil {
			return nil, nil, err
		}
		s.appliedSeq.Store(rec.Seq)
		return nil, nil, nil

	case opCatchup:
		recs, err := readCatchup(f.payload)
		if err != nil {
			return nil, nil, err
		}
		s.applyMu.Lock()
		defer s.applyMu.Unlock()
		for _, rec := range recs {
			if rec.Seq <= s.appliedSeq.Load() {
				continue
			}
			if err := s.backend.ApplyRecord(rec); err != nil {
				return nil, nil, err
			}
			s.appliedSeq.Store(rec.Seq)
		}
		return binary.BigEndian.AppendUint64(nil, s.appliedSeq.Load()), nil, nil

	case opDocument:
		id, title, body, err := readDocument(f.payload)
		if err != nil {
			return nil, nil, err
		}
		return nil, nil, s.backend.AddDocument(id, title, body)

	case opRelevances:
		scorer, approx, members, err := readRelevancesReq(f.payload)
		if err != nil {
			return nil, nil, err
		}
		maps := make([]map[model.ItemID]float64, len(members))
		for i, m := range members {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			maps[i], err = s.backend.MemberRelevances(scorer, m, approx)
			if err != nil {
				return nil, nil, err
			}
		}
		// Encode into pooled scratch handed to the reply writer and
		// returned to the pool afterwards — the hot path's zero-alloc
		// encode (no per-reply buffer once the pool is warm).
		buf := getBuf()
		*buf = appendRelevancesResp(*buf, maps)
		return *buf, func() { putBuf(buf) }, nil

	case opUserOp:
		kind, user, query, k, boost, err := readUserOpReq(f.payload)
		if err != nil {
			return nil, nil, err
		}
		var out any
		switch kind {
		case userOpRecommend:
			out, err = s.backend.Recommend(user, k)
		case userOpPeers:
			out, err = s.backend.Peers(user)
		case userOpSearch:
			out, err = s.backend.SearchPersonalized(user, query, k, boost)
		default:
			return nil, nil, fmt.Errorf("transport: unknown user op %d", kind)
		}
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(out)
		return body, nil, err
	}
	return nil, nil, fmt.Errorf("transport: unknown opcode %d", f.op)
}
