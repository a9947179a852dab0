// local.go is the in-process transport: the Client's typed surface
// answered by a Server's op methods on the caller's goroutine, with no
// framing, no copies and no counters. A coordinator routes to an
// in-process worker exactly as to a remote one, because Local reports
// failures as a Client does.
package transport

import (
	"context"
	"sync/atomic"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// Local reaches one in-process Server. An application error comes
// back as a *WireError, as it would over the wire; a call while no
// server is set fails with ErrClientClosed, a lost peer. Safe for
// concurrent use.
type Local struct {
	srv atomic.Pointer[Server]
}

// NewLocal builds a Local over srv.
func NewLocal(srv *Server) *Local {
	l := &Local{}
	l.srv.Store(srv)
	return l
}

// Reset points l at srv. Reset(nil) makes every later call fail as a
// lost peer; a restarted worker comes back with a new Server.
func (l *Local) Reset(srv *Server) { l.srv.Store(srv) }

// Close is Reset(nil).
func (l *Local) Close() error {
	l.Reset(nil)
	return nil
}

// Conns reports 0: a Local holds no connections.
func (l *Local) Conns() int { return 0 }

// do runs op on the current server, rebuilding its failure as the
// Client would.
func (l *Local) do(op func(*Server) error) error {
	s := l.srv.Load()
	if s == nil {
		return ErrClientClosed
	}
	if err := op(s); err != nil {
		return &WireError{Code: codeFor(err), Msg: err.Error()}
	}
	return nil
}

// Hello is Client.Hello in process.
func (l *Local) Hello(_ context.Context, fingerprint string) (appliedSeq uint64, docs int, err error) {
	err = l.do(func(s *Server) (err error) {
		appliedSeq, docs, err = s.hello(fingerprint)
		return err
	})
	return appliedSeq, docs, err
}

// Apply is Client.Apply in process.
func (l *Local) Apply(_ context.Context, rec wal.Record) error {
	return l.do(func(s *Server) error { return s.apply(rec) })
}

// Catchup is Client.Catchup in process.
func (l *Local) Catchup(_ context.Context, recs []wal.Record) (appliedSeq uint64, err error) {
	err = l.do(func(s *Server) (err error) {
		appliedSeq, err = s.catchup(recs)
		return err
	})
	return appliedSeq, err
}

// Document is Client.Document in process.
func (l *Local) Document(_ context.Context, id, title, body string) error {
	return l.do(func(s *Server) error { return s.backend.AddDocument(id, title, body) })
}

// Relevances is Client.Relevances in process: the maps in out are the
// worker's own, not copies.
func (l *Local) Relevances(ctx context.Context, scorer string, approx bool, members []model.UserID, out []map[model.ItemID]float64) error {
	return l.do(func(s *Server) error { return s.relevances(ctx, scorer, approx, members, out) })
}

// Recommend is Client.Recommend in process.
func (l *Local) Recommend(_ context.Context, user string, k int) (out []fairhealth.Recommendation, err error) {
	err = l.do(func(s *Server) (err error) {
		out, err = s.backend.Recommend(user, k)
		return err
	})
	return out, err
}

// PeersOf is Client.PeersOf in process.
func (l *Local) PeersOf(_ context.Context, user string) (out []fairhealth.Peer, err error) {
	err = l.do(func(s *Server) (err error) {
		out, err = s.backend.Peers(user)
		return err
	})
	return out, err
}

// SearchPersonalized is Client.SearchPersonalized in process.
func (l *Local) SearchPersonalized(_ context.Context, user, query string, k int, boost float64) (out []fairhealth.SearchResult, err error) {
	err = l.do(func(s *Server) (err error) {
		out, err = s.backend.SearchPersonalized(user, query, k, boost)
		return err
	})
	return out, err
}
