package httpapi

// The middleware chain every request passes through, outermost first:
//
//	request ID → structured logging → panic recovery →
//	in-flight limiter → per-request timeout → router
//
// Each layer is a plain func(http.Handler) http.Handler over a
// status-recording ResponseWriter, so the stack composes with any
// handler and the logger always sees the final status — including the
// 500 written by the recovery layer and the 429 written by the
// limiter.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// Default middleware bounds (override via Options).
const (
	// DefaultTimeout bounds one request's handler time.
	DefaultTimeout = 30 * time.Second
	// DefaultMaxInFlight bounds concurrently served requests; excess
	// requests are rejected with 429/overloaded rather than queued, so
	// overload degrades crisply instead of piling latency.
	DefaultMaxInFlight = 256
)

// Options tunes the middleware stack. The zero value applies the
// defaults; negative values disable the corresponding layer.
type Options struct {
	// Logger receives request logs and panic reports. nil uses
	// log.Default().
	Logger *log.Logger
	// Timeout is the per-request deadline installed on the request
	// context (0 = DefaultTimeout, < 0 = no deadline). Handlers that
	// honour their context abort with 504/timeout when it fires.
	Timeout time.Duration
	// MaxInFlight caps concurrently served requests (0 =
	// DefaultMaxInFlight, < 0 = unlimited). /healthz bypasses the cap
	// so liveness probes still answer under overload.
	MaxInFlight int
}

// statusWriter records the status and size written through it, and
// forwards Flush so streaming responses (NDJSON) keep working behind
// the chain.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrote reports whether any part of the response reached the wire.
func (sw *statusWriter) wrote() bool { return sw.status != 0 }

// requestIDHeader carries the per-request correlation ID.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// RequestID returns the correlation ID the middleware assigned to this
// request's context ("" outside the chain).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// validRequestID reports whether an inbound X-Request-ID is safe to
// echo and log: 1–128 bytes of [A-Za-z0-9._:-]. Anything else (spaces,
// "=", control bytes) could forge fields of the key=value access log.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// withRequestID honours a valid inbound X-Request-ID or assigns a
// fresh one, echoes it on the response, and stashes it in the context
// for the logging layer and handlers.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = fmt.Sprintf("req-%06x", s.reqSeq.Add(1))
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// withLogging emits one structured line per request: method, path,
// status, bytes, duration, request ID.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.log.Printf("httpapi: method=%s path=%s status=%d bytes=%d duration=%s request_id=%s",
			r.Method, r.URL.Path, status, sw.bytes, time.Since(start).Round(time.Microsecond), RequestID(r.Context()))
	})
}

// withRecover converts a handler panic into a logged 500 envelope
// instead of tearing down the connection (and, unhandled, the whole
// serve goroutine's request).
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // deliberate connection abort
				panic(rec)
			}
			s.log.Printf("httpapi: panic serving %s %s (request_id=%s): %v\n%s",
				r.Method, r.URL.Path, RequestID(r.Context()), rec, debug.Stack())
			if !ok || !sw.wrote() {
				s.writeError(w, r, coded(CodeInternal, fmt.Errorf("internal error (request_id=%s)", RequestID(r.Context()))))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withLimit bounds in-flight requests; a full server answers
// 429/overloaded immediately. /healthz bypasses the limit.
func (s *Server) withLimit(next http.Handler) http.Handler {
	if s.lim == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		if !s.lim.acquire() {
			s.writeError(w, r, coded(CodeOverloaded,
				fmt.Errorf("server at capacity (%d requests in flight)", s.lim.max)))
			return
		}
		defer s.lim.release()
		next.ServeHTTP(w, r)
	})
}

// withTimeout installs the per-request deadline on the context.
// Handlers observe it through ctx (the recommendation paths check
// cancellation cooperatively) and report context.DeadlineExceeded,
// which the error mapping turns into 504/timeout.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.opts.Timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ctxErr maps a context failure on a finished request to the error the
// handler should report: a deadline hit inside this server becomes a
// timeout, a client disconnect stays a cancellation.
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := ctx.Err(); cause != nil {
			return cause
		}
	}
	return err
}

// chain assembles the full middleware stack around the router.
func (s *Server) chain(inner http.Handler) http.Handler {
	h := s.withTimeout(inner)
	h = s.withLimit(h)
	h = s.withRecover(h)
	h = s.withLogging(h)
	h = s.withRequestID(h)
	return h
}
