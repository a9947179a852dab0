// Package transport is the wire between a partitioned coordinator and
// its worker processes: a length-prefixed binary protocol over
// persistent TCP connections with per-connection pipelining (request
// IDs, out-of-order completion) and a small connection pool per peer.
//
// The hot path is the Relevances fan-out of group serving — Eq. 1
// member maps flowing back to the coordinator's intersection merge —
// so that opcode is framed without reflection: counted strings and
// raw IEEE-754 bit patterns (math.Float64bits) through pooled scratch
// buffers. Shipping the exact bits is what keeps networked answers
// bit-identical to an unpartitioned System; a decimal detour is never
// taken on the hot path. Control-plane replies (user-level reads) ride
// encoding/json — they are rare and their float64 values survive Go's
// shortest-representation round-trip exactly.
//
// Frame layout, both directions:
//
//	uint32  length of the rest of the frame (big-endian)
//	uint64  request ID (client-assigned; responses echo it)
//	byte    kind: 0 = request, 1 = response
//	byte    request: opcode · response: status (0 = OK, else errCode*)
//	int64   request: deadline, microseconds since the Unix epoch
//	        (0 = none) · response: 0
//	bytes   payload (opcode-specific; see message.go)
//
// Responses carry the request's ID, so a server may answer in any
// order and a client keeps many calls in flight per connection.
// Errors travel as a status code plus the server's error text; the
// client rebuilds an error that matches the original sentinels under
// errors.Is (see WireError), so the HTTP layer's error classification
// behaves identically for local and remote backends.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fairhealth"
	"fairhealth/internal/ratings"
)

// Opcodes. Hello must stay first and keep its value across protocol
// revisions — it is the config-fingerprint handshake that rejects a
// mismatched peer before any state-bearing opcode runs.
const (
	opHello      byte = 1 // fingerprint check → applied seq + doc count
	opApply      byte = 2 // one WAL record (write replication)
	opCatchup    byte = 3 // compressed WAL record block (rejoin bootstrap)
	opDocument   byte = 4 // corpus document (not WAL-journaled)
	opRelevances byte = 5 // coalesced member batch → per-member score maps
	opUserOp     byte = 7 // user-level reads: recommend | peers | search (6 is retired: never reuse it)
)

// Response status codes. 0 is success; everything else maps a
// sentinel error across the wire (WireError.Is restores errors.Is
// behavior on the client side).
const (
	statusOK          byte = 0
	errGeneric        byte = 1
	errUnknownPatient byte = 2
	errBadQuery       byte = 3
	errEmptyGroup     byte = 4
	errNotFound       byte = 5
	errDeadline       byte = 6
	errCanceled       byte = 7
	errTooManyCombos  byte = 8
	errConfigMismatch byte = 9
	errSeqGap         byte = 10
)

// ErrConfigMismatch reports a Hello from a coordinator whose effective
// scoring configuration differs from the worker's — serving across
// that divide would silently break bit-identity, so the handshake
// refuses it.
var ErrConfigMismatch = errors.New("transport: peer config mismatch")

// ErrSeqGap reports a replicated record whose sequence is not the next
// one the worker expects. A worker restarted empty on its old address
// refuses its first record this way, instead of silently applying it
// over missing state; the coordinator then takes it down for catch-up.
var ErrSeqGap = errors.New("transport: record sequence gap")

const (
	frameHeaderLen = 4 + 8 + 1 + 1 + 8
	// maxFrame bounds a single frame (and a decompressed catch-up
	// block): big enough for any realistic coalesced reply, small
	// enough that a corrupt length prefix cannot balloon allocation.
	maxFrame = 64 << 20

	kindRequest  byte = 0
	kindResponse byte = 1
)

// WireError is a remote failure rebuilt on the client: the server's
// error text verbatim plus the status code that names the sentinel it
// unwrapped from. Is makes errors.Is(err, fairhealth.ErrUnknownPatient)
// et al. hold across the wire, which is what keeps httpapi's error
// classification identical for local and networked backends.
type WireError struct {
	Code byte
	Msg  string
}

func (e *WireError) Error() string { return e.Msg }

// Is maps the wire code back to the sentinel it was derived from.
func (e *WireError) Is(target error) bool {
	switch e.Code {
	case errUnknownPatient:
		return target == fairhealth.ErrUnknownPatient
	case errBadQuery:
		return target == fairhealth.ErrBadQuery
	case errEmptyGroup:
		return target == fairhealth.ErrEmptyGroup
	case errNotFound:
		return target == ratings.ErrNotFound
	case errDeadline:
		return target == context.DeadlineExceeded
	case errCanceled:
		return target == context.Canceled
	case errTooManyCombos:
		return target == fairhealth.ErrTooManyCombinations
	case errConfigMismatch:
		return target == ErrConfigMismatch
	case errSeqGap:
		return target == ErrSeqGap
	}
	return false
}

// codeFor picks the wire status for an error, preferring the most
// specific sentinel the chain matches.
func codeFor(err error) byte {
	switch {
	case errors.Is(err, fairhealth.ErrUnknownPatient):
		return errUnknownPatient
	case errors.Is(err, fairhealth.ErrEmptyGroup):
		return errEmptyGroup
	case errors.Is(err, fairhealth.ErrBadQuery):
		return errBadQuery
	case errors.Is(err, ratings.ErrNotFound):
		return errNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return errDeadline
	case errors.Is(err, context.Canceled):
		return errCanceled
	case errors.Is(err, fairhealth.ErrTooManyCombinations):
		return errTooManyCombos
	case errors.Is(err, ErrConfigMismatch):
		return errConfigMismatch
	case errors.Is(err, ErrSeqGap):
		return errSeqGap
	}
	return errGeneric
}

// ---------------------------------------------------------------------------
// frame I/O

// bufPool recycles payload scratch across requests — encode into a
// pooled slice, write the frame, return the slice. The Relevances
// reply path allocates nothing per call once the pool is warm (beyond
// what append growth the first large replies establish).
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxFrame/8 {
		return // drop oversized one-offs instead of pinning them
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// writeFrame emits one frame through w (which serializes writers via
// its own locking — see pconn/serverConn) and leaves flushing to the
// caller.
func writeFrame(w *bufio.Writer, reqID uint64, kind, op byte, deadlineMicros int64, payload []byte) error {
	if len(payload) > maxFrame-frameHeaderLen {
		return fmt.Errorf("transport: payload %d bytes exceeds frame limit", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameHeaderLen-4+len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], reqID)
	hdr[12] = kind
	hdr[13] = op
	binary.BigEndian.PutUint64(hdr[14:22], uint64(deadlineMicros))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frame is one decoded frame; payload aliases a fresh slice owned by
// the reader's caller.
type frame struct {
	reqID          uint64
	kind           byte
	op             byte // opcode (requests) or status (responses)
	deadlineMicros int64
	payload        []byte
}

func readFrame(r *bufio.Reader) (frame, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < frameHeaderLen-4 || n > maxFrame {
		return frame{}, 0, fmt.Errorf("transport: bad frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return frame{}, 0, err
	}
	f := frame{
		reqID:          binary.BigEndian.Uint64(hdr[4:12]),
		kind:           hdr[12],
		op:             hdr[13],
		deadlineMicros: int64(binary.BigEndian.Uint64(hdr[14:22])),
	}
	payloadLen := int(n) - (frameHeaderLen - 4)
	if payloadLen > 0 {
		f.payload = make([]byte, payloadLen)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, 0, err
		}
	}
	return f, 4 + int(n), nil
}
