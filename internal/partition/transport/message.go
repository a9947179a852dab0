// message.go holds the per-opcode payload codecs. The hot path
// (Relevances requests and replies, Apply records, Catchup blocks) is
// hand-framed — counted strings, uvarints, and math.Float64bits — so
// no reflection runs per call and encoders append into pooled scratch.
// Control-plane replies (user-level reads) are JSON: rare, structurally
// rich, and exact for float64 under Go's shortest-representation
// round-trip.
package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// cursor walks a payload; every read checks bounds and poisons the
// cursor on underflow so codecs can decode linearly and check err
// once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("transport: truncated payload")
	}
	c.b = nil
}

func (c *cursor) byte() byte {
	if c.err != nil || len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil || uint64(len(c.b)) < n {
		c.fail()
		return ""
	}
	v := string(c.b[:n])
	c.b = c.b[n:]
	return v
}

// bytes returns the next n bytes without copying (aliases the frame
// buffer, which the caller owns).
func (c *cursor) bytes(n uint64) []byte {
	if c.err != nil || uint64(len(c.b)) < n {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) rest() []byte {
	v := c.b
	c.b = nil
	return v
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ---------------------------------------------------------------------------
// Hello: request = fingerprint string; response = applied WAL seq +
// corpus document count (so a coordinator knows what a rejoining
// worker already holds).

func appendHelloReq(dst []byte, fingerprint string) []byte {
	return appendString(dst, fingerprint)
}

func readHelloReq(b []byte) (string, error) {
	c := cursor{b: b}
	fp := c.str()
	return fp, c.err
}

func appendHelloResp(dst []byte, appliedSeq uint64, docs int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, appliedSeq)
	return binary.AppendUvarint(dst, uint64(docs))
}

func readHelloResp(b []byte) (appliedSeq uint64, docs int, err error) {
	c := cursor{b: b}
	appliedSeq = c.u64()
	docs = int(c.uvarint())
	return appliedSeq, docs, c.err
}

// ---------------------------------------------------------------------------
// WAL records (Apply + the Catchup block body). Rating values travel
// as raw IEEE-754 bits; the rare patient payload is JSON (phr.Profile
// is the WAL's own serialization type, so the encoding is shared with
// the on-disk log).

var walOps = map[string]byte{wal.OpRate: 1, wal.OpUnrate: 2, wal.OpPatient: 3}
var walOpNames = map[byte]string{1: wal.OpRate, 2: wal.OpUnrate, 3: wal.OpPatient}

func appendRecord(dst []byte, rec wal.Record) ([]byte, error) {
	op, ok := walOps[rec.Op]
	if !ok {
		return dst, fmt.Errorf("transport: unknown wal op %q", rec.Op)
	}
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint64(dst, rec.Seq)
	dst = appendString(dst, string(rec.User))
	dst = appendString(dst, string(rec.Item))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(rec.Value)))
	if rec.Patient != nil {
		p, err := json.Marshal(rec.Patient)
		if err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	} else {
		dst = binary.AppendUvarint(dst, 0)
	}
	return dst, nil
}

func readRecord(c *cursor) (wal.Record, error) {
	var rec wal.Record
	op := c.byte()
	rec.Seq = c.u64()
	rec.User = model.UserID(c.str())
	rec.Item = model.ItemID(c.str())
	rec.Value = model.Rating(math.Float64frombits(c.u64()))
	plen := c.uvarint()
	pbody := c.bytes(plen)
	if c.err != nil {
		return rec, c.err
	}
	name, ok := walOpNames[op]
	if !ok {
		return rec, fmt.Errorf("transport: unknown wal op byte %d", op)
	}
	rec.Op = name
	if plen > 0 {
		if err := json.Unmarshal(pbody, &rec.Patient); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Catchup: uvarint record count, then one compressed block holding the
// concatenated binary records. Catch-up traffic is the whole journal
// tail for a rejoining worker, so it is the one payload worth
// compressing.

func appendCatchup(dst []byte, recs []wal.Record) (out []byte, rawLen int, err error) {
	raw := getBuf()
	defer putBuf(raw)
	for _, rec := range recs {
		*raw, err = appendRecord(*raw, rec)
		if err != nil {
			return dst, 0, err
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	return AppendCompress(dst, *raw), len(*raw), nil
}

func readCatchup(b []byte) ([]wal.Record, error) {
	c := cursor{b: b}
	n := c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	raw, err := Decompress(nil, c.rest())
	if err != nil {
		return nil, err
	}
	rc := cursor{b: raw}
	recs := make([]wal.Record, 0, n)
	for i := uint64(0); i < n; i++ {
		rec, err := readRecord(&rc)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if len(rc.b) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after catch-up records", len(rc.b))
	}
	return recs, nil
}

// ---------------------------------------------------------------------------
// Document: three counted strings. Documents are corpus state outside
// the WAL, shipped at write time and replayed from the coordinator's
// doc list when a worker rejoins empty.

func appendDocument(dst []byte, id, title, body string) []byte {
	dst = appendString(dst, id)
	dst = appendString(dst, title)
	return appendString(dst, body)
}

func readDocument(b []byte) (id, title, body string, err error) {
	c := cursor{b: b}
	id = c.str()
	title = c.str()
	body = c.str()
	return id, title, body, c.err
}

// ---------------------------------------------------------------------------
// Relevances: the coalesced fan-out. Request = scorer, approx flag,
// member list; response = per-member candidate maps, each item scored
// with its exact float64 bit pattern. One request carries every
// member of a group owned by the same peer.

func appendRelevancesReq(dst []byte, scorer string, approx bool, members []model.UserID) []byte {
	dst = appendString(dst, scorer)
	if approx {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(members)))
	for _, m := range members {
		dst = appendString(dst, string(m))
	}
	return dst
}

func readRelevancesReq(b []byte) (scorer string, approx bool, members []model.UserID, err error) {
	c := cursor{b: b}
	scorer = c.str()
	approx = c.byte() != 0
	n := c.uvarint()
	if c.err != nil || n > uint64(len(b)) {
		c.fail()
		return "", false, nil, c.err
	}
	members = make([]model.UserID, 0, n)
	for i := uint64(0); i < n; i++ {
		members = append(members, model.UserID(c.str()))
	}
	return scorer, approx, members, c.err
}

func appendRelevancesResp(dst []byte, maps []map[model.ItemID]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(maps)))
	for _, m := range maps {
		dst = binary.AppendUvarint(dst, uint64(len(m)))
		for item, score := range m {
			dst = appendString(dst, string(item))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(score))
		}
	}
	return dst
}

// readRelevancesResp decodes a reply into out, which must already be
// sized to the request's member count (position i answers member i).
func readRelevancesResp(b []byte, out []map[model.ItemID]float64) error {
	c := cursor{b: b}
	n := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if n != uint64(len(out)) {
		return fmt.Errorf("transport: relevances reply for %d members, want %d", n, len(out))
	}
	for i := range out {
		sz := c.uvarint()
		if c.err != nil {
			return c.err
		}
		m := make(map[model.ItemID]float64, sz)
		for j := uint64(0); j < sz; j++ {
			item := c.str()
			bits := c.u64()
			if c.err != nil {
				return c.err
			}
			m[model.ItemID(item)] = math.Float64frombits(bits)
		}
		out[i] = m
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after relevances reply", len(c.b))
	}
	return nil
}

// ---------------------------------------------------------------------------
// UserOp: user-level reads routed to the member's owner. Request is
// binary (kind + args); responses are JSON lists of the public result
// types.

const (
	userOpRecommend byte = 1
	userOpPeers     byte = 2
	userOpSearch    byte = 3
)

func appendUserOpReq(dst []byte, kind byte, user, query string, k int, boost float64) []byte {
	dst = append(dst, kind)
	dst = appendString(dst, user)
	dst = appendString(dst, query)
	dst = binary.AppendUvarint(dst, uint64(k))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(boost))
}

func readUserOpReq(b []byte) (kind byte, user, query string, k int, boost float64, err error) {
	c := cursor{b: b}
	kind = c.byte()
	user = c.str()
	query = c.str()
	k = int(c.uvarint())
	boost = math.Float64frombits(c.u64())
	return kind, user, query, k, boost, c.err
}
