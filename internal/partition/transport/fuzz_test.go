package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"fairhealth/internal/model"
	"fairhealth/internal/ontology"
	"fairhealth/internal/phr"
	"fairhealth/internal/wal"
)

// Length bombs: tiny payloads whose counts claim far more elements
// than they carry. A decoder that sizes an allocation by such a count
// panics (cap out of range) or exhausts memory.
var (
	// catchupBomb claims 2^62 records over an empty compressed block.
	catchupBomb = AppendCompress(binary.AppendUvarint(nil, 1<<62), nil)
	// relevancesBomb answers one member with a map claiming 2^36
	// scored items.
	relevancesBomb = append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<36), 0, 0, 0, 0, 0)
	// membersBomb asks for the relevances of 2^40 members.
	membersBomb = binary.AppendUvarint(append(appendString(nil, "user-cf"), 0), 1<<40)
	// snapBomb is a bare compressed-block header claiming a whole frame.
	snapBomb = binary.AppendUvarint(nil, maxFrame)
)

func TestDecodersRejectLengthBombs(t *testing.T) {
	if _, err := readCatchup(catchupBomb); err == nil {
		t.Error("readCatchup accepted a 2^62-record claim")
	}
	if err := readRelevancesResp(relevancesBomb, make([]map[model.ItemID]float64, 1)); err == nil {
		t.Error("readRelevancesResp accepted a 2^36-item claim")
	}
	if _, _, _, err := readRelevancesReq(membersBomb); err == nil {
		t.Error("readRelevancesReq accepted a 2^40-member claim")
	}
}

// FuzzTransportDecoders feeds arbitrary payloads to every wire
// decoder. None may panic, and whatever one decodes must survive a
// round trip through its encoder unchanged.
func FuzzTransportDecoders(f *testing.F) {
	recs := []wal.Record{
		{Seq: 1, Op: wal.OpRate, User: "u1", Item: "d9", Value: 4.5},
		{Seq: 2, Op: wal.OpUnrate, User: "u1", Item: "d9"},
		{Seq: 3, Op: wal.OpPatient, User: "u2", Patient: &phr.Profile{
			ID: "u2", Age: 40, Gender: "f", Problems: []ontology.ConceptID{"C01"},
		}},
	}
	for _, rec := range recs {
		b, err := appendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	catchup, _, err := appendCatchup(nil, recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(catchup)
	f.Add(AppendCompress(nil, []byte("abcabcabcabcabc-xyz")))
	f.Add(appendHelloResp(nil, 42, 7))
	f.Add(appendDocument(nil, "d1", "Hypertension", "body"))
	f.Add(appendRelevancesReq(nil, "user-cf", true, []model.UserID{"u1", "u2"}))
	f.Add(appendRelevancesResp(nil, []map[model.ItemID]float64{{"d1": 0.1 + 0.2, "d2": -1}, {}}))
	f.Add(appendUserOpReq(nil, userOpRecommend, "u1", "", 10, 0.5))
	f.Add(catchupBomb)
	f.Add(relevancesBomb)
	f.Add(membersBomb)
	f.Add(snapBomb)
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzDecompress(t, b)
		fuzzRecord(t, b)
		fuzzCatchup(t, b)
		fuzzRelevancesReq(t, b)
		fuzzRelevancesResp(t, b)
		fuzzUserOpReq(t, b)
		fuzzHelloResp(t, b)
		fuzzDocument(t, b)
	})
}

func fuzzDecompress(t *testing.T, b []byte) {
	raw, err := Decompress(nil, b)
	if err != nil {
		return
	}
	got, err := Decompress(nil, AppendCompress(nil, raw))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("Decompress round trip: %v", err)
	}
}

// encodeRecord re-encodes a decoded record; comparing encodings keeps
// NaN values (which never equal themselves) comparable by their bits.
func encodeRecord(t *testing.T, rec wal.Record) []byte {
	b, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatalf("appendRecord(%+v): %v", rec, err)
	}
	return b
}

func fuzzRecord(t *testing.T, b []byte) {
	c := cursor{b: b}
	rec, err := readRecord(&c)
	if err != nil {
		return
	}
	enc := encodeRecord(t, rec)
	c = cursor{b: enc}
	again, err := readRecord(&c)
	if err != nil || len(c.b) != 0 || !bytes.Equal(encodeRecord(t, again), enc) {
		t.Fatalf("record round trip: %+v → %+v, %v", rec, again, err)
	}
}

func fuzzCatchup(t *testing.T, b []byte) {
	recs, err := readCatchup(b)
	if err != nil {
		return
	}
	enc, _, err := appendCatchup(nil, recs)
	if err != nil {
		t.Fatalf("appendCatchup: %v", err)
	}
	again, err := readCatchup(enc)
	if err != nil {
		t.Fatalf("catch-up round trip: %v", err)
	}
	enc2, _, err := appendCatchup(nil, again)
	if err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("catch-up round trip changed %d records: %v", len(recs), err)
	}
}

func fuzzRelevancesReq(t *testing.T, b []byte) {
	scorer, approx, members, err := readRelevancesReq(b)
	if err != nil {
		return
	}
	s2, a2, m2, err := readRelevancesReq(appendRelevancesReq(nil, scorer, approx, members))
	if err != nil || s2 != scorer || a2 != approx || !slices.Equal(m2, members) {
		t.Fatalf("relevances request round trip: %q %v %q → %q %v %q, %v",
			scorer, approx, members, s2, a2, m2, err)
	}
}

func fuzzRelevancesResp(t *testing.T, b []byte) {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > uint64(len(b)) {
		return
	}
	out := make([]map[model.ItemID]float64, n)
	if readRelevancesResp(b, out) != nil {
		return
	}
	again := make([]map[model.ItemID]float64, n)
	if err := readRelevancesResp(appendRelevancesResp(nil, out), again); err != nil {
		t.Fatalf("relevances reply round trip: %v", err)
	}
	for i := range out {
		if len(again[i]) != len(out[i]) {
			t.Fatalf("member %d: %d scores → %d", i, len(out[i]), len(again[i]))
		}
		for item, score := range out[i] {
			if got, ok := again[i][item]; !ok || math.Float64bits(got) != math.Float64bits(score) {
				t.Fatalf("member %d item %q: score %v → %v", i, item, score, got)
			}
		}
	}
}

func fuzzUserOpReq(t *testing.T, b []byte) {
	kind, user, query, k, boost, err := readUserOpReq(b)
	if err != nil {
		return
	}
	k2, u2, q2, kk2, b2, err := readUserOpReq(appendUserOpReq(nil, kind, user, query, k, boost))
	if err != nil || k2 != kind || u2 != user || q2 != query || kk2 != k ||
		math.Float64bits(b2) != math.Float64bits(boost) {
		t.Fatalf("user op round trip: %v", err)
	}
}

func fuzzHelloResp(t *testing.T, b []byte) {
	seq, docs, err := readHelloResp(b)
	if err != nil {
		return
	}
	s2, d2, err := readHelloResp(appendHelloResp(nil, seq, docs))
	if err != nil || s2 != seq || d2 != docs {
		t.Fatalf("hello reply round trip: %d %d → %d %d, %v", seq, docs, s2, d2, err)
	}
}

func fuzzDocument(t *testing.T, b []byte) {
	id, title, body, err := readDocument(b)
	if err != nil {
		return
	}
	i2, t2, b2, err := readDocument(appendDocument(nil, id, title, body))
	if err != nil || i2 != id || t2 != title || b2 != body {
		t.Fatalf("document round trip: %v", err)
	}
}
