package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// TestLocalMatchesClient runs one call sequence over the wire and
// through a Local, each against its own server: results and failures
// must agree, so a router classifies both transports alike.
func TestLocalMatchesClient(t *testing.T) {
	newBackend := func() *fakeBackend {
		return &fakeBackend{relevances: map[string]map[model.ItemID]float64{
			"u1": {"d1": 0.1 + 0.2, "d2": -0.0},
		}}
	}
	cl := startServer(t, newBackend(), "fp", ClientOptions{})
	local := NewLocal(NewServer(newBackend(), "fp"))
	ctx := context.Background()
	rec := func(seq uint64) wal.Record {
		return wal.Record{Seq: seq, Op: wal.OpRate, User: "u1", Item: "d1", Value: 4}
	}

	type outcome struct {
		val  any
		code byte
		msg  string
	}
	run := func(c interface {
		Hello(context.Context, string) (uint64, int, error)
		Apply(context.Context, wal.Record) error
		Catchup(context.Context, []wal.Record) (uint64, error)
		Document(context.Context, string, string, string) error
		Relevances(context.Context, string, bool, []model.UserID, []map[model.ItemID]float64) error
		Recommend(context.Context, string, int) ([]fairhealth.Recommendation, error)
	}) []outcome {
		var outs []outcome
		add := func(val any, err error) {
			o := outcome{val: val}
			if err != nil {
				var we *WireError
				if !errors.As(err, &we) {
					t.Fatalf("%v is not a *WireError", err)
				}
				o.code, o.msg = we.Code, we.Msg
			}
			outs = append(outs, o)
		}
		seq, docs, err := c.Hello(ctx, "fp")
		add([2]any{seq, docs}, err)
		_, _, err = c.Hello(ctx, "other")
		add(nil, err)
		add(nil, c.Apply(ctx, rec(1)))
		add(nil, c.Apply(ctx, rec(1)))
		add(nil, c.Apply(ctx, rec(3)))
		seq, err = c.Catchup(ctx, []wal.Record{rec(1), rec(2)})
		add(seq, err)
		add(nil, c.Document(ctx, "d1", "t", "b"))
		out := make([]map[model.ItemID]float64, 1)
		err = c.Relevances(ctx, "user-cf", false, []model.UserID{"u1"}, out)
		add(out, err)
		err = c.Relevances(ctx, "user-cf", false, []model.UserID{"ghost"}, make([]map[model.ItemID]float64, 1))
		add(nil, err)
		recs, err := c.Recommend(ctx, "u1", 3)
		add(recs, err)
		return outs
	}
	wire, inproc := run(cl), run(local)
	if !reflect.DeepEqual(wire, inproc) {
		t.Fatalf("outcomes diverged\nwire:  %+v\nlocal: %+v", wire, inproc)
	}
	if wire[4].code != errSeqGap || wire[8].code != errUnknownPatient {
		t.Fatalf("codes %d, %d; want the seq-gap and unknown-patient codes", wire[4].code, wire[8].code)
	}

	// With no server the Local is a lost peer: a transport failure,
	// not an application error.
	local.Reset(nil)
	err := local.Apply(ctx, rec(3))
	var we *WireError
	if !errors.Is(err, ErrClientClosed) || errors.As(err, &we) {
		t.Fatalf("call after Reset(nil): %v, want bare ErrClientClosed", err)
	}
}
