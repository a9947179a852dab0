package main

// The closed-loop HTTP clients: each owns one keep-alive connection,
// sends its next op only after the previous reply is fully read and
// checked, and records one latency sample per request. With tracing on
// it also records a span per client-side step.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"fairhealth/internal/httpapi"
)

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	client uint64
	next   uint64
	epoch  time.Time // span times count from here
	spans  []span
}

func newTracer(client int, epoch time.Time) *tracer {
	return &tracer{client: uint64(client+1) << 32, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) id() uint64 {
	t.next++
	return t.client | t.next
}

func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// httpClient is one closed-loop client.
type httpClient struct {
	id   int
	base string
	hc   *http.Client
	body bytes.Buffer // reply buffer, reused across requests

	// expect, once set, is the oracle's answer per hot-pool group:
	// every hot-pool reply must equal it bit-for-bit.
	expect []answer

	// acked collects the rating writes the server acknowledged, in
	// order, for the post-churn oracle replay.
	acked []op

	attempted, failed int
	firstErr          error
}

func newHTTPClient(id int, base string) *httpClient {
	return &httpClient{
		id: id, base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func (c *httpClient) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// wireQuery is the request body of one group query.
func wireQuery(q query) httpapi.GroupQueryBody {
	return httpapi.GroupQueryBody{Members: q.members, Z: listZ, Scorer: q.scorer}
}

// encode renders the op's request: method, path and JSON body.
func encode(o op) (method, path string, body []byte, err error) {
	method = http.MethodPost
	switch o.kind {
	case opQuery:
		path = "/v1/groups/recommend"
		body, err = json.Marshal(wireQuery(o.queries[0]))
	case opBatch:
		path = "/v1/groups/recommend:batch"
		b := httpapi.BatchGroupsBody{Queries: make([]httpapi.GroupQueryBody, len(o.queries))}
		for k, q := range o.queries {
			b.Queries[k] = wireQuery(q)
		}
		body, err = json.Marshal(b)
	case opWrite:
		path = "/v1/ratings"
		body, err = json.Marshal(httpapi.RatingBody{User: o.user, Item: o.item, Value: o.value})
	case opTouch:
		method, path = http.MethodGet, "/v1/peers?user="+url.QueryEscape(o.user)
	}
	return method, path, body, err
}

// roundTrip sends the request and reads the whole reply into c.body.
func (c *httpClient) roundTrip(ctx context.Context, method, path string, body []byte) (status int, err error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := io.Copy(&c.body, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// decode parses the reply to o into the answers it carries (none for
// a write or a peer-set request).
func (c *httpClient) decode(o op) ([]answer, error) {
	switch o.kind {
	case opQuery:
		var r httpapi.GroupResponse
		if err := json.Unmarshal(c.body.Bytes(), &r); err != nil {
			return nil, err
		}
		return []answer{{items: r.Items, fairness: r.Fairness, value: r.Value}}, nil
	case opBatch:
		var r httpapi.BatchGroupsResponse
		if err := json.Unmarshal(c.body.Bytes(), &r); err != nil {
			return nil, err
		}
		if r.Failed != 0 || len(r.Results) != len(o.queries) {
			return nil, fmt.Errorf("batch: %d results for %d queries, %d failed", len(r.Results), len(o.queries), r.Failed)
		}
		out := make([]answer, len(r.Results))
		for k, e := range r.Results {
			out[k] = answer{items: e.Items, fairness: e.Fairness, value: e.Value}
		}
		return out, nil
	}
	return nil, nil
}

// check validates every answer of the reply: shape always, and
// equality with the oracle for hot-pool groups.
func (c *httpClient) check(o op, answers []answer) error {
	for k, a := range answers {
		if err := checkShape(a, listZ); err != nil {
			return err
		}
		if h := o.queries[k].hot; h >= 0 && c.expect != nil {
			if err := sameAnswer(a, c.expect[h]); err != nil {
				return fmt.Errorf("hot group %d: %w", h, err)
			}
		}
	}
	return nil
}

// do runs one op to completion and returns the round-trip latency
// (request sent → reply fully read). A transport error, a non-2xx
// status or a failed check makes the request a failure, which then
// has no latency. tr may be nil (tracing off).
func (c *httpClient) do(ctx context.Context, o op, tr *tracer) (lat time.Duration, answers []answer, ok bool) {
	c.attempted++
	t0 := time.Now()
	method, path, body, err := encode(o)
	t1 := time.Now()
	if err != nil {
		c.fail(err)
		return 0, nil, false
	}
	status, err := c.roundTrip(ctx, method, path, body)
	t2 := time.Now()
	lat = t2.Sub(t1)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("%s: %w", path, err))
		return 0, nil, false
	case status < 200 || status > 299:
		c.fail(fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(c.body.Bytes())))
		return 0, nil, false
	}
	answers, err = c.decode(o)
	t3 := time.Now()
	if err == nil {
		err = c.check(o, answers)
	}
	t4 := time.Now()
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", path, err))
		return 0, nil, false
	}
	if o.kind == opWrite {
		c.acked = append(c.acked, o)
	}
	if tr != nil {
		root := tr.id()
		req := root
		tr.add(root, 0, req, "client.op."+o.kind.className(), t0, t4)
		tr.add(tr.id(), root, req, "client.encode", t0, t1)
		tr.add(tr.id(), root, req, "client.roundtrip", t1, t2)
		tr.add(tr.id(), root, req, "client.decode", t2, t3)
		tr.add(tr.id(), root, req, "client.check", t3, t4)
	}
	return lat, answers, true
}

// phaseResult is what one timed phase recorded, per op class.
type phaseResult struct {
	dur     time.Duration // the phase's nominal length: no request starts after it
	elapsed time.Duration // until the last in-flight request completed
	samples map[opKind][]sample
}

func (r phaseResult) ops() int {
	n := 0
	for _, s := range r.samples {
		n += len(s)
	}
	return n
}

// runPhase drives every client's closed loop for dur: next(c) yields
// client c's next op. The phase ends when dur has passed and every
// in-flight request has completed. With tracers, each client traces
// every second op, so traced and untraced requests meet the same
// server state and the same machine noise.
func runPhase(ctx context.Context, cs []*httpClient, dur time.Duration, next func(c int) op, trs []*tracer) phaseResult {
	epoch := time.Now()
	deadline := epoch.Add(dur)
	per := make([]map[opKind][]sample, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *httpClient) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[i]
			}
			mine := make(map[opKind][]sample)
			for n := 0; ctx.Err() == nil; n++ {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				o := next(i)
				use := tr
				if n%2 == 0 {
					use = nil
				}
				if lat, _, ok := c.do(ctx, o, use); ok {
					mine[o.kind] = append(mine[o.kind], sample{at: start.Sub(epoch).Nanoseconds(), lat: lat.Nanoseconds(), traced: use != nil})
				}
			}
			per[i] = mine
		}(i, c)
	}
	wg.Wait()
	return mergeSamples(per, dur, time.Since(epoch))
}

// runOnce splits a fixed list of ops across the clients (op i goes to
// client i mod clients) and runs them to completion, however long that
// takes. fn, when not nil, receives each successful op's decoded
// answers.
func runOnce(ctx context.Context, cs []*httpClient, ops []op, fn func(i int, answers []answer)) phaseResult {
	epoch := time.Now()
	per := make([]map[opKind][]sample, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *httpClient) {
			defer wg.Done()
			mine := make(map[opKind][]sample)
			for k := ci; k < len(ops) && ctx.Err() == nil; k += len(cs) {
				start := time.Now()
				lat, answers, ok := c.do(ctx, ops[k], nil)
				if !ok {
					continue
				}
				mine[ops[k].kind] = append(mine[ops[k].kind], sample{at: start.Sub(epoch).Nanoseconds(), lat: lat.Nanoseconds()})
				if fn != nil {
					fn(k, answers)
				}
			}
			per[ci] = mine
		}(ci, c)
	}
	wg.Wait()
	return mergeSamples(per, time.Since(epoch), time.Since(epoch))
}

func mergeSamples(per []map[opKind][]sample, dur, elapsed time.Duration) phaseResult {
	res := phaseResult{dur: dur, elapsed: elapsed, samples: make(map[opKind][]sample)}
	for _, mine := range per {
		for k, s := range mine {
			res.samples[k] = append(res.samples[k], s...)
		}
	}
	return res
}
