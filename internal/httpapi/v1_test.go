package httpapi

// Contract tests for the v1 surface: the machine-readable error
// envelope (every code × status), the removed pre-v1 surfaces, the
// GroupQuery round-trip, the middleware chain, and the cache
// observability counters on /v1/stats.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/core"
)

// TestErrorStatusMappingExhaustive pins the one error→status table:
// every code maps to a sensible status, and classify never returns a
// code outside the table.
func TestErrorStatusMappingExhaustive(t *testing.T) {
	wantStatuses := map[string]int{
		CodeInvalidBody:     400,
		CodeInvalidArgument: 400,
		CodeInvalidQuery:    400,
		CodeEmptyGroup:      400,
		CodeUnknownPatient:  404,
		CodeNotFound:        404,
		CodeUnprocessable:   422,
		CodePayloadTooLarge: 413,
		CodeOverloaded:      429,
		CodeTimeout:         504,
		CodeInternal:        500,
	}
	if !reflect.DeepEqual(ErrorStatus, wantStatuses) {
		t.Errorf("ErrorStatus = %v, want %v", ErrorStatus, wantStatuses)
	}
	for code, status := range ErrorStatus {
		if status < 400 || status > 599 {
			t.Errorf("code %q maps to non-error status %d", code, status)
		}
	}
}

// TestErrorEnvelopeContract drives one real request per error code and
// asserts the full envelope contract end to end: status from the
// table, code in the body, non-empty message, JSON content type.
func TestErrorEnvelopeContract(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)

	// A decodable body past MaxBatchBody: the size bound must trip
	// before the decoder materializes the payload.
	bigMembers := make([]string, 1<<17)
	for i := range bigMembers {
		bigMembers[i] = fmt.Sprintf("m%06d", i) // ≈ 1.3 MiB encoded
	}
	oversized, err := json.Marshal(BatchGroupsBody{Queries: []GroupQueryBody{{Members: bigMembers}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		code           string
		method, path   string
		body           any
		rawBody        []byte
		skipStatusOnly bool
	}{
		{code: CodeInvalidBody, method: "POST", path: "/v1/ratings", rawBody: []byte("{broken")},
		{code: CodeInvalidArgument, method: "GET", path: "/v1/recommendations"},
		{code: CodeInvalidArgument, method: "GET", path: "/v1/peers"},
		{code: CodeInvalidArgument, method: "GET", path: "/v1/recommendations?user=g1&k=-2"},
		{code: CodeInvalidQuery, method: "POST", path: "/v1/groups/recommend",
			body: GroupQueryBody{Members: []string{"g1"}, Z: -3}},
		{code: CodeInvalidQuery, method: "POST", path: "/v1/groups/recommend",
			body: GroupQueryBody{Members: []string{"g1"}, Method: "oracle"}},
		{code: CodeEmptyGroup, method: "POST", path: "/v1/groups/recommend",
			body: GroupQueryBody{Members: nil}},
		{code: CodeUnknownPatient, method: "GET", path: "/v1/peers?user=ghost"},
		{code: CodeUnknownPatient, method: "GET", path: "/v1/recommendations?user=ghost"},
		{code: CodeUnknownPatient, method: "GET", path: "/v1/patients/ghost"},
		{code: CodeUnknownPatient, method: "POST", path: "/v1/groups/recommend",
			body: GroupQueryBody{Members: []string{"g1", "ghost"}}},
		{code: CodeUnprocessable, method: "POST", path: "/v1/ratings",
			body: RatingBody{User: "u", Item: "i", Value: 11}},
		{code: CodeUnprocessable, method: "POST", path: "/v1/patients",
			body: PatientBody{ID: "p", Problems: []string{"not-a-code"}}},
		{code: CodePayloadTooLarge, method: "POST", path: "/v1/groups/recommend:batch", rawBody: oversized},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s %s %s", c.code, c.method, c.path)
		var rec *httptest.ResponseRecorder
		if c.rawBody != nil {
			req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.rawBody))
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
		} else {
			rec = do(t, srv, c.method, c.path, c.body)
		}
		if rec.Code != ErrorStatus[c.code] {
			t.Errorf("%s: status = %d, want %d", name, rec.Code, ErrorStatus[c.code])
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type = %q", name, ct)
		}
		var e ErrorBody
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
			t.Errorf("%s: body not an envelope: %v", name, err)
			continue
		}
		if e.Error.Code != c.code {
			t.Errorf("%s: code = %q", name, e.Error.Code)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: empty message", name)
		}
	}
}

// TestBruteForceServerBounds: the HTTP layer defaults and caps the
// brute-force enumeration so one request cannot pin a CPU past the
// limiter, and an infeasible C(m,z) is a client error, not a 500.
func TestBruteForceServerBounds(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)

	// Asking to lift the cap is rejected up front.
	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "brute", BruteMaxCombos: MaxBruteCombos + 1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-limit combos status = %d, want 400", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidQuery {
		t.Errorf("over-limit combos code = %q, want %q", e.Error.Code, CodeInvalidQuery)
	}
	// Same rule on the batch route, with the offending index named.
	rec = do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{
			{Members: []string{"g1", "g2"}},
			{Members: []string{"g1", "g2"}, Method: "brute", BruteMaxCombos: MaxBruteCombos + 1},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch over-limit status = %d, want 400", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); !strings.Contains(e.Error.Message, "queries[1]") {
		t.Errorf("batch over-limit envelope does not name the entry: %+v", e.Error)
	}
	// An explicit cap within the limit passes through.
	rec = do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "brute", BruteMaxCombos: 1000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("in-limit combos status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// TestHugeZAndKAnswerLikeTheCatalogue: z and k have no upper bound,
// so every buffer they size is bounded by what the input can fill. A z
// or k of 2^36 must answer exactly like one equal to the catalogue
// size, instead of asking the allocator for 2^36 slots.
func TestHugeZAndKAnswerLikeTheCatalogue(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	const huge = 1 << 36
	n := sys.Stats().Items
	members := []string{"g1", "g2"}
	for _, method := range []string{"greedy", "brute"} {
		for name, q := range map[string][2]GroupQueryBody{
			"z": {
				{Members: members, Method: method, Z: huge, Explain: true},
				{Members: members, Method: method, Z: n, Explain: true},
			},
			"k": {
				{Members: members, Method: method, K: huge, Explain: true},
				{Members: members, Method: method, K: n, Explain: true},
			},
		} {
			got := do(t, srv, "POST", "/v1/groups/recommend", q[0])
			want := do(t, srv, "POST", "/v1/groups/recommend", q[1])
			if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
				t.Errorf("%s %s=2^36: status %d body %s, want %s",
					method, name, got.Code, got.Body.String(), want.Body.String())
			}
		}
	}
	got := do(t, srv, "GET", "/v1/recommendations?user=g1&k=68719476736", nil)
	want := do(t, srv, "GET", fmt.Sprintf("/v1/recommendations?user=g1&k=%d", n), nil)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Errorf("recommendations k=2^36: status %d body %s, want %s", got.Code, got.Body.String(), want.Body.String())
	}
}

// TestTooManyCombinationsIsInvalidQuery pins the classification of the
// engine's enumeration guard: a client-chosen m/z whose C(m,z) blows
// the cap must map to 400 invalid_query, not 500 internal.
func TestTooManyCombinationsIsInvalidQuery(t *testing.T) {
	if got := classify(fmt.Errorf("wrapped: %w", core.ErrTooManyCombinations)); got != CodeInvalidQuery {
		t.Errorf("classify(ErrTooManyCombinations) = %q, want %q", got, CodeInvalidQuery)
	}
}

// TestPeersUnknownPatient404: /v1/peers must answer 404, not 500, for a
// patient the system has never seen.
func TestPeersUnknownPatient404(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "GET", "/v1/peers?user=ghost", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeUnknownPatient {
		t.Errorf("code = %q, want %q", e.Error.Code, CodeUnknownPatient)
	}
}

// TestGroupQueryRoundTrip posts the full GroupQuery body and checks
// every knob takes effect.
func TestGroupQueryRoundTrip(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)

	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "brute", BruteM: 10, Explain: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	res := decode[GroupResponse](t, rec)
	if res.Method != "brute" || res.Combinations == 0 {
		t.Errorf("brute round-trip = %+v", res)
	}
	if len(res.Items) != 2 || res.Fairness != 1 {
		t.Errorf("items/fairness = %+v", res)
	}
	if len(res.PerMember) != 2 {
		t.Errorf("explain=true lost per_member: %+v", res.PerMember)
	}

	// explain defaults off in v1 — no per_member payload.
	rec = do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2,
	})
	res = decode[GroupResponse](t, rec)
	if res.Method != "greedy" {
		t.Errorf("default method = %q", res.Method)
	}
	if res.PerMember != nil {
		t.Errorf("per_member present without explain: %+v", res.PerMember)
	}

	// per-query aggregation override
	rec = do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Aggregation: "min",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("aggregation override status = %d body=%s", rec.Code, rec.Body.String())
	}
}

// TestRemovedSurfaces pins what the single /v1 group path replaced:
// the /api tree is gone, a batch must use the queries form, and
// mapreduce is not a serving method (the §IV pipeline is `fairrec mr`).
func TestRemovedSurfaces(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	for _, path := range []string{"/api/stats", "/api/group-recommendations?users=g1,g2"} {
		if rec := do(t, srv, "GET", path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/groups/recommend:batch",
		strings.NewReader(`{"groups":[["g1"]],"z":2}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("groups-form batch status = %d, want 400", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidArgument || strings.Contains(e.Error.Message, "deprecated") {
		t.Errorf("groups-form batch envelope = %+v, want invalid_argument without a deprecated form", e.Error)
	}

	rec = do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "mapreduce",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mapreduce status = %d, want 400", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidQuery {
		t.Errorf("mapreduce code = %q, want %q", e.Error.Code, CodeInvalidQuery)
	}
}

// TestBatchQueriesForm posts the v1 queries list with mixed methods
// and parameters and checks per-entry results match single-shot
// serving.
func TestBatchQueriesForm(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{
			{Members: []string{"g1", "g2"}, Z: 2},
			{Members: []string{"g2", "p1"}, Z: 3, Method: "brute", BruteM: 8},
			{Members: []string{"g1", "p2"}, Z: 2, Aggregation: "min"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	resp := decode[BatchGroupsResponse](t, rec)
	if len(resp.Results) != 3 || resp.Failed != 0 {
		t.Fatalf("results/failed = %d/%d", len(resp.Results), resp.Failed)
	}
	// Entry 1 must match the single-shot brute query exactly.
	single := decode[GroupResponse](t, do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g2", "p1"}, Z: 3, Method: "brute", BruteM: 8,
	}))
	if !reflect.DeepEqual(resp.Results[1].Items, single.Items) {
		t.Errorf("batch brute items %v != single-shot %v", resp.Results[1].Items, single.Items)
	}

	// a malformed query fails the whole batch up front with its index
	rec = do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{
			{Members: []string{"g1", "g2"}},
			{Members: []string{"g1"}, Z: -4},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid query status = %d, want 400", rec.Code)
	}
	e := decode[ErrorBody](t, rec)
	if e.Error.Code != CodeInvalidQuery || !strings.Contains(e.Error.Message, "queries[1]") {
		t.Errorf("invalid query envelope = %+v", e.Error)
	}
}

// newHybridTestServer is newTestServer with the hybrid scorer as the
// default, whose pair memo (Pearson included) fills on serves. Under
// user-cf alone caches.similarity reads zero.
func newHybridTestServer(t *testing.T) (*Server, *fairhealth.System) {
	t.Helper()
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5, Scorer: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0)}), sys
}

// TestStatsCacheCounters checks /v1/stats exposes the similarity and
// peer cache hit/miss/size counters and that they move under traffic.
func TestStatsCacheCounters(t *testing.T) {
	srv, sys := newHybridTestServer(t)
	seed(t, sys)
	statsOf := func() StatsResponse {
		return decode[StatsResponse](t, do(t, srv, "GET", "/v1/stats", nil))
	}
	before := statsOf()
	if before.Caches.Similarity.Hits+before.Caches.Similarity.Misses != 0 {
		t.Fatalf("fresh server has similarity traffic: %+v", before.Caches)
	}
	if rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2,
	}); rec.Code != http.StatusOK {
		t.Fatal("serve failed")
	}
	cold := statsOf()
	if cold.Caches.Similarity.Entries == 0 || cold.Caches.Peers.Entries == 0 {
		t.Errorf("cold serve left empty caches: %+v", cold.Caches)
	}
	if rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2,
	}); rec.Code != http.StatusOK {
		t.Fatal("second serve failed")
	}
	// The repeat query is answered by the group-input memo — the layer
	// above the peer cache — so warmth shows up in the groups counters.
	warm := statsOf()
	if warm.Caches.Groups.Hits <= cold.Caches.Groups.Hits {
		t.Errorf("group-memo hits did not move: cold %+v warm %+v", cold.Caches.Groups, warm.Caches.Groups)
	}
}

// TestStatsCacheEvictionExpirationFields: the stats payload carries
// the engine's eviction/expiration counters on the wire, and a rating
// write moves the eviction counters through scoped invalidation.
func TestStatsCacheEvictionExpirationFields(t *testing.T) {
	srv, sys := newHybridTestServer(t)
	seed(t, sys)
	if rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2,
	}); rec.Code != http.StatusOK {
		t.Fatal("serve failed")
	}
	raw := do(t, srv, "GET", "/v1/stats", nil).Body.String()
	for _, field := range []string{`"evictions"`, `"expirations"`} {
		if !strings.Contains(raw, field) {
			t.Errorf("stats payload missing %s field:\n%s", field, raw)
		}
	}
	before := decode[StatsResponse](t, do(t, srv, "GET", "/v1/stats", nil))
	if rec := do(t, srv, "POST", "/v1/ratings", RatingBody{
		User: "g1", Item: "doc1", Value: 2,
	}); rec.Code != http.StatusCreated {
		t.Fatal("rating write failed")
	}
	after := decode[StatsResponse](t, do(t, srv, "GET", "/v1/stats", nil))
	if after.Caches.Similarity.Evictions <= before.Caches.Similarity.Evictions {
		t.Errorf("similarity evictions did not move after a write: before %+v after %+v",
			before.Caches.Similarity, after.Caches.Similarity)
	}
	if after.Caches.Peers.Evictions <= before.Caches.Peers.Evictions {
		t.Errorf("peer evictions did not move after a write: before %+v after %+v",
			before.Caches.Peers, after.Caches.Peers)
	}
}

// ---------------------------------------------------------------------------
// middleware

func TestRequestIDAssignedAndHonoured(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv, "GET", "/healthz", nil)
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no request ID assigned")
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	got := httptest.NewRecorder()
	srv.ServeHTTP(got, req)
	if got.Header().Get("X-Request-ID") != "caller-chosen-7" {
		t.Errorf("inbound request ID not honoured: %q", got.Header().Get("X-Request-ID"))
	}
}

// TestForgedRequestIDReplaced: an inbound X-Request-ID outside
// [A-Za-z0-9._:-]{1,128} is neither echoed nor logged — it could forge
// access-log fields — and a fresh ID takes its place; a valid one of
// the full 128 bytes is kept.
func TestForgedRequestIDReplaced(t *testing.T) {
	var buf bytes.Buffer
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{Logger: log.New(&buf, "", 0)})
	for _, forged := range []string{
		"abc status=500 path=/v1/forged",
		"abc\tstatus=500",
		"id=1",
		strings.Repeat("a", 129),
	} {
		buf.Reset()
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Request-ID", forged)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-ID")
		if got == forged || !strings.HasPrefix(got, "req-") {
			t.Errorf("forged ID %q echoed as %q, want a fresh req- ID", forged, got)
		}
		line := buf.String()
		if strings.Contains(line, "forged") || strings.Count(line, "status=") != 1 || !strings.Contains(line, "request_id="+got) {
			t.Errorf("forged ID %q reached the access log: %q", forged, line)
		}
	}
	valid := "trace-01.span_2:" + strings.Repeat("x", 112)
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", valid)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != valid {
		t.Errorf("valid 128-byte ID replaced by %q", got)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{Logger: log.New(&buf, "", 0)})
	do(t, srv, "GET", "/v1/stats", nil)
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/stats", "status=200", "request_id="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q missing %q", line, want)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	var buf bytes.Buffer
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{Logger: log.New(&buf, "", 0)})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := do(t, srv, "GET", "/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInternal {
		t.Errorf("code = %q, want %q", e.Error.Code, CodeInternal)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Error("panic not logged")
	}
	// The server survives and keeps answering.
	if rec := do(t, srv, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("server dead after panic: %d", rec.Code)
	}
}

// TestInFlightLimiter saturates a MaxInFlight=2 server with blocked
// handlers and checks the overflow is rejected 429/overloaded while
// /healthz stays reachable; exercised concurrently for -race.
func TestInFlightLimiter(t *testing.T) {
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0), MaxInFlight: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-gate
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
			codes <- rec.Code
		}()
	}
	// Wait for both in-flight slots to be held.
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("slow handlers never started")
		}
	}
	// The server is full: further requests bounce with 429...
	rec := do(t, srv, "GET", "/slow", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeOverloaded {
		t.Errorf("overflow code = %q, want %q", e.Error.Code, CodeOverloaded)
	}
	// ...but the liveness probe bypasses the limiter.
	if rec := do(t, srv, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz under overload = %d, want 200", rec.Code)
	}
	close(gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("in-flight request finished %d, want 200", code)
		}
	}
	// Slots released: the server accepts work again.
	if rec := do(t, srv, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Errorf("post-overload request = %d, want 200", rec.Code)
	}
}

// TestPerRequestTimeout installs a nanosecond deadline and checks a
// context-aware route reports 504/timeout through the envelope.
func TestPerRequestTimeout(t *testing.T) {
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	seed(t, sys)
	srv := NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0), Timeout: time.Nanosecond})
	query := GroupQueryBody{Members: []string{"g1", "g2"}, Z: 2}
	batch := BatchGroupsBody{Queries: []GroupQueryBody{query, query}}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/groups/recommend", query},
		// A batch whose deadline passes before any query completes is the
		// request's failure, in both response forms.
		{"/v1/groups/recommend:batch", batch},
		{"/v1/groups/recommend:batch?stream=true", batch},
	} {
		rec := do(t, srv, "POST", c.path, c.body)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status = %d body=%s, want 504", c.path, rec.Code, rec.Body.String())
		}
		if e := decode[ErrorBody](t, rec); e.Error.Code != CodeTimeout {
			t.Errorf("%s: code = %q, want %q", c.path, e.Error.Code, CodeTimeout)
		}
	}
}

// ---------------------------------------------------------------------------
// scorer field

// TestScorerFieldRoundTrip: the scorer wire field reaches the library
// (item-cf answers differ in shape from an invalid scorer's 400) and
// the served result matches the library path exactly.
func TestScorerFieldRoundTrip(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Scorer: "item-cf",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("item-cf serve = %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[GroupResponse](t, rec)
	want, err := sys.Serve(nil, fairhealth.GroupQuery{
		Members: []string{"g1", "g2"}, Z: 2, Scorer: "item-cf",
		BruteM: DefaultBruteM, BruteMaxCombos: MaxBruteCombos,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) || got.Fairness != want.Fairness || got.Value != want.Value {
		t.Errorf("HTTP item-cf result diverged from library Serve: %+v vs %+v", got, want)
	}
}

// TestScorerFieldValidation: an unknown scorer is 400 invalid_query
// with the standard envelope, on the single and batch endpoints.
func TestScorerFieldValidation(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1"}, Scorer: "psychic",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown scorer status = %d", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidQuery {
		t.Errorf("unknown scorer code = %q, want %q", e.Error.Code, CodeInvalidQuery)
	}
	rec = do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{{Members: []string{"g1"}, Scorer: "psychic"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch unknown scorer status = %d", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidQuery || !strings.Contains(e.Error.Message, "queries[0]") {
		t.Errorf("batch unknown scorer envelope = %+v", e.Error)
	}
	// mapreduce restricts the scorer to user-cf.
	rec = do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Method: "mapreduce", Scorer: "item-cf",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("mapreduce+item-cf status = %d", rec.Code)
	}
}

// TestBatchMixedScorers: one batch mixes relevance backends and every
// entry succeeds.
func TestBatchMixedScorers(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{
			{Members: []string{"g1", "g2"}, Z: 2},
			{Members: []string{"g1", "g2"}, Z: 2, Scorer: "item-cf"},
			{Members: []string{"g1", "g2"}, Z: 2, Scorer: "user-cf"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode[BatchGroupsResponse](t, rec)
	if resp.Failed != 0 || len(resp.Results) != 3 {
		t.Fatalf("mixed batch results = %+v", resp)
	}
	// Entries 0 and 2 are both user-cf over the same group: identical.
	if !reflect.DeepEqual(resp.Results[0].Items, resp.Results[2].Items) {
		t.Error("default and explicit user-cf entries diverged")
	}
}

// TestStatsAgeHistogram: every cache layer reports an entry-age
// histogram with one overflow bucket, and serving moves entries into
// the youngest bucket.
func TestStatsAgeHistogram(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	if rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2,
	}); rec.Code != http.StatusOK {
		t.Fatal("serve failed")
	}
	st := decode[StatsResponse](t, do(t, srv, "GET", "/v1/stats", nil))
	for name, layer := range map[string]fairhealth.CacheCounters{
		"similarity": st.Caches.Similarity,
		"peers":      st.Caches.Peers,
		"groups":     st.Caches.Groups,
	} {
		h := layer.Ages
		if len(h.BoundsSeconds) == 0 || len(h.Counts) != len(h.BoundsSeconds)+1 {
			t.Fatalf("%s histogram malformed: %+v", name, h)
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		if total != layer.Entries {
			t.Errorf("%s: histogram total %d != entries %d", name, total, layer.Entries)
		}
		if layer.Entries > 0 && h.Counts[0] == 0 {
			t.Errorf("%s: fresh entries missing from the youngest bucket: %+v", name, h)
		}
	}
	raw := do(t, srv, "GET", "/v1/stats", nil).Body.String()
	if !strings.Contains(raw, `"age_histogram"`) {
		t.Errorf("stats payload missing age_histogram field:\n%s", raw)
	}
}

// TestBruteForceInfeasibleComboGate: a request whose candidate pool
// makes C(m,z) exceed its own brute_max_combos budget must be rejected
// by the ENGINE's up-front feasibility gate — not merely the HTTP-layer
// server-cap check — and surface as 400 invalid_query. Pins that the
// branch-and-bound solver still counts combinations before pruning.
func TestBruteForceInfeasibleComboGate(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	// Widen the group's candidate pool beyond 2 items so that z=2 < m
	// and C(m,2) ≥ 3 exceeds a budget of 1.
	for _, r := range []struct {
		u, i string
		v    float64
	}{
		{"p1", "dC", 4}, {"p2", "dC", 3},
		{"p1", "dD", 3}, {"p2", "dD", 5},
	} {
		if err := sys.AddRating(r.u, r.i, r.v); err != nil {
			t.Fatal(err)
		}
	}
	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "brute", BruteMaxCombos: 1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("infeasible C(m,z) status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeInvalidQuery {
		t.Errorf("infeasible C(m,z) code = %q, want %q", e.Error.Code, CodeInvalidQuery)
	}
	// The identical query with an adequate budget succeeds.
	if rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Method: "brute", BruteMaxCombos: 100,
	}); rec.Code != http.StatusOK {
		t.Fatalf("feasible budget status = %d: %s", rec.Code, rec.Body.String())
	}
}
