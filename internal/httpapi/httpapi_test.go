package httpapi

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
	"testing"

	"fairhealth"
)

func newTestServer(t *testing.T) (*Server, *fairhealth.System) {
	t.Helper()
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0)}), sys
}

func seed(t *testing.T, sys Backend) {
	t.Helper()
	for _, r := range []struct {
		u, i string
		v    float64
	}{
		{"g1", "q1", 5}, {"g1", "q2", 1},
		{"g2", "q1", 5}, {"g2", "q2", 1},
		{"p1", "q1", 5}, {"p1", "q2", 1}, {"p1", "dA", 5}, {"p1", "dB", 2},
		{"p2", "q1", 1}, {"p2", "q2", 5}, {"p2", "dA", 1}, {"p2", "dB", 4},
	} {
		if err := sys.AddRating(r.u, r.i, r.v); err != nil {
			t.Fatal(err)
		}
	}
}

func do(t *testing.T, srv *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := decode[map[string]string](t, rec); got["status"] != "ok" {
		t.Errorf("body = %v", got)
	}
}

func TestStats(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	st := decode[fairhealth.Stats](t, rec)
	if st.Ratings != 12 || st.Users != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPatientEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	// create
	rec := do(t, srv, "POST", "/v1/patients", PatientBody{
		ID: "alice", Age: 40, Gender: "female", Problems: []string{"10509002"},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d body=%s", rec.Code, rec.Body.String())
	}
	// fetch
	rec = do(t, srv, "GET", "/v1/patients/alice", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	p := decode[fairhealth.Patient](t, rec)
	if p.Age != 40 || len(p.Problems) != 1 {
		t.Errorf("patient = %+v", p)
	}
	// list
	rec = do(t, srv, "GET", "/v1/patients", nil)
	got := decode[map[string][]string](t, rec)
	if len(got["patients"]) != 1 || got["patients"][0] != "alice" {
		t.Errorf("list = %v", got)
	}
	// missing
	rec = do(t, srv, "GET", "/v1/patients/ghost", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing patient status = %d", rec.Code)
	}
	// invalid payloads
	if rec := do(t, srv, "POST", "/v1/patients", PatientBody{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty id status = %d", rec.Code)
	}
	if rec := do(t, srv, "POST", "/v1/patients", PatientBody{ID: "bob", Problems: []string{"nope"}}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad problem code status = %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/v1/patients", strings.NewReader("{broken"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed json status = %d", w.Code)
	}
}

func TestRatingEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	rec := do(t, srv, "POST", "/v1/ratings", RatingBody{User: "u1", Item: "d1", Value: 4})
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	if sys.Stats().Ratings != 1 {
		t.Error("rating not persisted")
	}
	if rec := do(t, srv, "POST", "/v1/ratings", RatingBody{User: "u1", Item: "d1", Value: 11}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range status = %d", rec.Code)
	}
	if rec := do(t, srv, "POST", "/v1/ratings", RatingBody{Item: "d1", Value: 3}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing user status = %d", rec.Code)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "GET", "/v1/recommendations?user=g1&k=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var body struct {
		User  string                      `json:"user"`
		Items []fairhealth.Recommendation `json:"items"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Items) != 2 || body.Items[0].Item != "dA" {
		t.Errorf("items = %+v", body.Items)
	}
	// parameter validation
	if rec := do(t, srv, "GET", "/v1/recommendations", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing user status = %d", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/recommendations?user=g1&k=-2", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad k status = %d", rec.Code)
	}
	// unknown user → 404 with the unknown_patient code (regression:
	// this used to leak through as a 200/500 depending on the path)
	rec = do(t, srv, "GET", "/v1/recommendations?user=ghost", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown user status = %d, want 404", rec.Code)
	}
	if e := decode[ErrorBody](t, rec); e.Error.Code != CodeUnknownPatient {
		t.Errorf("unknown user code = %q, want %q", e.Error.Code, CodeUnknownPatient)
	}
}

func TestPeersEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "GET", "/v1/peers?user=g1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Peers []fairhealth.Peer `json:"peers"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Peers) == 0 {
		t.Error("no peers returned")
	}
	if rec := do(t, srv, "GET", "/v1/peers", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing user status = %d", rec.Code)
	}
}

func TestGroupRecommendationEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 2, Explain: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	body := decode[GroupResponse](t, rec)
	if body.Method != "greedy" || body.Fairness != 1 || len(body.Items) != 2 {
		t.Errorf("body = %+v", body)
	}
	if len(body.PerMember) != 2 {
		t.Errorf("per_member = %v", body.PerMember)
	}
}

func TestGroupRecommendationMethods(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	results := map[string]GroupResponse{}
	for _, method := range []string{"greedy", "brute"} {
		rec := do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
			Members: []string{"g1", "g2"}, Z: 2, Method: method, Explain: true,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d body=%s", method, rec.Code, rec.Body.String())
		}
		results[method] = decode[GroupResponse](t, rec)
	}
	for method, res := range results {
		if res.Fairness != 1 {
			t.Errorf("%s fairness = %v, want 1", method, res.Fairness)
		}
	}
	if results["brute"].Combinations == 0 {
		t.Error("brute force reported no combinations")
	}
	if results["brute"].Value+1e-9 < results["greedy"].Value {
		t.Errorf("brute value %v below greedy %v", results["brute"].Value, results["greedy"].Value)
	}
}

func TestGroupRecommendationValidation(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	for _, body := range []string{
		`{}`,
		`{"members":["g1","g2"],"z":"abc"}`,
		`{"members":["g1","g2"],"method":"oracle"}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/groups/recommend", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want %d", body, rec.Code, http.StatusBadRequest)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv, "DELETE", "/v1/patients", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d, want 405", rec.Code)
	}
}

func TestErrorBodiesAreJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv, "GET", "/v1/recommendations", nil)
	var e ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Errorf("error body not the machine-readable envelope: %q (%v)", rec.Body.String(), err)
	}
	if e.Error.Code != CodeInvalidArgument {
		t.Errorf("code = %q, want %q", e.Error.Code, CodeInvalidArgument)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
}

func TestDocumentAndSearchEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	docs := []DocumentBody{
		{ID: "doc1", Title: "Managing chemotherapy nausea", Body: "chemotherapy nausea ginger relief"},
		{ID: "doc2", Title: "Heart healthy diet", Body: "heart cholesterol diet fiber"},
	}
	for _, d := range docs {
		if rec := do(t, srv, "POST", "/v1/documents", d); rec.Code != http.StatusCreated {
			t.Fatalf("create doc status = %d body=%s", rec.Code, rec.Body.String())
		}
	}
	// duplicate rejected
	if rec := do(t, srv, "POST", "/v1/documents", docs[0]); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("duplicate doc status = %d", rec.Code)
	}
	// missing id rejected
	if rec := do(t, srv, "POST", "/v1/documents", DocumentBody{Title: "x"}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing id status = %d", rec.Code)
	}

	rec := do(t, srv, "GET", "/v1/search?q=chemotherapy+nausea&k=5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status = %d body=%s", rec.Code, rec.Body.String())
	}
	var body struct {
		Query string                    `json:"query"`
		Hits  []fairhealth.SearchResult `json:"hits"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Hits) == 0 || body.Hits[0].Item != "doc1" {
		t.Errorf("hits = %+v, want doc1 first", body.Hits)
	}
	if body.Hits[0].Title != "Managing chemotherapy nausea" {
		t.Errorf("title = %q", body.Hits[0].Title)
	}
	// no-match query returns empty list, 200
	rec = do(t, srv, "GET", "/v1/search?q=zebra", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("no-match status = %d", rec.Code)
	}
	// missing q
	if rec := do(t, srv, "GET", "/v1/search", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q status = %d", rec.Code)
	}
}

// TestSearchThenRateRoundTrip exercises the full Fig. 1 loop: search for
// a document, rate it, get it reflected in recommendations for a peer.
func TestSearchThenRateRoundTrip(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	if rec := do(t, srv, "POST", "/v1/documents", DocumentBody{
		ID: "dA", Title: "Nutrition during chemotherapy", Body: "nutrition chemotherapy appetite",
	}); rec.Code != http.StatusCreated {
		t.Fatal("index doc failed")
	}
	// a patient finds the document through search...
	rec := do(t, srv, "GET", "/v1/search?q=nutrition", nil)
	var sr struct {
		Hits []fairhealth.SearchResult `json:"hits"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != 1 || sr.Hits[0].Item != "dA" {
		t.Fatalf("hits = %+v", sr.Hits)
	}
	// ...and rates it; the rating lands in the same item space the
	// recommender uses (dA is already a candidate in the seed data)
	if rec := do(t, srv, "POST", "/v1/ratings", RatingBody{User: "p1", Item: sr.Hits[0].Item, Value: 5}); rec.Code != http.StatusCreated {
		t.Fatal("rating via search id failed")
	}
	stats := decode[fairhealth.Stats](t, do(t, srv, "GET", "/v1/stats", nil))
	if stats.Documents != 1 {
		t.Errorf("stats.Documents = %d", stats.Documents)
	}
}

func TestCorrespondencesEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	for _, p := range []fairhealth.Patient{
		{ID: "p1", Problems: []string{"10509002"}},           // acute bronchitis
		{ID: "p3", Problems: []string{"7001023", "7004001"}}, // tracheobronchitis + broken arm
	} {
		if err := sys.AddPatient(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := do(t, srv, "GET", "/v1/correspondences?a=p1&b=p3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var body struct {
		Correspondences []fairhealth.Correspondence `json:"correspondences"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Correspondences) != 2 {
		t.Fatalf("correspondences = %+v", body.Correspondences)
	}
	if body.Correspondences[0].Distance != 2 {
		t.Errorf("best distance = %d, want 2", body.Correspondences[0].Distance)
	}
	if body.Correspondences[0].Explanation == "" {
		t.Error("missing explanation")
	}
	// validation
	if rec := do(t, srv, "GET", "/v1/correspondences?a=p1", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing b status = %d", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/correspondences?a=p1&b=ghost", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown patient status = %d", rec.Code)
	}
}

func TestPersonalizedSearchEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	if err := sys.AddPatient(fairhealth.Patient{ID: "p1", Problems: []string{"10509002"}}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []DocumentBody{
		{ID: "resp", Title: "Living with bronchitis", Body: "bronchitis cough recovery"},
		{ID: "gen", Title: "General recovery", Body: "recovery rest hydration"},
	} {
		if rec := do(t, srv, "POST", "/v1/documents", d); rec.Code != http.StatusCreated {
			t.Fatal("doc create failed")
		}
	}
	rec := do(t, srv, "GET", "/v1/search?q=recovery&user=p1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var body struct {
		Hits []fairhealth.SearchResult `json:"hits"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Hits) == 0 || body.Hits[0].Item != "resp" {
		t.Errorf("personalized hits = %+v, want resp first", body.Hits)
	}
	if rec := do(t, srv, "GET", "/v1/search?q=recovery&user=ghost", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown user status = %d", rec.Code)
	}
}

func TestGroupRecommendBatchEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{{Members: []string{"g1", "g2"}, Z: 3}, {Members: []string{"g2", "p1"}, Z: 3}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decode[BatchGroupsResponse](t, rec)
	if len(resp.Results) != 2 || resp.Failed != 0 {
		t.Fatalf("results = %d, failed = %d, want 2/0", len(resp.Results), resp.Failed)
	}
	// Entry 0 must match the single-shot endpoint exactly.
	single := decode[GroupResponse](t, do(t, srv, "POST", "/v1/groups/recommend", GroupQueryBody{
		Members: []string{"g1", "g2"}, Z: 3,
	}))
	if !reflect.DeepEqual(resp.Results[0].Items, single.Items) {
		t.Errorf("batch items %v differ from single-shot %v", resp.Results[0].Items, single.Items)
	}
	if resp.Results[0].Fairness != single.Fairness {
		t.Errorf("batch fairness %v, single %v", resp.Results[0].Fairness, single.Fairness)
	}
	if got := resp.Results[1].Group; !reflect.DeepEqual(got, []string{"g2", "p1"}) {
		t.Errorf("echoed group = %v", got)
	}
}

func TestGroupRecommendBatchEndpointPartialFailure(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{
		Queries: []GroupQueryBody{{Members: []string{"g1", "g2"}}, {}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decode[BatchGroupsResponse](t, rec)
	if resp.Failed != 1 {
		t.Errorf("failed = %d, want 1", resp.Failed)
	}
	if resp.Results[0].Error != nil || resp.Results[1].Error == nil {
		t.Errorf("error placement wrong: %+v", resp.Results)
	}
	if got := resp.Results[1].Error.Code; got != CodeEmptyGroup {
		t.Errorf("failed entry code = %q, want %q", got, CodeEmptyGroup)
	}
}

func TestGroupRecommendBatchEndpointValidation(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	for name, body := range map[string]any{
		"no-groups": BatchGroupsBody{},
		"bad-z":     BatchGroupsBody{Queries: []GroupQueryBody{{Members: []string{"g1"}, Z: -2}}},
		"not-json":  "garbage",
	} {
		rec := do(t, srv, "POST", "/v1/groups/recommend:batch", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
	big := BatchGroupsBody{Queries: make([]GroupQueryBody, MaxBatchGroups+1)}
	for i := range big.Queries {
		big.Queries[i] = GroupQueryBody{Members: []string{"g1", "g2"}}
	}
	if rec := do(t, srv, "POST", "/v1/groups/recommend:batch", big); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", rec.Code)
	}
}

func TestGroupRecommendBatchEndpointBodyTooLarge(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	// A few groups, but a body past MaxBatchBody: the size bound must
	// trip (413) before the decoder materializes the payload.
	members := make([]string, 0, 1<<17)
	for i := 0; i < 1<<17; i++ {
		members = append(members, fmt.Sprintf("m%06d", i)) // ≈ 1.3 MiB encoded
	}
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch", BatchGroupsBody{Queries: []GroupQueryBody{{Members: members}}})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rec.Code)
	}
}

func TestGroupRecommendBatchEndpointStream(t *testing.T) {
	srv, sys := newTestServer(t)
	seed(t, sys)
	body := BatchGroupsBody{Queries: []GroupQueryBody{
		{Members: []string{"g1", "g2"}, Z: 3}, {Z: 3}, {Members: []string{"g2", "p1"}, Z: 3},
	}}
	rec := do(t, srv, "POST", "/v1/groups/recommend:batch?stream=true", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if !rec.Flushed {
		t.Error("stream never flushed")
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != len(body.Queries) {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(body.Queries))
	}
	byIndex := make(map[int]BatchGroupEntry, len(lines))
	for _, line := range lines {
		var e BatchGroupEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		byIndex[e.Index] = e
	}
	if len(byIndex) != len(body.Queries) {
		t.Fatalf("indices not a permutation of the request: %v", byIndex)
	}
	if byIndex[1].Error == nil || byIndex[1].Error.Code != CodeEmptyGroup {
		t.Errorf("empty group's entry lacks the machine-readable error: %+v", byIndex[1].Error)
	}
	// Streamed entries carry the same payload as the buffered batch.
	buffered := decode[BatchGroupsResponse](t, do(t, srv, "POST", "/v1/groups/recommend:batch", body))
	for k, want := range buffered.Results {
		got := byIndex[k]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("entry %d: streamed %+v, buffered %+v", k, got, want)
		}
	}
}
