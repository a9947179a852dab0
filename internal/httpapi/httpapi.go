// Package httpapi exposes the recommender as the REST service sketched
// in the paper's architecture (Fig. 1): patients record profiles and
// rate documents through the iPHR app, and a caregiver asks the
// recommendation engine for fair suggestions for their patient group.
//
// # The v1 surface
//
// All endpoints speak JSON and live under /v1 (full reference,
// including every request/response body: docs/api.md):
//
//	GET  /healthz                    liveness probe (bypasses the limiter)
//	GET  /v1/stats                   corpus statistics + cache counters (hits, misses,
//	                                 evictions, expirations, entries per layer)
//	POST /v1/patients                create/update a patient profile
//	GET  /v1/patients                list patient IDs
//	GET  /v1/patients/{id}           fetch one profile
//	POST /v1/ratings                 record a rating
//	POST /v1/documents               index a document
//	GET  /v1/search                  document search            ?q=&k=&user=
//	GET  /v1/correspondences         profile reasoning          ?a=&b=
//	GET  /v1/recommendations         personal top-k             ?user=&k=
//	GET  /v1/peers                   peer set P_u               ?user=
//	POST /v1/groups/recommend        fair top-z for one group (GroupQuery body)
//	POST /v1/groups/recommend:batch  fair top-z for many groups ?stream=true → NDJSON
//
// POST /v1/groups/recommend takes the full fairhealth.GroupQuery as
// its body — members, z, method (greedy|brute), relevance
// scorer (user-cf|item-cf|profile|semantic|hybrid), brute-force bounds, per-query
// aggregation and fairness k, and an explain flag — and the batch
// endpoint takes a list of such queries, so one batch can mix methods,
// scorers, and parameters per group. Batch requests are
// bounded (MaxBatchBody request bytes → 413, MaxBatchGroups queries →
// 400).
//
// # Middleware
//
// Every request passes through a middleware chain: request-ID
// assignment (X-Request-ID, inbound honoured), structured request
// logging, panic recovery, a bounded in-flight limiter (429
// "overloaded" when the server is at capacity), and a per-request
// timeout surfaced as 504 "timeout". See Options.
//
// # Errors
//
// Every handler failure is the machine-readable envelope
//
//	{"error": {"code": "unknown_patient", "message": "..."}}
//
// with the status drawn from the exhaustive ErrorStatus mapping — an
// unknown patient is 404 on every route, an invalid query 400, a
// domain-rule violation 422, and so on.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"fairhealth"
	"fairhealth/internal/candidates"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
)

// Backend is the serving surface the HTTP layer runs against — exactly
// the methods the handlers call. *fairhealth.System implements it, and
// so does the partition router, *partition.Networked, over remote or
// (wrapped as *partition.Coordinator) in-process workers; both serve
// groups through one fairhealth.Pipeline, so one Server binary serves
// an unpartitioned system or either partitioned deployment unchanged.
type Backend interface {
	Stats() fairhealth.Stats
	CacheStats() fairhealth.CacheStats
	CandidateIndexStats() (candidates.Stats, bool)
	AddPatient(p fairhealth.Patient) error
	Patients() []string
	Patient(id string) (fairhealth.Patient, error)
	AddRating(user, item string, value float64) error
	AddDocument(id, title, body string) error
	SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error)
	SearchDocuments(query string, k int) []fairhealth.SearchResult
	ProfileCorrespondences(a, b string) ([]fairhealth.Correspondence, error)
	Recommend(user string, k int) ([]fairhealth.Recommendation, error)
	Peers(user string) ([]fairhealth.Peer, error)
	Serve(ctx context.Context, q fairhealth.GroupQuery) (*fairhealth.GroupResult, error)
	ServeBatch(ctx context.Context, queries []fairhealth.GroupQuery) ([]fairhealth.BatchGroupResult, error)
	ServeStream(ctx context.Context, queries []fairhealth.GroupQuery, fn func(fairhealth.BatchGroupResult) error) error
}

// partitionStatser is the optional Backend extension a partitioned
// deployment implements; when present, /v1/stats grows a partitions
// section.
type partitionStatser interface {
	PartitionStats() []partition.Stats
}

// transportStatser is the optional Backend extension a networked
// partitioned deployment implements; when present, /v1/stats grows a
// transport section (wire counters, coalescing ratio, pool gauges).
type transportStatser interface {
	TransportStats() transport.Snapshot
}

var (
	_ Backend          = (*fairhealth.System)(nil)
	_ Backend          = (*partition.Coordinator)(nil)
	_ partitionStatser = (*partition.Coordinator)(nil)
	_ Backend          = (*partition.Networked)(nil)
	_ partitionStatser = (*partition.Networked)(nil)
	_ transportStatser = (*partition.Networked)(nil)
)

// Server wires a Backend (a fairhealth.System or a partition router)
// to an http.Handler.
type Server struct {
	sys     Backend
	mux     *http.ServeMux
	log     *log.Logger
	opts    Options
	handler http.Handler  // mux behind the middleware chain
	reqSeq  atomic.Uint64 // request-ID counter
	// lim is the in-flight limiter (nil = unlimited).
	lim *limiter
}

// New builds a Server with default Options. logger may be nil.
func New(sys Backend, logger *log.Logger) *Server {
	return NewWithOptions(sys, Options{Logger: logger})
}

// NewWithOptions builds a Server with explicit middleware options.
func NewWithOptions(sys Backend, opts Options) *Server {
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	s := &Server{sys: sys, mux: http.NewServeMux(), log: opts.Logger, opts: opts}
	if opts.MaxInFlight > 0 {
		s.lim = newLimiter(opts.MaxInFlight)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealth)

	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/stats", s.handleStats},
		{"POST", "/patients", s.handlePutPatient},
		{"GET", "/patients", s.handleListPatients},
		{"GET", "/patients/{id}", s.handleGetPatient},
		{"POST", "/ratings", s.handlePostRating},
		{"POST", "/documents", s.handlePostDocument},
		{"GET", "/search", s.handleSearch},
		{"GET", "/correspondences", s.handleCorrespondences},
		{"GET", "/recommendations", s.handleRecommend},
		{"GET", "/peers", s.handlePeers},
		{"POST", "/groups/recommend", s.handleGroupQuery},
		{"POST", "/groups/recommend:batch", s.handleGroupBatch},
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" /v1"+rt.path, rt.h)
	}

	s.handler = s.chain(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ---------------------------------------------------------------------------
// wire types

// PatientBody is the POST /v1/patients payload.
type PatientBody struct {
	ID          string   `json:"id"`
	Age         int      `json:"age,omitempty"`
	Gender      string   `json:"gender,omitempty"`
	Problems    []string `json:"problems,omitempty"`
	Medications []string `json:"medications,omitempty"`
	Procedures  []string `json:"procedures,omitempty"`
	Allergies   []string `json:"allergies,omitempty"`
	Notes       string   `json:"notes,omitempty"`
}

// RatingBody is the POST /v1/ratings payload.
type RatingBody struct {
	User  string  `json:"user"`
	Item  string  `json:"item"`
	Value float64 `json:"value"`
}

// DocumentBody is the POST /v1/documents payload.
type DocumentBody struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Body  string `json:"body,omitempty"`
}

// StatsResponse is the GET /v1/stats payload: the corpus statistics,
// the cache observability counters, the candidate-index counters, and
// the in-flight limiter state.
type StatsResponse struct {
	fairhealth.Stats
	Caches fairhealth.CacheStats `json:"caches"`
	// Index is the cluster peer-candidate index section; absent when
	// Config.CandidateIndex is off.
	Index *candidates.Stats `json:"index,omitempty"`
	// Server is the limiter section; absent when the in-flight
	// limiter is disabled.
	Server *ServerStats `json:"server,omitempty"`
	// Partitions is the per-partition section (owned users, ring
	// share, replay lag, fan-out counts); absent when the backend is
	// an unpartitioned System.
	Partitions []partition.Stats `json:"partitions,omitempty"`
	// Transport is the networked-partition wire section (RPC and byte
	// counters, coalescing ratio, pool size, peer liveness); absent
	// unless the backend serves over partition/transport.
	Transport *transport.Snapshot `json:"transport,omitempty"`
}

// GroupQueryBody mirrors fairhealth.GroupQuery on the wire — the body
// of POST /v1/groups/recommend and the element type of the batch
// endpoint's queries list.
type GroupQueryBody struct {
	// Members is the caregiver's patient group.
	Members []string `json:"members"`
	// Z is the number of recommendations (0 → server default).
	Z int `json:"z,omitempty"`
	// Method is greedy (default) | brute.
	Method string `json:"method,omitempty"`
	// BruteM bounds the brute-force candidate pool: 0 → DefaultBruteM,
	// negative → all candidates.
	BruteM int `json:"brute_m,omitempty"`
	// BruteMaxCombos caps brute-force enumeration (0 → engine default).
	BruteMaxCombos int64 `json:"brute_max_combos,omitempty"`
	// Aggregation overrides the Def. 2 semantics for this query.
	Aggregation string `json:"aggregation,omitempty"`
	// Scorer selects the relevance backend: user-cf (default) |
	// item-cf | profile (or any registered scorer).
	Scorer string `json:"scorer,omitempty"`
	// K overrides the personal top-k fairness list size.
	K int `json:"k,omitempty"`
	// Explain requests the per_member evidence lists.
	Explain bool `json:"explain,omitempty"`
	// Approx restricts peer discovery to the candidate index's
	// cluster neighborhood (recall traded for throughput). Requires
	// the server to run with the candidate index enabled.
	Approx bool `json:"approx,omitempty"`
}

// DefaultBruteM is the brute-force candidate pool applied when a query
// leaves brute_m unset — an unbounded default would make C(m,z) blow
// up on any sizeable corpus. Send a negative brute_m to enumerate over
// all candidates deliberately.
const DefaultBruteM = 20

// MaxBruteCombos caps the subsets a single request may ask the brute
// force to enumerate. The engine's own safety default (billions) is
// sized for offline library use; uncapped, one HTTP request could pin
// a CPU for hours while holding an in-flight limiter slot. Applied
// both as the default and as the upper bound for an explicit
// brute_max_combos.
const MaxBruteCombos = 10_000_000

// toQuery converts the wire form to the library contract, applying
// the server-side brute-force bounds.
func (b GroupQueryBody) toQuery() (fairhealth.GroupQuery, error) {
	m := b.BruteM
	if m == 0 {
		m = DefaultBruteM
	}
	combos := b.BruteMaxCombos
	if combos == 0 {
		combos = MaxBruteCombos
	}
	if combos > MaxBruteCombos {
		return fairhealth.GroupQuery{}, coded(CodeInvalidQuery,
			fmt.Errorf("brute_max_combos %d exceeds the server limit %d", combos, MaxBruteCombos))
	}
	return fairhealth.GroupQuery{
		Members:        b.Members,
		Z:              b.Z,
		Method:         fairhealth.Method(b.Method),
		BruteM:         m,
		BruteMaxCombos: combos,
		Aggregation:    b.Aggregation,
		Scorer:         b.Scorer,
		K:              b.K,
		Explain:        b.Explain,
		Approx:         b.Approx,
	}, nil
}

// GroupResponse is the POST /v1/groups/recommend payload.
type GroupResponse struct {
	Items        []fairhealth.Recommendation            `json:"items"`
	Fairness     float64                                `json:"fairness"`
	Value        float64                                `json:"value"`
	PerMember    map[string][]fairhealth.Recommendation `json:"per_member,omitempty"`
	Method       string                                 `json:"method"`
	Combinations int64                                  `json:"combinations,omitempty"`
}

// BatchGroupsBody is the POST /v1/groups/recommend:batch payload.
type BatchGroupsBody struct {
	// Queries lists the full per-group queries to serve.
	Queries []GroupQueryBody `json:"queries,omitempty"`
}

// BatchGroupEntry is one query's outcome inside a batch response. A
// successful entry always carries items/fairness/value (matching the
// single-shot GroupResponse contract, zeros included); a failed entry
// carries the machine-readable error instead. In the NDJSON streaming
// mode entries arrive in completion order and index links them back to
// the request.
type BatchGroupEntry struct {
	Index    int                         `json:"index"`
	Group    []string                    `json:"group"`
	Items    []fairhealth.Recommendation `json:"items"`
	Fairness float64                     `json:"fairness"`
	Value    float64                     `json:"value"`
	Error    *ErrorInfo                  `json:"error,omitempty"`
}

// BatchGroupsResponse is the buffered batch response. Results are in
// request order; Failed counts entries with an Error.
type BatchGroupsResponse struct {
	Results []BatchGroupEntry `json:"results"`
	Failed  int               `json:"failed"`
}

// MaxBatchGroups caps the queries in a single batch request (400 when
// exceeded).
const MaxBatchGroups = 256

// MaxBatchBody caps every request body in bytes (413 when exceeded);
// decoding an unbounded body straight into memory would let one
// request exhaust the process.
const MaxBatchBody = 1 << 20

// ---------------------------------------------------------------------------
// helpers

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("httpapi: encode response: %v", err)
	}
}

// decodeBody bounds and decodes a JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return coded(CodePayloadTooLarge, fmt.Errorf("request body exceeds %d bytes", MaxBatchBody))
		}
		return coded(CodeInvalidBody, fmt.Errorf("decode body: %w", err))
	}
	return nil
}

// intParam parses a strictly positive integer query parameter with a
// default for absence.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 1 {
		return 0, coded(CodeInvalidArgument,
			fmt.Errorf("parameter %s must be a positive integer, got %q", name, raw))
	}
	return v, nil
}

func requiredParam(r *http.Request, name string) (string, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return "", coded(CodeInvalidArgument, fmt.Errorf("%s parameter required", name))
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// handlers

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{Stats: s.sys.Stats(), Caches: s.sys.CacheStats()}
	if ix, ok := s.sys.CandidateIndexStats(); ok {
		resp.Index = &ix
	}
	if s.lim != nil {
		resp.Server = s.lim.snapshot()
	}
	if ps, ok := s.sys.(partitionStatser); ok {
		resp.Partitions = ps.PartitionStats()
	}
	if ts, ok := s.sys.(transportStatser); ok {
		snap := ts.TransportStats()
		resp.Transport = &snap
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePutPatient(w http.ResponseWriter, r *http.Request) {
	var body PatientBody
	if err := decodeBody(w, r, &body); err != nil {
		s.writeError(w, r, err)
		return
	}
	if body.ID == "" {
		s.writeError(w, r, coded(CodeInvalidArgument, errors.New("patient id required")))
		return
	}
	err := s.sys.AddPatient(fairhealth.Patient{
		ID: body.ID, Age: body.Age, Gender: body.Gender,
		Problems: body.Problems, Medications: body.Medications,
		Procedures: body.Procedures, Allergies: body.Allergies, Notes: body.Notes,
	})
	if err != nil {
		s.writeError(w, r, coded(CodeUnprocessable, err))
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"id": body.ID})
}

func (s *Server) handleListPatients(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string][]string{"patients": s.sys.Patients()})
}

func (s *Server) handleGetPatient(w http.ResponseWriter, r *http.Request) {
	p, err := s.sys.Patient(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, p)
}

func (s *Server) handlePostRating(w http.ResponseWriter, r *http.Request) {
	var body RatingBody
	if err := decodeBody(w, r, &body); err != nil {
		s.writeError(w, r, err)
		return
	}
	if body.User == "" || body.Item == "" {
		s.writeError(w, r, coded(CodeInvalidArgument, errors.New("user and item required")))
		return
	}
	if err := s.sys.AddRating(body.User, body.Item, body.Value); err != nil {
		s.writeError(w, r, coded(CodeUnprocessable, err))
		return
	}
	s.writeJSON(w, http.StatusCreated, body)
}

func (s *Server) handlePostDocument(w http.ResponseWriter, r *http.Request) {
	var body DocumentBody
	if err := decodeBody(w, r, &body); err != nil {
		s.writeError(w, r, err)
		return
	}
	if body.ID == "" {
		s.writeError(w, r, coded(CodeInvalidArgument, errors.New("document id required")))
		return
	}
	if err := s.sys.AddDocument(body.ID, body.Title, body.Body); err != nil {
		s.writeError(w, r, coded(CodeUnprocessable, err))
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"id": body.ID})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := requiredParam(r, "q")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var hits []fairhealth.SearchResult
	if user := r.URL.Query().Get("user"); user != "" {
		// personalized search: boost the patient's problem vocabulary
		hits, err = s.sys.SearchPersonalized(user, q, k, 2)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
	} else {
		hits = s.sys.SearchDocuments(q, k)
	}
	if hits == nil {
		hits = []fairhealth.SearchResult{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"query": q, "hits": hits})
}

func (s *Server) handleCorrespondences(w http.ResponseWriter, r *http.Request) {
	a, err := requiredParam(r, "a")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	b, err := requiredParam(r, "b")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	cs, err := s.sys.ProfileCorrespondences(a, b)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"a": a, "b": b, "correspondences": cs})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user, err := requiredParam(r, "user")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	recs, err := s.sys.Recommend(user, k)
	if err != nil {
		// unknown patient → 404 via the unified mapping
		s.writeError(w, r, err)
		return
	}
	if recs == nil {
		recs = []fairhealth.Recommendation{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"user": user, "items": recs})
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	user, err := requiredParam(r, "user")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	peers, err := s.sys.Peers(user)
	if err != nil {
		// unknown patient → 404 via the unified mapping
		s.writeError(w, r, err)
		return
	}
	if peers == nil {
		peers = []fairhealth.Peer{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"user": user, "peers": peers})
}

func (s *Server) handleGroupQuery(w http.ResponseWriter, r *http.Request) {
	var body GroupQueryBody
	if err := decodeBody(w, r, &body); err != nil {
		s.writeError(w, r, err)
		return
	}
	q, err := body.toQuery()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	res, err := s.sys.Serve(r.Context(), q)
	if err != nil {
		s.writeError(w, r, ctxErr(r.Context(), err))
		return
	}
	method := q.Method
	if method == "" {
		method = fairhealth.MethodGreedy
	}
	s.writeJSON(w, http.StatusOK, GroupResponse{
		Items:        res.Items,
		Fairness:     res.Fairness,
		Value:        res.Value,
		PerMember:    res.PerMember,
		Method:       string(method),
		Combinations: res.Combinations,
	})
}

// batchEntry converts one library batch result into its wire form.
func batchEntry(br fairhealth.BatchGroupResult) BatchGroupEntry {
	e := BatchGroupEntry{Index: br.Index, Group: br.Group, Items: []fairhealth.Recommendation{}}
	switch {
	case br.Err != nil:
		info := errorInfo(br.Err)
		e.Error = &info
	case br.Result != nil:
		if br.Result.Items != nil {
			e.Items = br.Result.Items
		}
		e.Fairness = br.Result.Fairness
		e.Value = br.Result.Value
	}
	return e
}

// batchQueries resolves the request body into the per-group queries,
// validating shape and bounds up front so a malformed batch is
// rejected before any work starts.
func batchQueries(body BatchGroupsBody) ([]fairhealth.GroupQuery, error) {
	if len(body.Queries) == 0 {
		return nil, coded(CodeInvalidArgument, errors.New("queries required"))
	}
	queries := make([]fairhealth.GroupQuery, len(body.Queries))
	for k, qb := range body.Queries {
		q, err := qb.toQuery()
		if err != nil {
			return nil, fmt.Errorf("queries[%d]: %w", k, err)
		}
		queries[k] = q
	}
	if len(queries) > MaxBatchGroups {
		return nil, coded(CodeInvalidArgument,
			fmt.Errorf("too many queries: %d > %d", len(queries), MaxBatchGroups))
	}
	for k, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("queries[%d]: %w", k, err)
		}
	}
	return queries, nil
}

func (s *Server) handleGroupBatch(w http.ResponseWriter, r *http.Request) {
	var body BatchGroupsBody
	if err := decodeBody(w, r, &body); err != nil {
		s.writeError(w, r, err)
		return
	}
	queries, err := batchQueries(body)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if stream, _ := strconv.ParseBool(r.URL.Query().Get("stream")); stream {
		s.streamGroupBatch(w, r, queries)
		return
	}
	// r.Context() cancels when the client disconnects or the request
	// deadline fires, aborting in-flight queries. A batch cut off before
	// any query produced a result is the request's failure (504 on a
	// deadline); one cut off later answers 200 with per-entry errors.
	results, err := s.sys.ServeBatch(r.Context(), queries)
	if err != nil && !slices.ContainsFunc(results, func(br fairhealth.BatchGroupResult) bool { return br.Result != nil }) {
		s.writeError(w, r, ctxErr(r.Context(), err))
		return
	}
	resp := BatchGroupsResponse{Results: make([]BatchGroupEntry, len(results))}
	for k, br := range results {
		resp.Results[k] = batchEntry(br)
		if br.Err != nil {
			resp.Failed++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// streamGroupBatch answers the batch as NDJSON: one
// BatchGroupEntry per line, written and flushed as each query
// completes. The 200 and content type go out with the FIRST entry, so
// a failure preceding any result (e.g. the request deadline passing
// before a query completes) still gets a proper error status; after
// that, failures can only be reported in-band (per-entry error fields)
// or by truncating the stream.
func (s *Server) streamGroupBatch(w http.ResponseWriter, r *http.Request, queries []fairhealth.GroupQuery) {
	flusher, _ := w.(http.Flusher)
	started := false
	err := s.sys.ServeStream(r.Context(), queries, func(e fairhealth.BatchGroupResult) error {
		if !started {
			if err := r.Context().Err(); err != nil && e.Result == nil {
				return err // the request ended before any result: answer its error
			}
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := encodeNDJSON(w, batchEntry(e)); err != nil {
			return err // client gone; abandon the remaining queries
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if !started {
			s.writeError(w, r, ctxErr(r.Context(), err))
			return
		}
		// A disconnecting client surfaces either as the request context
		// error or as the socket write error from enc.Encode — neither
		// is server trouble worth logging.
		if r.Context().Err() == nil {
			s.log.Printf("httpapi: batch stream aborted: %v", err)
		}
	}
}
