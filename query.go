package fairhealth

// The unified request contract. Every group recommendation — library
// call, CLI invocation, or HTTP request — is a GroupQuery served by
// System.Serve (one query) or ServeBatch/ServeStream (many). One typed
// object means new knobs (per-query aggregation, brute-force bounds,
// explain output) extend a struct instead of widening a
// positional-argument matrix, and a batch can mix methods and
// parameters freely. The paper's §IV MapReduce pipeline is not a
// serving method: it lives in internal/mrpipeline behind `fairrec mr`.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"fairhealth/internal/core"
	"fairhealth/internal/group"
	"fairhealth/internal/model"
	"fairhealth/internal/pool"
	"fairhealth/internal/scoring"
)

// ErrBadQuery reports a GroupQuery that fails validation (negative Z
// or K, unknown method or aggregation, a method/parameter combination
// the engine does not support). It is distinct from ErrEmptyGroup,
// which reports a structurally valid query over no members.
var ErrBadQuery = errors.New("fairhealth: bad query")

// DefaultZ is the group list size used when a query leaves Z zero —
// the one shared default across single-shot, batch, CLI, and HTTP
// serving.
const DefaultZ = 10

// Method selects the solver a GroupQuery runs.
type Method string

// Available methods.
const (
	// MethodGreedy is the paper's Algorithm 1 (the default).
	MethodGreedy Method = "greedy"
	// MethodBrute is the exponential §III.D baseline over the top
	// BruteM candidates.
	MethodBrute Method = "brute"
)

// GroupQuery is the single typed request served by System.Serve. The
// zero value of every optional field means "use the default": Z=0 →
// DefaultZ, Method="" → greedy, K=0 and Aggregation="" → the System's
// Config, BruteM≤0 → all candidates, BruteMaxCombos=0 → the core
// safety limit.
type GroupQuery struct {
	// Members is the caregiver's patient group G. Duplicates are
	// removed; every member must be known to the system (registered
	// profile or at least one rating).
	Members []string
	// Z is the number of recommendations to select (top-z). Zero means
	// DefaultZ; negative is invalid.
	Z int
	// Method picks the solver: greedy (default) or brute.
	Method Method
	// BruteM restricts the brute-force enumeration to the top-m group
	// candidates (C(m,z) subsets are scored). ≤ 0 enumerates over all
	// candidates. Ignored by other methods.
	BruteM int
	// BruteMaxCombos caps the number of subsets the brute force may
	// enumerate; 0 applies the engine's safety default. Ignored by
	// other methods.
	BruteMaxCombos int64
	// Aggregation overrides the Def. 2 semantics for this query: "avg"
	// (majority), "min" (veto), or the extensions "max", "median",
	// "consensus". Empty uses the System's configured aggregation.
	Aggregation string
	// Scorer selects the relevance backend assembling the per-member
	// candidate scores: "user-cf" (the paper's §III.A model, the
	// default), "item-cf" (item-based CF), "profile" (peers by
	// profile-cosine), or any in-tree backend registered with
	// internal/scoring. Empty uses the System's configured default.
	Scorer string
	// K overrides the size of each member's personal top-k list A_u
	// (fairness Def. 3) for this query. Zero uses the System's
	// configured K; negative is invalid.
	K int
	// Explain requests the per-member evidence: the result's PerMember
	// map (each member's personal list A_u). Off by default — the
	// lists are sizeable and most callers only need the selection.
	Explain bool
	// Approx restricts peer discovery to the candidate index's cluster
	// neighborhood (the query user's cluster plus its nearest
	// neighbors) instead of the exact candidate universe, trading
	// recall for throughput. Requires Config.CandidateIndex. Scorers
	// without peer scans (item-cf) ignore it. Default off: exact mode,
	// bit-identical with the index on or off.
	Approx bool
}

// Validate checks the query's shape without a System: field ranges,
// method and aggregation names, and method/parameter compatibility.
// Serve calls it implicitly; servers validate batches up front with it
// so a malformed entry is rejected before any work starts.
func (q GroupQuery) Validate() error {
	if q.Z < 0 {
		return fmt.Errorf("%w: z must be ≥ 0 (0 means default %d), got %d", ErrBadQuery, DefaultZ, q.Z)
	}
	if q.K < 0 {
		return fmt.Errorf("%w: k must be ≥ 0 (0 means the configured default), got %d", ErrBadQuery, q.K)
	}
	if q.BruteMaxCombos < 0 {
		return fmt.Errorf("%w: brute_max_combos must be ≥ 0, got %d", ErrBadQuery, q.BruteMaxCombos)
	}
	switch q.Method {
	case "", MethodGreedy, MethodBrute:
	default:
		return fmt.Errorf("%w: unknown method %q (want %s|%s)",
			ErrBadQuery, q.Method, MethodGreedy, MethodBrute)
	}
	if q.Aggregation != "" {
		if _, err := group.ParseAggregator(q.Aggregation); err != nil {
			return fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
	}
	if q.Scorer != "" && !scoring.Registered(q.Scorer) {
		return fmt.Errorf("%w: unknown scorer %q (want one of %s)",
			ErrBadQuery, q.Scorer, strings.Join(scoring.Names(), "|"))
	}
	return nil
}

// Normalized validates q and resolves every defaulted field against
// the effective configuration (System.Config), returning the query
// Serve would actually execute. Exported for serving layers that make
// routing decisions from the resolved method and scorer — the
// partition coordinator must see the same effective query its
// partitions will — without duplicating the defaulting rules.
func (q GroupQuery) Normalized(cfg Config) (GroupQuery, error) {
	return q.normalize(cfg)
}

// normalize validates q and resolves every defaulted field against the
// system configuration, returning the effective query.
func (q GroupQuery) normalize(cfg Config) (GroupQuery, error) {
	if err := q.Validate(); err != nil {
		return q, err
	}
	if q.Z == 0 {
		q.Z = DefaultZ
	}
	if q.Method == "" {
		q.Method = MethodGreedy
	}
	if q.K == 0 {
		q.K = cfg.K
	}
	if q.Aggregation == "" {
		q.Aggregation = cfg.Aggregation
	}
	if q.Scorer == "" {
		q.Scorer = cfg.Scorer
	}
	if q.Approx && !cfg.CandidateIndex {
		return q, fmt.Errorf("%w: approx peer search requires Config.CandidateIndex", ErrBadQuery)
	}
	return q, nil
}

// memberGroup dedups and validates the query's member list.
func memberGroup(members []string) (model.Group, error) {
	g := make(model.Group, len(members))
	for k, u := range members {
		g[k] = model.UserID(u)
	}
	g = g.Dedup()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEmptyGroup, err)
	}
	return g, nil
}

// Serve answers one GroupQuery — the single execution path behind
// every group recommendation surface. It validates and normalizes the
// query, checks every member is known, runs the selected solver under
// ctx, and shapes the result (PerMember only when q.Explain is set).
//
// Errors: ErrBadQuery for an invalid query, ErrEmptyGroup for a query
// over no members, ErrUnknownPatient naming the first member the
// system has never seen, the context error on cancellation.
func (s *System) Serve(ctx context.Context, q GroupQuery) (*GroupResult, error) {
	return s.serve(ctx, q, s.workers())
}

// serve is Serve with an explicit bound on per-member assembly
// parallelism. Single-shot serving fans the group's member scoring
// out across the full Config.Workers budget; the batch path passes 1,
// because its queries already occupy that budget and nested pools
// would oversubscribe the documented bound.
func (s *System) serve(ctx context.Context, q GroupQuery, assemblyWorkers int) (*GroupResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nq, err := q.normalize(s.cfg)
	if err != nil {
		return nil, err
	}
	g, err := memberGroup(nq.Members)
	if err != nil {
		return nil, err
	}
	for _, u := range g {
		if !s.knownUser(u) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownPatient, u)
		}
	}

	aggr, err := group.ParseAggregator(nq.Aggregation)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err) // unreachable: normalize validated
	}
	gin, err := s.groupProblem(ctx, nq.Scorer, g, aggr, nq.K, assemblyWorkers, nq.Approx)
	if err != nil {
		return nil, err
	}
	in := gin.coreInput()
	var res core.Result
	switch nq.Method {
	case MethodBrute:
		if nq.BruteM > 0 {
			// TopCandidates returns a fresh map, so restricting the pool
			// never mutates the memoized input.
			in.GroupRel = core.TopCandidates(in.GroupRel, nq.BruteM)
		}
		res, err = core.BruteForce(in, nq.Z, nq.BruteMaxCombos)
	default: // MethodGreedy
		res, err = core.GreedyContext(ctx, in, nq.Z)
	}
	if err != nil {
		return nil, err
	}
	return s.toGroupResult(in, res, nq.Explain), nil
}

// BatchGroupResult is one query's outcome within ServeBatch and
// ServeStream. Exactly one of Result and Err is set.
type BatchGroupResult struct {
	// Index is the query's position in the request, linking a streamed
	// entry (which arrives in completion order) back to its slot.
	Index int
	// Group echoes the requested members, in request order.
	Group []string
	// Result is the query's outcome (nil when Err is set).
	Result *GroupResult
	// Err is the query's failure: ErrBadQuery / ErrEmptyGroup /
	// ErrUnknownPatient for an invalid entry, or the context error for
	// entries abandoned after cancellation.
	Err error
}

// ServeBatch answers many GroupQueries in one call — the
// multi-caregiver serving path. Queries are independent: each entry
// may use its own method, z, aggregation, or k, and fails or succeeds
// on its own (one bad query does not poison the batch). The queries
// fan out across at most Config.Workers goroutines; work they share
// (a member's similarity row, a peer set) is deduplicated by the
// cache layers as it is asked for, not warmed ahead. When ctx is
// cancelled mid-batch, in-flight queries stop at the next
// cancellation point, unstarted entries get Err = ctx.Err(), and the
// context error is also returned. Results are in request order; for
// entries as they complete, use ServeStream.
func (s *System) ServeBatch(ctx context.Context, queries []GroupQuery) ([]BatchGroupResult, error) {
	out := make([]BatchGroupResult, len(queries))
	for k, q := range queries {
		out[k].Index = k
		out[k].Group = append([]string(nil), q.Members...)
	}
	err := s.ServeStream(ctx, queries, func(e BatchGroupResult) error {
		out[e.Index] = e
		return nil
	})
	return out, err
}

// ServeStream serves the same workload as ServeBatch but yields each
// entry to fn as its query completes, in completion order, instead of
// buffering the full batch — long batches start producing output
// immediately and the caller never holds more than one entry. fn is
// called serially (never concurrently) from the worker pool; a
// non-nil error from fn stops the stream, abandons the remaining
// queries, and is returned. When ctx is cancelled mid-stream,
// remaining entries are yielded with Err = ctx.Err() and the context
// error is returned.
func (s *System) ServeStream(ctx context.Context, queries []GroupQuery, fn func(BatchGroupResult) error) error {
	if fn == nil {
		return errors.New("fairhealth: ServeStream requires a callback")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(queries) == 0 {
		return ctx.Err()
	}

	var emitMu sync.Mutex
	var fnErr error
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	emit := func(e BatchGroupResult) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if fnErr != nil {
			return
		}
		if err := fn(e); err != nil {
			fnErr = err
			cancel() // abandon the remaining queries
		}
	}
	entry := func(k int) BatchGroupResult {
		return BatchGroupResult{Index: k, Group: append([]string(nil), queries[k].Members...)}
	}

	pool.Each(len(queries), s.workers(), func(k int) {
		e := entry(k)
		if cctx.Err() != nil {
			if ctx.Err() == nil {
				return // fn aborted the stream; emit nothing further
			}
			e.Err = ctx.Err()
			emit(e)
			return
		}
		// Assembly runs serial inside each query: the batch fan-out
		// already holds the Config.Workers budget.
		e.Result, e.Err = s.serve(cctx, queries[k], 1)
		emit(e)
	})
	if fnErr != nil {
		return fnErr
	}
	return ctx.Err()
}
