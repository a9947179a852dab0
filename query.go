package fairhealth

// The unified request contract and the one pipeline that serves it.
// Every group recommendation — library call, CLI invocation, or HTTP
// request — is a GroupQuery served by Serve (one query) or
// ServeBatch/ServeStream (many), on a System or on either partition
// router; all three run the same Pipeline and differ only in their
// MemberSource. One typed object means new knobs (per-query
// aggregation, brute-force bounds, explain output) extend a struct
// instead of widening a positional-argument matrix, and a batch can mix
// methods and parameters freely. The paper's §IV MapReduce pipeline is
// not a serving method: it lives in internal/mrpipeline behind
// `fairrec mr`.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"fairhealth/internal/cache"
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
// Serve would actually execute. Exported for callers that act on the
// resolved method and scorer without duplicating the defaulting rules.
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

// MemberSource is the one seam between the group pipeline and the
// engine it runs on: how a member is checked, and how the members'
// relevance vectors are obtained. A System scores members in process;
// a partition router fetches each vector from the member's owning
// partition. Everything else — defaults, aggregation, the lists A_u,
// the solver and the result's shape — belongs to the Pipeline, so every
// engine answers a query through the same code.
type MemberSource interface {
	// CheckMember returns nil when u can be served, an error wrapping
	// ErrUnknownPatient and naming u when the engine has never seen u,
	// or the engine's routing error.
	CheckMember(u model.UserID) error
	// Relevances returns one relevance map per member of g, in group
	// order, under the named scorer (approx as in GroupQuery.Approx).
	// workers bounds the source's own fan-out (≤ 0: GOMAXPROCS); a
	// source whose calls are coalesced may ignore it.
	Relevances(ctx context.Context, scorer string, approx bool, g model.Group, workers int) ([]map[model.ItemID]float64, error)
}

// Pipeline serves GroupQueries over a MemberSource: normalize → member
// check → gather → combine → aggregate → lists A_u → solve → shape.
// System, partition.Coordinator and partition.Networked each serve
// through one.
type Pipeline struct {
	cfg   Config
	src   MemberSource
	width int
	// memo is the group-input memo; only a System has one (its fence
	// covers a single replica's writes).
	memo *cache.Cache[string, string, groupInput]
}

// NewPipeline builds the pipeline an engine with effective
// configuration cfg serves through. Batches fan out, and a single
// query's gather runs, across cfg.Workers goroutines; when that is
// zero, across width, and across GOMAXPROCS when both are zero.
func NewPipeline(cfg Config, src MemberSource, width int) *Pipeline {
	if cfg.Workers > 0 {
		width = cfg.Workers
	}
	return &Pipeline{cfg: cfg, src: src, width: width}
}

// Serve answers one GroupQuery — the single execution path behind
// every group recommendation surface. It validates and normalizes the
// query, checks every member, runs the selected solver under ctx, and
// shapes the result (PerMember only when q.Explain is set).
//
// Errors: ErrBadQuery for an invalid query, ErrEmptyGroup for a query
// over no members, ErrUnknownPatient naming the first member the
// engine has never seen, the context error on cancellation.
func (p *Pipeline) Serve(ctx context.Context, q GroupQuery) (*GroupResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return p.serve(ctx, q, p.width)
}

// serve is Serve with an explicit bound on the gather's parallelism.
// A single query fans its members out across the full width; a batch
// entry passes 1, because the batch's queries already occupy that
// width and nested pools would oversubscribe it.
func (p *Pipeline) serve(ctx context.Context, q GroupQuery, workers int) (*GroupResult, error) {
	nq, err := q.normalize(p.cfg)
	if err != nil {
		return nil, err
	}
	g, err := memberGroup(nq.Members)
	if err != nil {
		return nil, err
	}
	for _, u := range g {
		if err := p.src.CheckMember(u); err != nil {
			return nil, err
		}
	}
	aggr, err := group.ParseAggregator(nq.Aggregation)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err) // unreachable: normalize validated
	}
	gin, err := p.problem(ctx, nq.Scorer, g, aggr, nq.K, workers, nq.Approx)
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
	return toGroupResult(in, res, nq.Explain), nil
}

// problem is the stage between a checked query and the fair solvers:
// gather every member's relevance map from the source, intersect them
// (scoring.Combine), fold the candidates into group relevance under
// the query's aggregation, and build the personal top-k lists A_u.
// With a memo, assembled inputs are memoized per (scorer, members,
// aggregation, K, approx); the eviction-sequence fence is captured
// before the gather reads any upstream state, so a write racing the
// gather keeps the result out of the memo (the caller still gets its
// answer — a read overlapping a write may see either side of it).
func (p *Pipeline) problem(ctx context.Context, scorer string, g model.Group, aggr group.Aggregator, k, workers int, approx bool) (groupInput, error) {
	var key string
	var startSeq uint64
	if p.memo != nil {
		key = groupKey(scorer, g, aggr.Name(), k, approx)
		if in, _, ok := p.memo.Get(key); ok {
			return in, nil
		}
		startSeq = p.memo.Seq()
	}
	maps, err := p.src.Relevances(ctx, scorer, approx, g, workers)
	if err != nil {
		return groupInput{}, err
	}
	cands := scoring.Combine(g, maps)
	groupRel := make(map[model.ItemID]float64, len(cands.Items))
	for item, scores := range cands.Items {
		groupRel[item] = aggr.Aggregate(scores)
	}
	in := groupInput{
		group:    g,
		perUser:  cands.PerUser,
		groupRel: groupRel,
		lists:    core.ListsFromRelevances(cands.PerUser, k),
	}
	if p.memo != nil {
		p.memo.PutChecked(key, in, []string{groupScopeRatings}, startSeq)
	}
	return in, nil
}

// coreInput adapts an assembled group problem to the solvers' contract.
func (in groupInput) coreInput() core.Input {
	perUser := in.perUser
	return core.Input{
		Group:    in.group,
		Lists:    in.lists,
		GroupRel: in.groupRel,
		Rel: func(u model.UserID, i model.ItemID) (float64, bool) {
			sc, ok := perUser[u][i]
			return sc, ok
		},
	}
}

// toGroupResult shapes a solver outcome. The per-member evidence maps
// are built only when explain is set — they are |G|×K conversions the
// default serving path never reads.
func toGroupResult(in core.Input, res core.Result, explain bool) *GroupResult {
	out := &GroupResult{
		Items:        make([]Recommendation, len(res.Items)),
		Fairness:     res.Fairness,
		Value:        res.Value,
		Combinations: res.Combinations,
	}
	for k, item := range res.Items {
		out.Items[k] = Recommendation{Item: string(item), Score: in.GroupRel[item]}
	}
	if explain {
		out.PerMember = make(map[string][]Recommendation, len(in.Group))
		for u, list := range in.Lists {
			out.PerMember[string(u)] = toRecs(list)
		}
	}
	return out
}

// localMembers is a System's MemberSource: members are checked against
// its own stores and scored by its own providers.
type localMembers struct{ s *System }

func (m localMembers) CheckMember(u model.UserID) error {
	if !m.s.knownUser(u) {
		return fmt.Errorf("%w: %s", ErrUnknownPatient, u)
	}
	return nil
}

func (m localMembers) Relevances(ctx context.Context, scorer string, approx bool, g model.Group, workers int) ([]map[model.ItemID]float64, error) {
	rel, err := m.s.memberRel(scorer, approx)
	if err != nil {
		return nil, err
	}
	return scoring.Gather(ctx, rel, g, workers)
}

// Serve answers one GroupQuery (see Pipeline.Serve).
func (s *System) Serve(ctx context.Context, q GroupQuery) (*GroupResult, error) {
	return s.pipe.Serve(ctx, q)
}

// ServeBatch answers many GroupQueries (see Pipeline.ServeBatch).
func (s *System) ServeBatch(ctx context.Context, queries []GroupQuery) ([]BatchGroupResult, error) {
	return s.pipe.ServeBatch(ctx, queries)
}

// ServeStream yields many GroupQueries' entries as they complete (see
// Pipeline.ServeStream).
func (s *System) ServeStream(ctx context.Context, queries []GroupQuery, fn func(BatchGroupResult) error) error {
	return s.pipe.ServeStream(ctx, queries, fn)
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
// fan out across at most the pipeline's width; work they share
// (a member's similarity row, a peer set) is deduplicated by the
// cache layers as it is asked for, not warmed ahead. When ctx is
// cancelled mid-batch, in-flight queries stop at the next
// cancellation point, unstarted entries get Err = ctx.Err(), and the
// context error is also returned. Results are in request order; for
// entries as they complete, use ServeStream.
func (p *Pipeline) ServeBatch(ctx context.Context, queries []GroupQuery) ([]BatchGroupResult, error) {
	out := make([]BatchGroupResult, len(queries))
	for k, q := range queries {
		out[k].Index = k
		out[k].Group = append([]string(nil), q.Members...)
	}
	err := p.ServeStream(ctx, queries, func(e BatchGroupResult) error {
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
func (p *Pipeline) ServeStream(ctx context.Context, queries []GroupQuery, fn func(BatchGroupResult) error) error {
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
	pool.Each(len(queries), p.width, func(k int) {
		e := BatchGroupResult{Index: k, Group: append([]string(nil), queries[k].Members...)}
		if cctx.Err() != nil {
			if ctx.Err() == nil {
				return // fn aborted the stream; emit nothing further
			}
			e.Err = ctx.Err()
			emit(e)
			return
		}
		// The gather runs serial inside each query: the batch fan-out
		// already holds the pipeline's width.
		e.Result, e.Err = p.serve(cctx, queries[k], 1)
		emit(e)
	})
	if fnErr != nil {
		return fnErr
	}
	return ctx.Err()
}
