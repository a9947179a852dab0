// Package scoring is the pluggable relevance layer under group
// serving: the paper's fairness machinery (Algorithm 1, the §III.D
// brute baseline, the §IV pipeline) is defined over *any* per-user
// relevance function, so the candidate/relevance-assembly stage is
// factored out of the serving facade and put behind one interface.
//
// A Provider answers two questions for a single user — every defined
// item→relevance prediction (the scored candidate list feeding Def. 2
// aggregation and the personal top-k lists A_u of Def. 3), and the
// point estimate for one (user, item) pair — and owns whatever model
// state it needs, invalidated through the same scoped plumbing as the
// rest of the system (InvalidateUsers for rating writes,
// InvalidateAll for profile writes and explicit flushes).
//
// Three providers are registered out of the box:
//
//   - "user-cf" (the default): the paper's own §III.A model — peers
//     above δ under the system-configured similarity measure, Eq. 1
//     weighted averaging. It delegates to the owner's fenced
//     cf.Recommender factory, so it rides the system's similarity memo
//     and peer-set cache unchanged.
//   - "item-cf": item-based CF (Sarwar et al.) over internal/itemcf.
//     The item-item neighbor model is built lazily on first use and
//     rebuilt after any rating write (the model is a global function
//     of the ratings, so scoped invalidation degrades to a whole-model
//     rebuild — still lazy, so write bursts pay one rebuild, not one
//     per write). Scales with items rather than users.
//   - "profile": user-user CF where peers are selected by
//     profile-cosine similarity (Def. 4 + Eq. 3) instead of the
//     configured measure — relevance for cold raters whose profiles,
//     not rating histories, carry the signal. Rating writes leave its
//     similarity memo untouched (profile cosine is a function of
//     profiles only) but evict the touched users' peer sets, whose
//     candidate universe is the rated-user set; profile writes
//     rebuild the corpus.
//
// New backends are one Register call from anywhere inside this
// module (the package is internal, so the extension point is
// in-tree by design); the registry is consulted by GroupQuery
// validation, so an unknown scorer is a bad query, not a runtime
// surprise.
package scoring

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fairhealth/internal/cf"
	"fairhealth/internal/model"
	"fairhealth/internal/ontology"
	"fairhealth/internal/phr"
	"fairhealth/internal/pool"
	"fairhealth/internal/ratings"
)

// Common errors.
var (
	// ErrUnknownScorer reports a name with no registered factory.
	ErrUnknownScorer = errors.New("scoring: unknown scorer")
	// ErrEmptyGroup reports an Assemble call over no members.
	ErrEmptyGroup = errors.New("scoring: empty group")
)

// DefaultName is the scorer used when a query names none — the
// paper's own user-user CF path.
const DefaultName = NameUserCF

// The built-in provider names.
const (
	NameUserCF  = "user-cf"
	NameItemCF  = "item-cf"
	NameProfile = "profile"
)

// Provider is a relevance backend: per-user scored candidate lists
// plus point relevance, with scoped invalidation.
//
// Implementations must be safe for concurrent use, must score only
// items the user has NOT rated (a rated item is never a candidate,
// Def. 2's domain), and must be deterministic: for fixed store
// contents, Relevances must return bit-identical scores on every call
// — warm answers across the serving caches are required to match cold
// rebuilds exactly.
type Provider interface {
	// Name is the provider's registered identifier.
	Name() string
	// Relevances returns every defined item → predicted-relevance pair
	// for u over items u has not rated.
	Relevances(u model.UserID) (map[model.ItemID]float64, error)
	// Relevance is the point estimate for one (user, item) pair;
	// ok=false means the prediction is undefined.
	Relevance(u model.UserID, i model.ItemID) (float64, bool, error)
	// InvalidateUsers routes a rating write touching exactly these
	// users into the provider's derived state.
	InvalidateUsers(users []model.UserID)
	// InvalidateAll drops all derived state — the route for profile
	// writes and explicit full flushes.
	InvalidateAll()
	// Close releases background resources (cache janitors); the
	// provider is not used afterwards.
	Close()
}

// Deps hands a factory the system's stores and tuning. Factories must
// not retain or call UserCF during construction — providers are built
// lazily under the owner's registry lock.
type Deps struct {
	// Ratings is the shared ratings store.
	Ratings *ratings.Store
	// Profiles is the shared patient-profile store.
	Profiles *phr.Store
	// Ontology expands problem codes when rendering profiles.
	Ontology *ontology.Ontology
	// UserCF returns the owner's fenced user-user CF recommender — the
	// default path's engine, shared so the user-cf scorer rides the
	// system's similarity memo and peer cache bit-identically.
	UserCF func() (*cf.Recommender, error)
	// UserCFApprox returns the approx-mode recommender — peer scan
	// restricted to the query user's cluster neighborhood in the
	// owner's candidate index, no shared peer cache (an approx peer
	// set must never be served to a later exact query). Nil when the
	// candidate index is disabled; the user-cf approx path then falls
	// back to exact Relevances.
	UserCFApprox func() (*cf.Recommender, error)
	// CandidateIndex enables the profile provider's own term-vector
	// candidate index for approx-mode peer search; CandidateK sizes
	// it (0 → ⌈√n⌉ at build time).
	CandidateIndex bool
	CandidateK     int
	// Delta is the peer threshold δ (Def. 1) for CF-style providers.
	Delta float64
	// MinOverlap is the minimum co-rated items for rating-derived
	// similarities (the item-cf model reuses it for co-raters).
	MinOverlap int
	// CacheTTL, CacheMaxEntries, and CacheMaxCost tune any
	// internal/cache instantiations a provider owns, mirroring the
	// system's layers.
	CacheTTL        time.Duration
	CacheMaxEntries int
	CacheMaxCost    int64
}

// Factory builds a provider over the system's stores.
type Factory func(d Deps) Provider

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a factory under name, making the scorer valid in
// every GroupQuery. Registering a duplicate name panics — scorer names
// are part of the query contract, and a silent override would change
// served results.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("scoring: Register requires a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scoring: scorer %q registered twice", name))
	}
	registry[name] = f
}

// Registered reports whether name has a factory — the query
// validator's check.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names lists the registered scorers, ascending — for error messages
// and docs.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named provider over d.
func New(name string, d Deps) (Provider, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScorer, name)
	}
	return f(d), nil
}

func init() {
	Register(NameUserCF, func(d Deps) Provider { return &userCF{deps: d} })
	Register(NameItemCF, newItemCF)
	Register(NameProfile, newProfileCF)
}

// ---------------------------------------------------------------------------
// candidate assembly

// Candidates is the assembled group-relevance input: every member's
// candidate scores plus, for each item every member has a defined
// prediction for, the member scores in group order (Def. 2's domain —
// requiring all members keeps veto semantics honest: a missing
// prediction is unknown, not zero).
type Candidates struct {
	// PerUser maps each member to their scores over the candidate
	// items only.
	PerUser map[model.UserID]map[model.ItemID]float64
	// Items maps each candidate to the member scores in group order,
	// ready for an aggregator.
	Items map[model.ItemID][]float64
}

// ApproxRelevancer is the optional Provider extension for approx-mode
// peer search: RelevancesApprox follows the Relevances contract except
// that the peer scan may be restricted to the candidate index's
// cluster neighborhood — recall traded for throughput, so the
// bit-identity requirement is waived for it (every returned score must
// still be the exact Eq.-1 value over the restricted peer set).
// Providers without a peer scan simply don't implement it and approx
// queries assemble through their exact path.
type ApproxRelevancer interface {
	RelevancesApprox(u model.UserID) (map[model.ItemID]float64, error)
}

// Assemble scores every member of g through p — in parallel across at
// most workers goroutines, balanced by internal/pool — and intersects
// the predictions into the group's candidate set. Members' maps are
// computed independently, so the fan-out cannot change any score: the
// result is bit-identical to a serial member-by-member loop.
func Assemble(p Provider, g model.Group, workers int) (Candidates, error) {
	return AssembleContext(context.Background(), p, g, workers)
}

// AssembleContext is Assemble honoring ctx (see Gather): it is Gather
// over p's exact path followed by Combine.
func AssembleContext(ctx context.Context, p Provider, g model.Group, workers int) (Candidates, error) {
	maps, err := Gather(ctx, p.Relevances, g, workers)
	if err != nil {
		return Candidates{}, err
	}
	return Combine(g, maps), nil
}

// RelevancesFunc is p's per-member relevance function: its approx path
// when approx is set and p has one (ApproxRelevancer), otherwise its
// exact path.
func RelevancesFunc(p Provider, approx bool) func(model.UserID) (map[model.ItemID]float64, error) {
	if ap, ok := p.(ApproxRelevancer); ok && approx {
		return ap.RelevancesApprox
	}
	return p.Relevances
}

// Gather computes rel for every member of g — in parallel across at
// most workers goroutines, balanced by internal/pool — and returns the
// maps in group order. Members whose scoring has not started when ctx
// ends are skipped, and once it ends the call returns ctx.Err()
// immediately instead of blocking on in-flight member computations
// (stragglers finish in the background and their results are
// discarded — provider calls are read-only, so abandonment cannot
// corrupt state). A member's failure is reported as
// "scoring: member <id>: <err>".
func Gather(ctx context.Context, rel func(model.UserID) (map[model.ItemID]float64, error), g model.Group, workers int) ([]map[model.ItemID]float64, error) {
	if len(g) == 0 {
		return nil, ErrEmptyGroup
	}
	maps := make([]map[model.ItemID]float64, len(g))
	errs := make([]error, len(g))
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.Each(len(g), workers, func(k int) {
			if err := ctx.Err(); err != nil {
				errs[k] = err
				return
			}
			maps[k], errs[k] = rel(g[k])
		})
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scoring: member %s: %w", g[k], err)
		}
	}
	return maps, nil
}

// Combine intersects per-member prediction maps (in group order, one
// map per member of g) into the group's candidate set — Def. 2's
// domain: only items every member has a defined prediction for
// survive. Factored out of assemble so a coordinator that gathers the
// member maps remotely merges them with exactly the local semantics.
func Combine(g model.Group, maps []map[model.ItemID]float64) Candidates {
	items := make(map[model.ItemID][]float64)
	for item, s0 := range maps[0] {
		scores := make([]float64, 0, len(g))
		scores = append(scores, s0)
		defined := true
		for k := 1; k < len(g); k++ {
			s, ok := maps[k][item]
			if !ok {
				defined = false
				break
			}
			scores = append(scores, s)
		}
		if defined {
			items[item] = scores
		}
	}
	perUser := make(map[model.UserID]map[model.ItemID]float64, len(g))
	for _, u := range g {
		perUser[u] = make(map[model.ItemID]float64, len(items))
	}
	for item, scores := range items {
		for k, u := range g {
			perUser[u][item] = scores[k]
		}
	}
	return Candidates{PerUser: perUser, Items: items}
}
