package cf

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fairhealth/internal/dataset"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
	"fairhealth/internal/simfn"
	"fairhealth/internal/snomed"
)

// fixedSim builds a similarity measure from a symmetric table keyed by
// "a|b" with a<b; missing pairs are undefined.
func fixedSim(table map[string]float64) simfn.UserSimilarity {
	return simfn.Func(func(a, b model.UserID) (float64, bool) {
		if b < a {
			a, b = b, a
		}
		s, ok := table[string(a)+"|"+string(b)]
		return s, ok
	})
}

func storeWith(t *testing.T, triples ...model.Triple) *ratings.Store {
	t.Helper()
	s, err := ratings.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tr(u, i string, v float64) model.Triple {
	return model.Triple{User: model.UserID(u), Item: model.ItemID(i), Value: model.Rating(v)}
}

func TestPeersThreshold(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 3), tr("b", "d1", 3), tr("c", "d1", 3),
	)
	sim := fixedSim(map[string]float64{
		"a|u": 0.3, "b|u": 0.6, "c|u": 0.9,
	})
	r := &Recommender{Store: store, Sim: sim, Delta: 0.5}
	peers, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].User != "c" || peers[1].User != "b" {
		t.Errorf("Peers = %+v, want [c b]", peers)
	}
	if peers[0].Sim != 0.9 || peers[1].Sim != 0.6 {
		t.Errorf("peer sims = %+v", peers)
	}
}

func TestPeersExcludesSelfAndUndefined(t *testing.T) {
	store := storeWith(t, tr("u", "d0", 3), tr("a", "d1", 3), tr("x", "d1", 3))
	sim := fixedSim(map[string]float64{"a|u": 0.9}) // x|u undefined
	r := &Recommender{Store: store, Sim: sim, Delta: 0}
	peers, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].User != "a" {
		t.Errorf("Peers = %+v, want [a]", peers)
	}
	for _, p := range peers {
		if p.User == "u" {
			t.Error("user is its own peer")
		}
	}
}

func TestPeersRequirePositive(t *testing.T) {
	store := storeWith(t, tr("u", "d0", 3), tr("a", "d1", 3), tr("b", "d1", 3))
	sim := fixedSim(map[string]float64{"a|u": -0.4, "b|u": 0.4})
	r := &Recommender{Store: store, Sim: sim, Delta: -1, RequirePositive: true}
	peers, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].User != "b" {
		t.Errorf("Peers = %+v, want [b]", peers)
	}
}

func TestPeersTieOrderDeterministic(t *testing.T) {
	store := storeWith(t, tr("u", "d0", 3), tr("b", "d1", 3), tr("a", "d1", 3), tr("c", "d1", 3))
	sim := fixedSim(map[string]float64{"a|u": 0.5, "b|u": 0.5, "c|u": 0.5})
	r := &Recommender{Store: store, Sim: sim}
	peers, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	want := []model.UserID{"a", "b", "c"}
	for i, p := range peers {
		if p.User != want[i] {
			t.Fatalf("tie order = %+v, want %v", peers, want)
		}
	}
}

// TestRelevanceHandComputed pins Eq. 1 on a worked example:
// peers a (sim .5) and b (sim 1) rated d1 with 4 and 2 →
// (0.5·4 + 1·2) / 1.5 = 8/3.
func TestRelevanceHandComputed(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 4), tr("b", "d1", 2),
	)
	sim := fixedSim(map[string]float64{"a|u": 0.5, "b|u": 1.0})
	r := &Recommender{Store: store, Sim: sim}
	got, ok, err := r.Relevance("u", "d1")
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if want := 8.0 / 3; math.Abs(got-want) > 1e-12 {
		t.Errorf("relevance = %v, want %v", got, want)
	}
}

func TestRelevanceIgnoresNonPeers(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 5),
		tr("z", "d1", 1), // z is not a peer (undefined sim)
	)
	sim := fixedSim(map[string]float64{"a|u": 1.0})
	r := &Recommender{Store: store, Sim: sim}
	got, ok, err := r.Relevance("u", "d1")
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if got != 5 {
		t.Errorf("relevance = %v, want 5 (z must not contribute)", got)
	}
}

func TestRelevanceAlreadyRated(t *testing.T) {
	store := storeWith(t, tr("u", "d1", 3), tr("a", "d1", 5))
	r := &Recommender{Store: store, Sim: fixedSim(map[string]float64{"a|u": 1})}
	_, _, err := r.Relevance("u", "d1")
	if !errors.Is(err, ErrAlreadyRated) {
		t.Errorf("err = %v, want ErrAlreadyRated", err)
	}
}

func TestRelevanceUndefinedWhenNoPeerRated(t *testing.T) {
	store := storeWith(t, tr("u", "d0", 3), tr("a", "d1", 4), tr("z", "d2", 2))
	sim := fixedSim(map[string]float64{"a|u": 1.0})
	r := &Recommender{Store: store, Sim: sim}
	// d2 rated only by non-peer z
	_, ok, err := r.Relevance("u", "d2")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("relevance should be undefined when no peer rated the item")
	}
}

func TestAllRelevancesMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var triples []model.Triple
	for u := 0; u < 8; u++ {
		for i := 0; i < 15; i++ {
			if rng.Float64() < 0.5 {
				triples = append(triples, tr(fmt.Sprintf("u%d", u), fmt.Sprintf("d%d", i), float64(1+rng.Intn(5))))
			}
		}
	}
	store := storeWith(t, triples...)
	sim := simfn.Normalized{S: simfn.Pearson{Store: store, MinOverlap: 2}}
	r := &Recommender{Store: store, Sim: sim, Delta: 0.3}

	all, err := r.AllRelevances("u0")
	if err != nil {
		t.Fatal(err)
	}
	// every batch score must match the pointwise path
	for item, score := range all {
		got, ok, err := r.Relevance("u0", item)
		if err != nil || !ok {
			t.Fatalf("pointwise Relevance(%s): %v %v", item, err, ok)
		}
		if got != score {
			t.Errorf("batch %v vs pointwise %v for %s", score, got, item)
		}
	}
	// and no rated item may appear
	for item := range all {
		if store.HasRated("u0", item) {
			t.Errorf("rated item %s in AllRelevances", item)
		}
	}
	// every unrated item with a defined pointwise score must appear
	for _, item := range store.Items() {
		if store.HasRated("u0", item) {
			continue
		}
		if got, ok, _ := r.Relevance("u0", item); ok {
			if batch, present := all[item]; !present || batch != got {
				t.Errorf("item %s missing from batch (pointwise %v)", item, got)
			}
		}
	}
}

func TestRecommendTopK(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 5), tr("a", "d2", 3), tr("a", "d3", 1), tr("a", "d4", 4),
	)
	sim := fixedSim(map[string]float64{"a|u": 1.0})
	r := &Recommender{Store: store, Sim: sim}
	recs, err := r.Recommend("u", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Item != "d1" || recs[1].Item != "d4" {
		t.Errorf("Recommend = %v, want [d1 d4]", recs)
	}
	if recs[0].Score != 5 || recs[1].Score != 4 {
		t.Errorf("scores = %v", recs)
	}
}

func TestRecommendEmptyWhenNoPeers(t *testing.T) {
	store := storeWith(t, tr("u", "d0", 3), tr("a", "d1", 5))
	sim := fixedSim(nil) // everything undefined
	r := &Recommender{Store: store, Sim: sim}
	recs, err := r.Recommend("u", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("Recommend with no peers = %v, want empty", recs)
	}
}

func TestNotConfigured(t *testing.T) {
	var r *Recommender
	if _, err := r.Peers("u"); !errors.Is(err, ErrNoConfig) {
		t.Errorf("nil recommender: %v", err)
	}
	r2 := &Recommender{}
	if _, _, err := r2.Relevance("u", "d"); !errors.Is(err, ErrNoConfig) {
		t.Errorf("empty recommender: %v", err)
	}
	if _, err := (&Recommender{Store: ratings.New()}).Recommend("u", 3); !errors.Is(err, ErrNoConfig) {
		t.Errorf("missing sim: %v", err)
	}
}

// TestEndToEndPearson checks the full CF loop: u0 agrees with u1 and
// disagrees with u2, so predictions for u0 should track u1's ratings.
func TestEndToEndPearson(t *testing.T) {
	store := storeWith(t,
		// u0 and u1 rate alike on d1..d4; u2 rates opposite
		tr("u0", "d1", 5), tr("u0", "d2", 4), tr("u0", "d3", 1), tr("u0", "d4", 2),
		tr("u1", "d1", 5), tr("u1", "d2", 5), tr("u1", "d3", 1), tr("u1", "d4", 1),
		tr("u2", "d1", 1), tr("u2", "d2", 1), tr("u2", "d3", 5), tr("u2", "d4", 5),
		// the candidates
		tr("u1", "dGood", 5), tr("u2", "dGood", 2),
		tr("u1", "dBad", 1), tr("u2", "dBad", 5),
	)
	sim := simfn.Normalized{S: simfn.Pearson{Store: store, MinOverlap: 2}}
	r := &Recommender{Store: store, Sim: sim, Delta: 0.8}
	recs, err := r.Recommend("u0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "dGood" {
		t.Fatalf("Recommend = %v, want dGood first", recs)
	}
	// with δ=0.8 only u1 is a peer, so scores equal u1's ratings
	if recs[0].Score != 5 {
		t.Errorf("score(dGood) = %v, want 5", recs[0].Score)
	}
}

func TestCoverage(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 4), tr("a", "d2", 2),
		tr("z", "d3", 5),
	)
	sim := fixedSim(map[string]float64{"a|u": 1.0})
	r := &Recommender{Store: store, Sim: sim}
	// items: d0(rated by u), d1,d2 predictable, d3 not (z not a peer)
	cov, err := r.Coverage("u")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 3; math.Abs(cov-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", cov, want)
	}
}

// Property: with positive peer weights, Eq. 1 is a convex combination,
// so every prediction lies within the peers' rating range.
func TestRelevanceWithinRatingBounds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var triples []model.Triple
		for u := 0; u < 10; u++ {
			for i := 0; i < 12; i++ {
				if rng.Float64() < 0.4 {
					triples = append(triples, tr(fmt.Sprintf("u%d", u), fmt.Sprintf("d%d", i), float64(1+rng.Intn(5))))
				}
			}
		}
		store := storeWith(t, triples...)
		sim := simfn.Normalized{S: simfn.Pearson{Store: store, MinOverlap: 1}}
		r := &Recommender{Store: store, Sim: sim, Delta: 0.1, RequirePositive: true}
		all, err := r.AllRelevances("u0")
		if err != nil {
			t.Fatal(err)
		}
		for item, score := range all {
			if score < float64(model.MinRating)-1e-9 || score > float64(model.MaxRating)+1e-9 {
				t.Errorf("seed %d: relevance(%s) = %v outside [1,5]", seed, item, score)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// PeerCache

func TestPeerCacheMemoizes(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 3), tr("b", "d1", 3), tr("c", "d1", 3),
	)
	calls := 0
	sim := simfn.Func(func(a, b model.UserID) (float64, bool) {
		calls++
		return 0.8, true
	})
	r := &Recommender{Store: store, Sim: sim, Delta: 0.5, Cache: NewPeerCache()}
	first, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	callsAfterFirst := calls
	second, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if calls != callsAfterFirst {
		t.Errorf("cached Peers re-evaluated similarity: %d calls, want %d", calls, callsAfterFirst)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached peers %+v differ from computed %+v", second, first)
	}
	if r.Cache.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", r.Cache.Len())
	}
	// Mutating a returned slice must not corrupt the cache.
	second[0].Sim = -1
	third, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Sim != first[0].Sim {
		t.Error("caller mutation leaked into the cache")
	}
}

func TestPeerCacheInvalidate(t *testing.T) {
	c := NewPeerCache()
	gen, seq := c.Fence()
	c.Put("u", []Peer{{User: "a", Sim: 0.9}}, gen, seq)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Errorf("Len after Invalidate = %d, want 0", c.Len())
	}
	if _, ok := c.Get("u"); ok {
		t.Error("Get succeeded after Invalidate")
	}
}

// TestPeerCacheDropsStalePut covers the write-during-compute race: a
// peer set computed against a pre-invalidation snapshot must not land.
func TestPeerCacheDropsStalePut(t *testing.T) {
	c := NewPeerCache()
	gen, seq := c.Fence()
	c.Invalidate() // a write arrives while the peer set is being computed
	c.Put("u", []Peer{{User: "a", Sim: 0.9}}, gen, seq)
	if _, ok := c.Get("u"); ok {
		t.Error("stale Put survived Invalidate")
	}
}

// TestPeerCacheEvictUsers: scoped eviction drops only the touched
// user's own set; every other set stays resident — whether or not it
// holds the user — and names the user for recheck.
func TestPeerCacheEvictUsers(t *testing.T) {
	c := NewPeerCache()
	gen, seq := c.Fence()
	c.Put("u", []Peer{{User: "a", Sim: 0.9}}, gen, seq)
	c.Put("v", []Peer{{User: "b", Sim: 0.8}}, gen, seq)
	c.Put("a", []Peer{{User: "u", Sim: 0.9}}, gen, seq)
	c.EvictUsers([]model.UserID{"a"})
	if _, _, ok := c.Lookup("a"); ok {
		t.Error("evicted user's own set survived")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("evictions = %d, entries = %d; want 1, 2", st.Evictions, st.Entries)
	}
	// Neither survivor is blindly servable: the write to "a" could push
	// it out of u's set or pull it into v's, so Lookup flags "a" for
	// recheck (and Get, which only serves fully-fresh sets, misses).
	for owner, member := range map[model.UserID]model.UserID{"u": "a", "v": "b"} {
		ps, stale, ok := c.Lookup(owner)
		if !ok || len(ps) != 1 || ps[0].User != member {
			t.Errorf("%s's set lost: %v, %v", owner, ps, ok)
		}
		if len(stale) != 1 || stale[0] != "a" {
			t.Errorf("%s: stale = %v, want [a] (evicted user must be rechecked)", owner, stale)
		}
		if _, ok := c.Get(owner); ok {
			t.Errorf("Get served %s's set with pending rechecks", owner)
		}
	}
}

// TestPeerCacheLatePutGetsPatched: a Put landing after a scoped
// eviction (same generation — no full flush) stores a set that may
// predate the write; Lookup must report the touched user as stale.
func TestPeerCacheLatePutGetsPatched(t *testing.T) {
	c := NewPeerCache()
	gen, seq := c.Fence()
	c.EvictUsers([]model.UserID{"w"}) // write lands mid-computation
	c.Put("u", []Peer{{User: "a", Sim: 0.9}}, gen, seq)
	peers, stale, ok := c.Lookup("u")
	if !ok {
		t.Fatal("late Put did not land")
	}
	if len(peers) != 1 || peers[0].User != "a" {
		t.Errorf("peers = %v", peers)
	}
	if len(stale) != 1 || stale[0] != "w" {
		t.Fatalf("stale = %v, want [w]", stale)
	}
	// A set stored after the eviction is clean.
	gen2, seq2 := c.Fence()
	c.Put("v", []Peer{{User: "b", Sim: 0.7}}, gen2, seq2)
	if _, stale, _ := c.Lookup("v"); len(stale) != 0 {
		t.Errorf("fresh set reported stale users %v", stale)
	}
}

// TestPeersPatchedAfterScopedEviction is the δ-crossing case: a write
// that pulls a user INTO a cached peer set (not just out of it) must be
// reflected after EvictUsers, bit-identically to a cache-free scan.
func TestPeersPatchedAfterScopedEviction(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 3), tr("b", "d2", 3), tr("w", "d3", 3),
	)
	sims := map[model.UserID]float64{"a": 0.9, "b": 0.7, "w": 0.2}
	var mu sync.Mutex
	sim := simfn.Func(func(x, y model.UserID) (float64, bool) {
		other := x
		if other == "u" {
			other = y
		}
		mu.Lock()
		defer mu.Unlock()
		return sims[other], true
	})
	cache := NewPeerCache()
	newRec := func() *Recommender {
		gen, seq := cache.Fence()
		return &Recommender{Store: store, Sim: sim, Delta: 0.5, Cache: cache, CacheGen: gen, CacheSeq: seq}
	}
	first, err := newRec().Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 { // a and b; w is below δ
		t.Fatalf("initial peers = %+v, want a,b", first)
	}

	// "Write" to w: its similarity crosses δ upward; and to a: drops out.
	mu.Lock()
	sims["w"], sims["a"] = 0.8, 0.1
	mu.Unlock()
	cache.EvictUsers([]model.UserID{"w", "a"})

	r := newRec()
	got, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := (&Recommender{Store: store, Sim: sim, Delta: 0.5}).Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("patched peers %+v differ from cache-free scan %+v", got, fresh)
	}
	if len(got) != 2 || got[0].User != "w" || got[1].User != "b" {
		t.Errorf("peers after patch = %+v, want w(0.8), b(0.7)", got)
	}
	// The patched set is stored and clean.
	if _, stale, ok := cache.Lookup("u"); !ok || len(stale) != 0 {
		t.Errorf("patched set not stored clean: ok=%v stale=%v", ok, stale)
	}
}

// TestPeersSelfStaleForcesFullScan: a peer set for u reinstated by a
// Put that raced a write to u itself (eviction deleted it, late Put
// brought it back with pre-write data) is wrong in entries the stale
// list does not name — every pair (u, other) may have changed. It must
// be rebuilt by a full scan, not patched.
func TestPeersSelfStaleForcesFullScan(t *testing.T) {
	store := storeWith(t,
		tr("u", "d0", 3),
		tr("a", "d1", 3), tr("b", "d2", 3),
	)
	sims := map[model.UserID]float64{"a": 0.9, "b": 0.2}
	var mu sync.Mutex
	sim := simfn.Func(func(x, y model.UserID) (float64, bool) {
		other := x
		if other == "u" {
			other = y
		}
		mu.Lock()
		defer mu.Unlock()
		return sims[other], true
	})
	cache := NewPeerCache()
	gen, seq := cache.Fence()
	// A write to u lands while a peer set for u is being computed...
	cache.EvictUsers([]model.UserID{"u"})
	mu.Lock()
	sims["a"], sims["b"] = 0.1, 0.8 // u's whole row changed
	mu.Unlock()
	// ...and the computation's Put lands late, carrying pre-write data.
	cache.Put("u", []Peer{{User: "a", Sim: 0.9}}, gen, seq)

	gen2, seq2 := cache.Fence()
	r := &Recommender{Store: store, Sim: sim, Delta: 0.5, Cache: cache, CacheGen: gen2, CacheSeq: seq2}
	got, err := r.Peers("u")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{{User: "b", Sim: 0.8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("peers = %+v, want %+v (full rescan of u's row)", got, want)
	}
	// The rebuilt set is stored clean.
	if ps, stale, ok := cache.Lookup("u"); !ok || len(stale) != 0 || !reflect.DeepEqual(ps, want) {
		t.Errorf("rebuilt set not stored clean: ok=%v stale=%v ps=%+v", ok, stale, ps)
	}
}

// TestPatchedPeersEqualFreshScan is the property behind keeping peer
// sets resident across other users' writes: after any sequence of
// rating writes — a user's first and last rating, pushes across δ in
// both directions, several written users between reads — a cached set
// patched for the written users equals a cache-free scan element-wise
// and in order. It runs for a measure that reads ratings (Pearson:
// writes move similarities) and one that does not (profile cosine:
// writes move only the candidate universe), with the candidate
// restriction off and on.
func TestPatchedPeersEqualFreshScan(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 23, Users: 40, Items: 24, RatingsPerUser: 8})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := simfn.BuildProfileCosine(ds.Profiles, snomed.Load(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const minOverlap = 2
	cases := []struct {
		name  string
		sim   func(*ratings.Store) simfn.UserSimilarity
		delta float64
	}{
		{"pearson", func(st *ratings.Store) simfn.UserSimilarity {
			return simfn.Normalized{S: simfn.Pearson{Store: st, MinOverlap: minOverlap}}
		}, 0.55},
		{"profile", func(*ratings.Store) simfn.UserSimilarity { return pc }, 0.05},
	}
	for _, tc := range cases {
		for _, restrict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/candidates=%v", tc.name, restrict), func(t *testing.T) {
				store := ds.Ratings.Clone()
				users := store.Users()
				items := store.Items()
				sim := tc.sim(store)
				rng := rand.New(rand.NewSource(5))
				// The restriction a real owner would plug in: co-raters of u,
				// a function of u's and the candidate's data only. Shuffled,
				// because neither path may assume an order.
				var candidates func(model.UserID) []model.UserID
				if restrict {
					candidates = func(u model.UserID) []model.UserID {
						out := []model.UserID{}
						for _, v := range users {
							if v != u && len(store.CoRated(u, v)) >= minOverlap {
								out = append(out, v)
							}
						}
						rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
						return out
					}
				}
				cache := NewPeerCache()
				newRec := func(c *PeerCache) *Recommender {
					r := &Recommender{Store: store, Sim: sim, Delta: tc.delta, RequirePositive: true, Candidates: candidates, Cache: c}
					if c != nil {
						r.CacheGen, r.CacheSeq = c.Fence()
					}
					return r
				}
				write := func(u model.UserID) {
					rated := store.ItemsRatedBy(u)
					switch op := rng.Intn(10); {
					case len(rated) == 0 || op >= 5: // first rating, add, or change
						_ = store.Add(u, items[rng.Intn(len(items))], model.Rating(1+rng.Intn(5)))
					case op == 0: // the last rating goes: u leaves the universe
						for _, i := range rated {
							_ = store.Remove(u, i)
						}
					default:
						_ = store.Remove(u, rated[rng.Intn(len(rated))])
					}
					cache.EvictUsers([]model.UserID{u}) // the owner's protocol: store first, then evict
				}
				var patched, inserted, dropped, left, joined int
				for step := 0; step < 300; step++ {
					for w := 1 + rng.Intn(4); w > 0; w-- {
						u := users[rng.Intn(len(users))]
						before := store.NumRatedBy(u)
						write(u)
						switch after := store.NumRatedBy(u); {
						case before == 0 && after > 0:
							joined++
						case before > 0 && after == 0:
							left++
						}
					}
					for reads := 1 + rng.Intn(6); reads > 0; reads-- {
						u := users[rng.Intn(len(users))]
						old, stale, resident := cache.lookup(u)
						old = append([]Peer(nil), old...)
						got, err := newRec(cache).Peers(u)
						if err != nil {
							t.Fatal(err)
						}
						want, err := newRec(nil).Peers(u)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("step %d, user %s (stale %v):\n served %+v\n scan   %+v", step, u, stale, got, want)
						}
						if !resident || len(stale) == 0 {
							continue
						}
						patched++
						has := func(ps []Peer, t model.UserID) bool {
							for _, p := range ps {
								if p.User == t {
									return true
								}
							}
							return false
						}
						for _, t := range stale {
							switch was, is := has(old, t), has(got, t); {
							case was && !is:
								dropped++
							case !was && is:
								inserted++
							}
						}
					}
				}
				if patched < 200 || inserted == 0 || dropped == 0 || left == 0 || joined == 0 {
					t.Fatalf("coverage: %d patched reads, %d inserted, %d dropped, %d users left, %d joined", patched, inserted, dropped, left, joined)
				}
			})
		}
	}
}

// allRelevancesReference is Eq. 1 accumulated into a map keyed by item
// ID — the original AllRelevances, kept as the oracle the catalogue-
// indexed accumulator must match bit for bit.
func allRelevancesReference(r *Recommender, u model.UserID) (map[model.ItemID]float64, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	peers, err := r.peers(u)
	if err != nil {
		return nil, err
	}
	type acc struct{ num, den float64 }
	sn := r.Store.Snapshot()
	accs := make(map[model.ItemID]acc)
	for _, p := range peers {
		sim := p.Sim
		row, ok := sn.Row(p.User)
		if !ok {
			continue
		}
		for j, i := range row.Items {
			a := accs[i]
			a.num += sim * float64(row.Ratings[j])
			a.den += sim
			accs[i] = a
		}
	}
	rowU, _ := sn.Row(u)
	out := make(map[model.ItemID]float64, len(accs))
	for i, a := range accs {
		if a.den == 0 {
			continue
		}
		if _, rated := rowU.Rating(i); rated {
			continue
		}
		out[i] = a.num / a.den
	}
	return out, nil
}

// sameBits reports whether two relevance maps hold the same items with
// bit-identical scores.
func sameBits(a, b map[model.ItemID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y, ok := b[i]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// quantizedSim is a symmetric similarity over a handful of values of
// both signs, zero included, so that with Delta ≤ 0 and
// RequirePositive off some items' Eq. 1 denominators are exactly zero
// (zero-similarity raters) or cancel (±s raters).
func quantizedSim() simfn.UserSimilarity {
	levels := []float64{-0.5, -0.25, 0, 0.25, 0.5}
	return simfn.Func(func(a, b model.UserID) (float64, bool) {
		if b < a {
			a, b = b, a
		}
		h := fnv.New32a()
		h.Write([]byte(string(a) + "|" + string(b)))
		return levels[h.Sum32()%uint32(len(levels))], true
	})
}

// TestAllRelevancesMatchesReference pins the catalogue-indexed Eq. 1
// accumulator to the map-based reference bit for bit over random
// add/change/remove sequences — new items (catalogue rebuilds), items
// losing their last rater, users joining and leaving — with and without
// a peer cache, for Pearson peers and for signed similarities whose
// denominators vanish.
func TestAllRelevancesMatchesReference(t *testing.T) {
	cases := []struct {
		name            string
		sim             func(*ratings.Store) simfn.UserSimilarity
		delta           float64
		requirePositive bool
	}{
		{"pearson", func(st *ratings.Store) simfn.UserSimilarity {
			return simfn.Normalized{S: simfn.Pearson{Store: st, MinOverlap: 2}}
		}, 0.5, true},
		{"signed", func(*ratings.Store) simfn.UserSimilarity { return quantizedSim() }, -1, false},
	}
	for _, tc := range cases {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", tc.name, cached), func(t *testing.T) {
				ds, err := dataset.Generate(dataset.Config{Seed: 17, Users: 30, Items: 20, RatingsPerUser: 6})
				if err != nil {
					t.Fatal(err)
				}
				store := ds.Ratings
				users := store.Users()
				items := store.Items()
				sim := tc.sim(store)
				var cache *PeerCache
				if cached {
					cache = NewPeerCache()
				}
				rng := rand.New(rand.NewSource(3))
				var cancelled int
				for step := 0; step < 250; step++ {
					u := users[rng.Intn(len(users))]
					switch op := rng.Intn(10); {
					case op == 0: // a new item
						items = append(items, model.ItemID(fmt.Sprintf("new%03d", step)))
						_ = store.Add(u, items[len(items)-1], model.Rating(1+rng.Intn(5)))
					case op == 1: // u's last rating goes
						for _, i := range store.ItemsRatedBy(u) {
							_ = store.Remove(u, i)
						}
					case op < 4:
						_ = store.Remove(u, items[rng.Intn(len(items))])
					default: // add, change, or u's first rating
						_ = store.Add(u, items[rng.Intn(len(items))], model.Rating(1+rng.Intn(5)))
					}
					if cache != nil {
						cache.EvictUsers([]model.UserID{u})
					}
					for reads := 0; reads < 3; reads++ {
						v := users[rng.Intn(len(users))]
						r := &Recommender{Store: store, Sim: sim, Delta: tc.delta, RequirePositive: tc.requirePositive, Cache: cache}
						if cache != nil {
							r.CacheGen, r.CacheSeq = cache.Fence()
						}
						got, err := r.AllRelevances(v)
						if err != nil {
							t.Fatal(err)
						}
						want, err := allRelevancesReference(r, v)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatalf("step %d user %s:\n got  %v\n want %v", step, v, got, want)
						}
						if tc.requirePositive {
							continue
						}
						peers, _ := r.Peers(v)
						for _, i := range store.Items() {
							if _, ok := want[i]; !ok && !store.HasRated(v, i) {
								for _, p := range peers {
									if store.HasRated(p.User, i) {
										cancelled++ // some peer rated it, yet den == 0
										break
									}
								}
							}
						}
					}
				}
				if !tc.requirePositive && cancelled == 0 {
					t.Fatal("no read hit a zero or cancelling denominator")
				}
			})
		}
	}
}

// TestAllRelevancesConcurrentNewItems runs AllRelevances and Relevance
// while writers keep adding items the catalogue has never seen (under
// -race in CI): every answer must come from one coherent snapshot, so
// no index may fall outside the catalogue and, with positive weights,
// every score is a weighted mean inside the rating range.
func TestAllRelevancesConcurrentNewItems(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 29, Users: 40, Items: 20, RatingsPerUser: 6})
	if err != nil {
		t.Fatal(err)
	}
	store := ds.Ratings
	users := store.Users()
	sim := simfn.Normalized{S: simfn.Pearson{Store: store, MinOverlap: 2}}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 400; n++ {
				u := users[rng.Intn(len(users))]
				i := model.ItemID(fmt.Sprintf("w%d-%d", seed, n))
				_ = store.Add(u, i, model.Rating(1+rng.Intn(5)))
				if rng.Intn(2) == 0 {
					_ = store.Remove(u, i)
				}
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	writing := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	r := &Recommender{Store: store, Sim: sim, Delta: 0.5, RequirePositive: true}
	for k := 0; k < 300 || writing(); k++ {
		u := users[k%len(users)]
		all, err := r.AllRelevances(u)
		if err != nil {
			t.Fatal(err)
		}
		for i, score := range all {
			if score < 1-1e-9 || score > 5+1e-9 {
				t.Fatalf("AllRelevances(%s)[%s] = %v outside [1,5]", u, i, score)
			}
			if got, ok, err := r.Relevance(u, i); err == nil && ok && (got < 1-1e-9 || got > 5+1e-9) {
				t.Fatalf("Relevance(%s, %s) = %v outside [1,5]", u, i, got)
			}
		}
	}
}
