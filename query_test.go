package fairhealth

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestGroupQueryValidate is the contract table for the shared
// validator: every invalid shape must report ErrBadQuery, every valid
// shape must pass.
func TestGroupQueryValidate(t *testing.T) {
	cases := []struct {
		name string
		q    GroupQuery
		ok   bool
	}{
		{"zero value", GroupQuery{}, true},
		{"plain greedy", GroupQuery{Members: []string{"a"}, Z: 5}, true},
		{"explicit greedy", GroupQuery{Method: MethodGreedy}, true},
		{"brute with bounds", GroupQuery{Method: MethodBrute, BruteM: 20, BruteMaxCombos: 1000}, true},
		{"brute all candidates", GroupQuery{Method: MethodBrute, BruteM: -1}, true},
		{"consensus aggregation", GroupQuery{Aggregation: "consensus"}, true},
		{"explain", GroupQuery{Explain: true}, true},
		{"negative z", GroupQuery{Z: -1}, false},
		{"negative k", GroupQuery{K: -2}, false},
		{"negative combos", GroupQuery{Method: MethodBrute, BruteMaxCombos: -5}, false},
		{"unknown method", GroupQuery{Method: "oracle"}, false},
		{"unknown aggregation", GroupQuery{Aggregation: "plurality"}, false},
		{"mapreduce avg", GroupQuery{Method: "mapreduce", Aggregation: "avg"}, false},
		{"mapreduce consensus", GroupQuery{Method: "mapreduce", Aggregation: "consensus"}, false},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: invalid query accepted", c.name)
			} else if !errors.Is(err, ErrBadQuery) {
				t.Errorf("%s: error %v does not wrap ErrBadQuery", c.name, err)
			}
		}
	}
}

// greedyQuery is the paper's Algorithm 1 request for members, with the
// per-member evidence.
func greedyQuery(members []string, z int) GroupQuery {
	return GroupQuery{Members: members, Z: z, Method: MethodGreedy, Explain: true}
}

// greedyQueries is greedyQuery for every group.
func greedyQueries(groups [][]string, z int) []GroupQuery {
	queries := make([]GroupQuery, len(groups))
	for k, g := range groups {
		queries[k] = greedyQuery(g, z)
	}
	return queries
}

func TestServeExplainControlsPerMember(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	withOut, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4})
	if err != nil {
		t.Fatal(err)
	}
	if withOut.PerMember != nil {
		t.Errorf("PerMember populated without Explain: %v", withOut.PerMember)
	}
	with, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.PerMember) != len(groups[0]) {
		t.Errorf("PerMember has %d members, want %d", len(with.PerMember), len(groups[0]))
	}
	// The selection itself must not depend on the explain flag.
	if !reflect.DeepEqual(withOut.Items, with.Items) || withOut.Fairness != with.Fairness {
		t.Errorf("explain changed the selection: %+v vs %+v", withOut, with)
	}
}

// TestServePerQueryOverrides exercises the knobs that used to require
// rebuilding the System with a different Config: aggregation and K.
func TestServePerQueryOverrides(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	g := groups[0]
	ctx := context.Background()

	avg, err := sys.Serve(ctx, GroupQuery{Members: g, Z: 6, Aggregation: "avg", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	vetoed, err := sys.Serve(ctx, GroupQuery{Members: g, Z: 6, Aggregation: "min", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	// min-aggregated group scores can never exceed the avg-aggregated
	// score of the same item set.
	if vetoed.Value > avg.Value+1e-9 && reflect.DeepEqual(itemsOf(vetoed), itemsOf(avg)) {
		t.Errorf("veto value %v exceeds majority value %v on identical items", vetoed.Value, avg.Value)
	}

	// A fresh system configured with min must agree exactly with the
	// per-query override on the shared-config system.
	minSys, err := New(Config{Delta: 0.55, MinOverlap: 4, K: 8, Workers: 1, Aggregation: "min"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sys.RatingTriples() {
		if err := minSys.AddRating(tr.User, tr.Item, tr.Value); err != nil {
			t.Fatal(err)
		}
	}
	want, err := minSys.Serve(context.Background(), greedyQuery(g, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vetoed, want) {
		t.Errorf("per-query min %+v != min-configured system %+v", vetoed, want)
	}

	// K override changes the fairness evidence size.
	k3, err := sys.Serve(ctx, GroupQuery{Members: g, Z: 6, K: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for u, list := range k3.PerMember {
		if len(list) > 3 {
			t.Errorf("member %s list has %d entries, want ≤ 3", u, len(list))
		}
	}
}

func itemsOf(r *GroupResult) []string {
	out := make([]string, len(r.Items))
	for k, it := range r.Items {
		out[k] = it.Item
	}
	return out
}

// TestServeBatchMixedQueries is the tentpole's batch payoff: one batch
// call mixing methods, z, and aggregation per entry, with per-entry
// results identical to single-shot serving.
func TestServeBatchMixedQueries(t *testing.T) {
	sys, groups := batchSystem(t, 3)
	queries := []GroupQuery{
		{Members: groups[0], Z: 6},
		{Members: groups[1], Z: 3, Method: MethodBrute, BruteM: 12},
		{Members: groups[2], Z: 4, Aggregation: "min"},
		{Members: nil}, // invalid entry must not poison the batch
	}
	batch, err := sys.ServeBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch has %d entries, want %d", len(batch), len(queries))
	}
	for k := 0; k < 3; k++ {
		if batch[k].Err != nil {
			t.Fatalf("entry %d: %v", k, batch[k].Err)
		}
		single, err := sys.Serve(context.Background(), queries[k])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[k].Result, single) {
			t.Errorf("entry %d: batch %+v != single %+v", k, batch[k].Result, single)
		}
	}
	if !errors.Is(batch[3].Err, ErrEmptyGroup) {
		t.Errorf("empty entry err = %v, want ErrEmptyGroup", batch[3].Err)
	}
}

// TestServeBatchInvalidQueryIsPerEntry: a malformed query fails its own
// entry with ErrBadQuery, everything else completes.
func TestServeBatchInvalidQueryIsPerEntry(t *testing.T) {
	sys, groups := batchSystem(t, 2)
	batch, err := sys.ServeBatch(context.Background(), []GroupQuery{
		{Members: groups[0], Z: 4},
		{Members: groups[1], Z: -3},
		{Members: groups[1], Method: "oracle"},
		// The §IV pipeline is `fairrec mr`, not a serving method.
		{Members: groups[1], Method: "mapreduce"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Errorf("valid entry failed: %v", batch[0].Err)
	}
	for _, k := range []int{1, 2, 3} {
		if !errors.Is(batch[k].Err, ErrBadQuery) {
			t.Errorf("entry %d err = %v, want ErrBadQuery", k, batch[k].Err)
		}
	}
}

// TestSharedZValidator pins the one rule every serving surface now
// shares: Z==0 defaults, Z<0 is rejected, single-shot and batch agree.
func TestSharedZValidator(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	single, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0]})
	if err != nil {
		t.Fatalf("single-shot z=0: %v", err)
	}
	batch, err := sys.ServeBatch(context.Background(), []GroupQuery{{Members: groups[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Fatalf("batch z=0: %v", batch[0].Err)
	}
	if !reflect.DeepEqual(batch[0].Result.Items, single.Items) {
		t.Errorf("batch default-z items %v != single-shot %v", batch[0].Result.Items, single.Items)
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: -1}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("single-shot z=-1 err = %v, want ErrBadQuery", err)
	}
	b2, err := sys.ServeBatch(context.Background(), []GroupQuery{{Members: groups[0], Z: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(b2[0].Err, ErrBadQuery) {
		t.Errorf("batch z=-1 err = %v, want ErrBadQuery", b2[0].Err)
	}
}

func TestServeUnknownMember(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	mixed := append([]string{"nobody-here"}, groups[0]...)
	_, err := sys.Serve(context.Background(), GroupQuery{Members: mixed, Z: 3})
	if !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("err = %v, want ErrUnknownPatient", err)
	}
	if err == nil || !strings.Contains(err.Error(), "nobody-here") {
		t.Errorf("error %q does not name the unknown member", err)
	}
}

// TestGroupTopZSharedZRule: the baseline path follows the same z rule
// as Serve — 0 defaults, negative rejects (it used to panic on a
// negative slice bound).
func TestGroupTopZSharedZRule(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	if _, err := sys.GroupTopZ(groups[0], -1); !errors.Is(err, ErrBadQuery) {
		t.Errorf("GroupTopZ z=-1 err = %v, want ErrBadQuery", err)
	}
	recs, err := sys.GroupTopZ(groups[0], 0)
	if err != nil {
		t.Fatalf("GroupTopZ z=0: %v", err)
	}
	if len(recs) == 0 {
		t.Error("GroupTopZ z=0 returned nothing; want the DefaultZ list")
	}
}

func TestPeersAndRecommendUnknownUser(t *testing.T) {
	sys, _ := batchSystem(t, 1)
	if _, err := sys.Peers("ghost"); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("Peers(ghost) err = %v, want ErrUnknownPatient", err)
	}
	if _, err := sys.Recommend("ghost", 5); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("Recommend(ghost) err = %v, want ErrUnknownPatient", err)
	}
	// A profile-only patient (no ratings yet) is known.
	if err := sys.AddPatient(Patient{ID: "profiled"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Peers("profiled"); err != nil {
		t.Errorf("Peers(profile-only) err = %v, want nil", err)
	}
}

// TestCacheStatsCounters drives known hit/miss traffic through the
// similarity memo and peer cache and checks the observability
// counters move accordingly.
func TestCacheStatsCounters(t *testing.T) {
	sys, groups := hybridBatchSystem(t, 1)
	if st := sys.CacheStats(); st.Similarity.Hits != 0 || st.Peers.Hits != 0 {
		t.Fatalf("fresh system has nonzero counters: %+v", st)
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	cold := sys.CacheStats()
	if cold.Similarity.Misses == 0 || cold.Similarity.Entries == 0 {
		t.Errorf("cold serve left no similarity activity: %+v", cold.Similarity)
	}
	if cold.Peers.Misses == 0 || cold.Peers.Entries == 0 {
		t.Errorf("cold serve left no peer-cache activity: %+v", cold.Peers)
	}
	if cold.Groups.Misses == 0 || cold.Groups.Entries == 0 {
		t.Errorf("cold serve left no group-memo activity: %+v", cold.Groups)
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	// The repeat query is answered from the group-input memo — the
	// layer above the peer cache — so warmth shows up there.
	warm := sys.CacheStats()
	if warm.Groups.Hits <= cold.Groups.Hits {
		t.Errorf("warm serve did not hit the group memo: cold %+v warm %+v", cold.Groups, warm.Groups)
	}
	// The peer cache still answers when the memo is cold for a key:
	// the same members under a different aggregation reassemble from
	// warm peer sets.
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4, Aggregation: "min"}); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Peers.Hits <= cold.Peers.Hits {
		t.Errorf("reassembly did not hit the peer cache: cold %+v now %+v", cold.Peers, st.Peers)
	}
	// A full invalidation clears entries but keeps lifetime counters.
	sys.InvalidateCaches()
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	after := sys.CacheStats()
	if after.Similarity.Misses < warm.Similarity.Misses {
		t.Errorf("similarity counters went backwards across invalidation: %+v then %+v",
			warm.Similarity, after.Similarity)
	}
}
