package fairhealth

// The pluggable-scorer equivalence suite: the default path must be
// bit-identical to the pre-refactor assembly, "user-cf" must be
// bit-identical to the default, warm (memoized / scoped-invalidation)
// answers must be bit-identical to cold rebuilds for every scorer, and
// the item-cf provider must survive concurrent Serve+writes (-race).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fairhealth/internal/cf"
	"fairhealth/internal/core"
	"fairhealth/internal/dataset"
	"fairhealth/internal/group"
	"fairhealth/internal/model"
	"fairhealth/internal/scoring"
	"fairhealth/internal/simfn"
)

// scorerSystem builds a System with ratings AND profiles (the profile
// scorer needs a corpus) at a δ low enough that every scorer finds
// peers on the generated data.
func scorerSystem(t *testing.T) (*System, [][]string) {
	t.Helper()
	sys, err := New(Config{Delta: 0.3, MinOverlap: 3, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Users: 40, Items: 80, RatingsPerUser: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Profiles first: AddPatient flushes every cache, so loading them
	// before the ratings keeps the setup cheap.
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		problems := make([]string, len(prof.Problems))
		for i, c := range prof.Problems {
			problems[i] = string(c)
		}
		err = sys.AddPatient(Patient{
			ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
			Problems: problems, Medications: prof.Medications,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	users := sys.SortedUsers()
	var groups [][]string
	for g := 0; g+3 <= 12; g++ {
		groups = append(groups, []string{users[g], users[g+1], users[g+2]})
	}
	return sys, groups
}

// TestScorerUserCFBitIdenticalToDefault: naming the default scorer
// explicitly changes nothing, across every solver method.
func TestScorerUserCFBitIdenticalToDefault(t *testing.T) {
	sys, groups := scorerSystem(t)
	ctx := context.Background()
	for _, method := range []Method{MethodGreedy, MethodBrute} {
		q := GroupQuery{Members: groups[0], Z: 5, Method: method, Explain: true}
		if method == MethodBrute {
			q.BruteM = 12
		}
		base, err := sys.Serve(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		q.Scorer = "user-cf"
		named, err := sys.Serve(ctx, q)
		if err != nil {
			t.Fatalf("%s named: %v", method, err)
		}
		if !reflect.DeepEqual(base, named) {
			t.Errorf("%s: Scorer \"user-cf\" diverged from the empty default", method)
		}
	}
}

// TestDefaultServeMatchesPreRefactorPipeline replays the assembly the
// serving path used before the scoring layer existed — the
// group.Recommender candidate stage over the system's fenced
// recommender, aggregated and fed to the same solver — and requires
// Serve to reproduce it bit for bit.
func TestDefaultServeMatchesPreRefactorPipeline(t *testing.T) {
	sys, groups := scorerSystem(t)
	g, err := memberGroup(groups[1])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.recommender()
	if err != nil {
		t.Fatal(err)
	}
	grec := &group.Recommender{Single: rec, Aggr: group.Average{}}
	cands, err := grec.Candidates(g)
	if err != nil {
		t.Fatal(err)
	}
	groupRel := make(map[model.ItemID]float64, len(cands))
	perUser := make(map[model.UserID]map[model.ItemID]float64, len(g))
	for _, u := range g {
		perUser[u] = make(map[model.ItemID]float64)
	}
	for item, scores := range cands {
		groupRel[item] = group.Average{}.Aggregate(scores)
		for j, u := range g {
			perUser[u][item] = scores[j]
		}
	}
	in := core.Input{
		Group:    g,
		Lists:    core.ListsFromRelevances(perUser, sys.Config().K),
		GroupRel: groupRel,
		Rel: func(u model.UserID, i model.ItemID) (float64, bool) {
			sc, ok := perUser[u][i]
			return sc, ok
		},
	}
	res, err := core.Greedy(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Serve(context.Background(), GroupQuery{Members: groups[1], Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(res.Items) {
		t.Fatalf("selection size %d vs pre-refactor %d", len(got.Items), len(res.Items))
	}
	for k, item := range res.Items {
		if got.Items[k].Item != string(item) || got.Items[k].Score != groupRel[item] {
			t.Fatalf("item %d: got %+v, pre-refactor (%s, %v)", k, got.Items[k], item, groupRel[item])
		}
	}
	if got.Fairness != res.Fairness || got.Value != res.Value {
		t.Errorf("fairness/value (%v,%v) vs pre-refactor (%v,%v)",
			got.Fairness, got.Value, res.Fairness, res.Value)
	}
}

// TestScorerServeEndToEnd: item-cf and profile serve through the
// library path with real selections.
func TestScorerServeEndToEnd(t *testing.T) {
	sys, groups := scorerSystem(t)
	for _, scorer := range []string{"item-cf", "profile"} {
		res, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 5, Scorer: scorer, Explain: true})
		if err != nil {
			t.Fatalf("%s: %v", scorer, err)
		}
		if scorer == "item-cf" && len(res.Items) == 0 {
			t.Errorf("%s: empty selection", scorer)
		}
		for _, it := range res.Items {
			if it.Item == "" {
				t.Fatalf("%s: empty item", scorer)
			}
		}
	}
	// The three scorers are genuinely different backends: user-cf and
	// item-cf disagree somewhere on this data.
	u, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 5})
	if err != nil {
		t.Fatal(err)
	}
	i, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 5, Scorer: "item-cf"})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(u.Items, i.Items) && u.Value == i.Value {
		t.Log("user-cf and item-cf coincide on this instance (unusual but not wrong)")
	}
}

// TestScorerWarmColdBitIdentical: for every scorer, a memo-warm repeat
// and a post-write re-serve must match a from-scratch system over the
// same final data, bit for bit — the scoped-invalidation acceptance
// bar extended to the scoring layer.
func TestScorerWarmColdBitIdentical(t *testing.T) {
	for _, scorer := range scoring.Names() {
		t.Run(scorer, func(t *testing.T) {
			sys, groups := scorerSystem(t)
			q := GroupQuery{Members: groups[2], Z: 5, Scorer: scorer, Explain: true}
			cold, err := sys.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := sys.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Fatal("memo-warm answer diverged from cold")
			}
			// Write, re-serve warm, compare against a fresh system that
			// ingested the same write.
			if err := sys.AddRating(groups[2][0], "doc0042", 4); err != nil {
				t.Fatal(err)
			}
			afterWrite, err := sys.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := scorerSystem(t)
			if err := fresh.AddRating(groups[2][0], "doc0042", 4); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := fresh.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(afterWrite, rebuilt) {
				t.Fatal("post-write warm answer diverged from a cold rebuild")
			}
		})
	}
}

// TestMemoScorersMatchDirectRecommender: the profile, semantic and
// hybrid scorers memoize their measure's pairs and peer sets, and the
// memo may not move a bit. Each scorer's relevances must equal those of
// a direct, unmemoized cf.Recommender over the same measure — cold,
// warm, after rating writes (a newcomer's first rating included) and
// after a profile write.
func TestMemoScorersMatchDirectRecommender(t *testing.T) {
	profileCosine := func(t *testing.T, s *System) *simfn.ProfileCosine {
		t.Helper()
		pc, err := simfn.BuildProfileCosine(s.profiles, s.ont, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	semantic := func(s *System) simfn.Semantic {
		return simfn.Semantic{Ont: s.ont, Problems: s.profiles.Problems}
	}
	measures := map[string]func(*testing.T, *System) simfn.UserSimilarity{
		"profile":  func(t *testing.T, s *System) simfn.UserSimilarity { return profileCosine(t, s) },
		"semantic": func(_ *testing.T, s *System) simfn.UserSimilarity { return semantic(s) },
		"hybrid": func(t *testing.T, s *System) simfn.UserSimilarity {
			return simfn.Weighted{Components: []simfn.Component{
				{S: s.pearson(), Weight: 1},
				{S: profileCosine(t, s), Weight: 1},
				{S: semantic(s), Weight: 1},
			}}
		},
	}
	for _, scorer := range []string{"profile", "semantic", "hybrid"} {
		t.Run(scorer, func(t *testing.T) {
			sys, groups := scorerSystem(t)
			users := append(append([]string{}, groups[0]...), groups[6]...)
			check := func(stage string) {
				t.Helper()
				direct := &cf.Recommender{
					Store:           sys.ratings,
					Sim:             measures[scorer](t, sys),
					Delta:           sys.cfg.Delta,
					RequirePositive: true,
				}
				scored := 0
				for _, u := range users {
					got, err := sys.MemberRelevances(scorer, u, false)
					if err != nil {
						t.Fatal(err)
					}
					want, err := direct.AllRelevances(model.UserID(u))
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %s scores %d items, direct %d", stage, u, len(got), len(want))
					}
					for item, w := range want {
						if g, ok := got[item]; !ok || math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s: %s/%s = %v (%v), direct %v", stage, u, item, g, ok, w)
						}
					}
					scored += len(want)
				}
				if scored == 0 {
					t.Fatalf("%s: no relevances at all; the check is vacuous", stage)
				}
			}
			check("cold")
			check("warm")
			if err := sys.AddRating(users[0], "doc0003", 5); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddRating(users[4], "doc0042", 1); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddRating("newcomer", "doc0007", 4); err != nil {
				t.Fatal(err)
			}
			check("after rating writes")
			p, err := sys.Patient(users[0])
			if err != nil {
				t.Fatal(err)
			}
			p.ID = users[1]
			if err := sys.AddPatient(p); err != nil {
				t.Fatal(err)
			}
			check("after a profile write")
		})
	}
}

// TestMemoScorersConcurrentServeWrites is the -race test of the
// memoized scorers: readers serve profile, semantic and hybrid groups
// and scrape CacheStats while one writer interleaves rating and profile
// writes (each profile write rebuilds every measure, folding the old
// memo's counters into the lifetime totals). Once quiesced, warm
// answers must equal a cold rebuild's.
func TestMemoScorersConcurrentServeWrites(t *testing.T) {
	scorers := []string{"profile", "semantic", "hybrid"}
	sys, groups := scorerSystem(t)
	users := sys.SortedUsers()
	script := func(s *System) error {
		for n := 0; n < 24; n++ {
			u := users[(7*n)%len(users)]
			if n%6 == 5 {
				p, err := s.Patient(users[n%len(users)])
				if err != nil {
					return err
				}
				p.ID = u
				if err := s.AddPatient(p); err != nil {
					return err
				}
				continue
			}
			if err := s.AddRating(u, fmt.Sprintf("doc%04d", (11*n)%80), float64(1+n%5)); err != nil {
				return err
			}
		}
		return nil
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := range scorers {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				q := GroupQuery{Members: groups[(w+n)%len(groups)], Z: 4, Scorer: scorers[w]}
				if _, err := sys.Serve(context.Background(), q); err != nil {
					t.Errorf("reader %s: %v", scorers[w], err)
					return
				}
				_ = sys.CacheStats()
			}
		}(w)
	}
	err := script(sys)
	close(done)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := scorerSystem(t)
	if err := script(fresh); err != nil {
		t.Fatal(err)
	}
	for _, scorer := range scorers {
		for _, g := range groups {
			q := GroupQuery{Members: g, Z: 4, Scorer: scorer, Explain: true}
			warm, err := sys.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fresh.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s %v: post-quiesce warm answer diverged from cold rebuild", scorer, g)
			}
		}
	}
}

// TestScorerBatchStreamMixed: one batch mixes scorers per entry, and
// every entry matches its single-shot Serve.
func TestScorerBatchStreamMixed(t *testing.T) {
	sys, groups := scorerSystem(t)
	queries := []GroupQuery{
		{Members: groups[0], Z: 4},
		{Members: groups[1], Z: 4, Scorer: "item-cf"},
		{Members: groups[2], Z: 4, Scorer: "profile"},
		{Members: groups[3], Z: 4, Scorer: "user-cf", Method: MethodBrute, BruteM: 10},
	}
	want := make([]*GroupResult, len(queries))
	for k, q := range queries {
		r, err := sys.Serve(context.Background(), q)
		if err != nil {
			t.Fatalf("single %d: %v", k, err)
		}
		want[k] = r
	}
	batch, err := sys.ServeBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range batch {
		if e.Err != nil {
			t.Fatalf("batch %d: %v", k, e.Err)
		}
		if !reflect.DeepEqual(e.Result, want[k]) {
			t.Errorf("batch %d diverged from single-shot", k)
		}
	}
	got := make([]*GroupResult, len(queries))
	err = sys.ServeStream(context.Background(), queries, func(e BatchGroupResult) error {
		if e.Err != nil {
			return e.Err
		}
		got[e.Index] = e.Result
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range queries {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("stream %d diverged from single-shot", k)
		}
	}
}

// TestScorerValidation: the Scorer field is validated like
// Method/Aggregation — unknown names and unsupported combinations are
// ErrBadQuery before any work starts, and Config.Scorer is validated
// at New.
func TestScorerValidation(t *testing.T) {
	sys, groups := scorerSystem(t)
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Scorer: "psychic"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("unknown scorer err = %v, want ErrBadQuery", err)
	}
	if err := (GroupQuery{Members: []string{"a"}, Scorer: "psychic"}).Validate(); !errors.Is(err, ErrBadQuery) {
		t.Error("Validate accepted an unknown scorer")
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{
		Members: groups[0], Method: "mapreduce", Scorer: "item-cf",
	}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("mapreduce+item-cf err = %v, want ErrBadQuery", err)
	}
	if _, err := New(Config{Scorer: "psychic"}); !errors.Is(err, ErrBadConfig) {
		t.Error("New accepted an unknown default scorer")
	}
	// A configured default scorer applies to scorerless queries...
	cfg, err := New(Config{Scorer: "item-cf"})
	if err != nil {
		t.Fatal(err)
	}
	defer cfg.Close()
	if got := cfg.Config().Scorer; got != "item-cf" {
		t.Errorf("configured scorer = %q", got)
	}
	// ...and makes a scorerless mapreduce query invalid.
	if _, err := cfg.Serve(context.Background(), GroupQuery{
		Members: []string{"a"}, Method: "mapreduce",
	}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("mapreduce under item-cf default err = %v, want ErrBadQuery", err)
	}
	if scoring.DefaultName != "user-cf" {
		t.Errorf("default scorer = %q, want user-cf", scoring.DefaultName)
	}
}

// TestConfigScorerDefaultApplied: a system configured with an item-cf
// default serves scorerless queries identically to naming item-cf
// explicitly on a default system.
func TestConfigScorerDefaultApplied(t *testing.T) {
	sys, groups := scorerSystem(t)
	explicit, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4, Scorer: "item-cf"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Delta: 0.3, MinOverlap: 3, K: 8, Scorer: "item-cf"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Users: 40, Items: 80, RatingsPerUser: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := other.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	viaDefault, err := other.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, viaDefault) {
		t.Error("configured default scorer diverged from the explicit query field")
	}
}

// TestProfileScorerSeesFirstTimeRater: a patient with a profile but no
// ratings is outside the peer-scan candidate universe (Store.Users());
// their first ratings must reach warm profile peer sets — the provider
// evicts the touched users' sets on rating writes — so a warm re-serve
// stays bit-identical to a fresh system over the same data.
func TestProfileScorerSeesFirstTimeRater(t *testing.T) {
	serve := func(sys *System, group []string) *GroupResult {
		t.Helper()
		res, err := sys.Serve(context.Background(), GroupQuery{Members: group, Z: 5, Scorer: "profile", Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sys, groups := scorerSystem(t)
	group := groups[0]
	// The newcomer clones a member's profile, so profile-cosine ranks
	// them a strong peer the moment they enter the candidate universe.
	member, err := sys.Patient(group[0])
	if err != nil {
		t.Fatal(err)
	}
	latecomer := member
	latecomer.ID = "latecomer"
	firstRatings := []string{"doc0001", "doc0002", "doc0003", "doc0004", "doc0005"}
	seedNewcomer := func(s *System, withRatings bool) {
		t.Helper()
		if err := s.AddPatient(latecomer); err != nil {
			t.Fatal(err)
		}
		if !withRatings {
			return
		}
		for i, item := range firstRatings {
			if err := s.AddRating("latecomer", item, float64(2+i%4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedNewcomer(sys, false)
	serve(sys, group) // warms the peer sets while the latecomer has no ratings
	for i, item := range firstRatings {
		if err := sys.AddRating("latecomer", item, float64(2+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	warmAfter := serve(sys, group)

	fresh, _ := scorerSystem(t)
	seedNewcomer(fresh, true)
	cold := serve(fresh, group)
	if !reflect.DeepEqual(warmAfter, cold) {
		t.Error("warm profile serve after a first-time rater diverged from a cold rebuild")
	}
}

// TestGroupKeyInjective: the memo key is length-prefixed, so member
// IDs containing separator-looking bytes can never alias another
// group's entry (a member "a\x1eb" vs the group ["a","b"]).
func TestGroupKeyInjective(t *testing.T) {
	cases := [][]model.Group{
		{model.Group{"a\x1eb"}, model.Group{"a", "b"}},
		{model.Group{"a\x1fb"}, model.Group{"a", "b"}},
		{model.Group{"a", "b\x1ec"}, model.Group{"a\x1eb", "c"}},
		{model.Group{"2:a"}, model.Group{"a"}},
	}
	for _, c := range cases {
		if groupKey("user-cf", c[0], "avg", 8, false) == groupKey("user-cf", c[1], "avg", 8, false) {
			t.Errorf("groups %q and %q collide", c[0], c[1])
		}
	}
	// Same group, different knobs: all distinct.
	g := model.Group{"a", "b"}
	keys := map[string]string{
		"scorer": groupKey("item-cf", g, "avg", 8, false),
		"aggr":   groupKey("user-cf", g, "min", 8, false),
		"k":      groupKey("user-cf", g, "avg", 9, false),
		"approx": groupKey("user-cf", g, "avg", 8, true),
	}
	base := groupKey("user-cf", g, "avg", 8, false)
	for knob, k := range keys {
		if k == base {
			t.Errorf("changing %s did not change the key", knob)
		}
	}
}

// TestGroupMemoCollisionServing drives the aliasing end to end: a
// patient whose ID embeds the old separator byte must get their own
// results, not the two-member group's memo entry.
func TestGroupMemoCollisionServing(t *testing.T) {
	sys, err := New(Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	weird := "g1\x1eg2"
	for _, r := range []struct {
		u, i string
		v    float64
	}{
		{"g1", "q1", 5}, {"g1", "q2", 1}, {"g1", "q3", 3},
		{"g2", "q1", 5}, {"g2", "q2", 1}, {"g2", "q3", 3},
		{weird, "q1", 1}, {weird, "q2", 5}, {weird, "q4", 4},
		{"x", "q1", 5}, {"x", "q2", 1}, {"x", "q3", 3}, {"x", "q4", 4},
	} {
		if err := sys.AddRating(r.u, r.i, r.v); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := sys.Serve(context.Background(), GroupQuery{Members: []string{"g1", "g2"}, Z: 3})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sys.Serve(context.Background(), GroupQuery{Members: []string{weird}, Z: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pair, solo) {
		t.Error("the weird-ID singleton was served the two-member group's memo entry")
	}
}

// TestItemCFConcurrentServeWrites exercises the item-cf provider's
// patch-on-read invalidation under concurrent Serve traffic and rating
// writes (run under -race in CI): two writers add ratings on new and
// existing items and take some back, so reads meet dirty sets of one
// and of several users, and a patch can race the next write. Once
// writes quiesce, served answers must be bit-identical to a fresh
// system over the final data.
func TestItemCFConcurrentServeWrites(t *testing.T) {
	sys, groups := scorerSystem(t)
	users := sys.SortedUsers()
	// Writer w owns the users with index ≡ w (mod 2), so the final
	// ratings do not depend on how the two interleave.
	script := func(w int, apply func(remove bool, user, item string, value float64) error) error {
		rng := rand.New(rand.NewSource(99 + int64(w)))
		type written struct{ user, item string }
		var mine []written
		for n := 0; n < 60; n++ {
			if len(mine) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(mine))
				if err := apply(true, mine[k].user, mine[k].item, 0); err != nil {
					return err
				}
				mine = append(mine[:k], mine[k+1:]...)
				continue
			}
			u := users[2*rng.Intn(len(users)/2)+w]
			item := fmt.Sprintf("racedoc%02d", rng.Intn(10))
			if rng.Intn(2) == 0 {
				item = fmt.Sprintf("doc%04d", rng.Intn(80))
			}
			if err := apply(false, u, item, float64(1+n%5)); err != nil {
				return err
			}
			if !slices.Contains(mine, written{u, item}) {
				mine = append(mine, written{u, item})
			}
		}
		return nil
	}
	applyTo := func(s *System) func(bool, string, string, float64) error {
		return func(remove bool, user, item string, value float64) error {
			if remove {
				return s.RemoveRating(user, item)
			}
			return s.AddRating(user, item, value)
		}
	}

	var readers, writers sync.WaitGroup
	writersDone := make(chan struct{})
	// Readers hammer item-cf (and the profile scorer for cross-provider
	// interleaving) until the writers finish.
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			scorers := []string{"item-cf", "profile", "item-cf"}
			for n := 0; ; n++ {
				select {
				case <-writersDone:
					return
				default:
				}
				q := GroupQuery{Members: groups[(w+n)%len(groups)], Z: 4, Scorer: scorers[w]}
				if _, err := sys.Serve(context.Background(), q); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			if err := script(w, applyTo(sys)); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	writers.Wait()
	close(writersDone)
	readers.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: warm answers must equal a cold rebuild over the final
	// ratings.
	fresh, _ := scorerSystem(t)
	for w := 0; w < 2; w++ {
		if err := script(w, applyTo(fresh)); err != nil {
			t.Fatal(err)
		}
	}
	for _, scorer := range []string{"item-cf", "profile", "user-cf"} {
		for _, g := range groups {
			q := GroupQuery{Members: g, Z: 4, Scorer: scorer, Explain: true}
			warm, err := sys.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fresh.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s %v: post-quiesce warm answer diverged from cold rebuild", scorer, g)
			}
		}
	}
}
