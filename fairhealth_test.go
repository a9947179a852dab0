package fairhealth

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fairhealth/internal/dataset"
	"fairhealth/internal/model"
	"fairhealth/internal/mrpipeline"
)

// seedCommunity loads a small deterministic world: two like-minded
// members (g1, g2), an agreeing peer p1, a disagreeing peer p2, and
// candidate documents dA/dB rated only by the peers.
func seedCommunity(t *testing.T, sys *System) {
	t.Helper()
	ratings := []struct {
		u, i string
		v    float64
	}{
		{"g1", "q1", 5}, {"g1", "q2", 1},
		{"g2", "q1", 5}, {"g2", "q2", 1},
		{"p1", "q1", 5}, {"p1", "q2", 1}, {"p1", "dA", 5}, {"p1", "dB", 2},
		{"p2", "q1", 1}, {"p2", "q2", 5}, {"p2", "dA", 1}, {"p2", "dB", 4},
	}
	for _, r := range ratings {
		if err := sys.AddRating(r.u, r.i, r.v); err != nil {
			t.Fatalf("AddRating(%s,%s): %v", r.u, r.i, err)
		}
	}
}

func newRatingsSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Delta != 0.5 || cfg.MinOverlap != 2 || cfg.K != 10 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Similarity != SimilarityRatings || cfg.Aggregation != "avg" {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Delta: 1.5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad delta: %v", err)
	}
	if _, err := New(Config{Similarity: "telepathy"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad similarity: %v", err)
	}
	if _, err := New(Config{Aggregation: "sum"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad aggregation: %v", err)
	}
}

func TestAddRatingValidation(t *testing.T) {
	sys := newRatingsSystem(t)
	if err := sys.AddRating("u", "d", 9); err == nil {
		t.Error("out-of-range rating accepted")
	}
	if err := sys.AddRating("", "d", 3); err == nil {
		t.Error("empty user accepted")
	}
}

func TestStatsAndTriples(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	st := sys.Stats()
	if st.Users != 4 || st.Items != 4 || st.Ratings != 12 {
		t.Errorf("stats = %+v", st)
	}
	ts := sys.RatingTriples()
	if len(ts) != 12 {
		t.Errorf("triples = %d", len(ts))
	}
	if ts[0].User != "g1" {
		t.Errorf("triples not ordered: %+v", ts[0])
	}
	if got := sys.SortedUsers(); len(got) != 4 || got[0] != "g1" {
		t.Errorf("SortedUsers = %v", got)
	}
}

func TestLoadRatingsCSV(t *testing.T) {
	sys := newRatingsSystem(t)
	n, err := sys.LoadRatingsCSV(strings.NewReader("u1,d1,4\nu2,d1,5\n"))
	if err != nil || n != 2 {
		t.Fatalf("LoadRatingsCSV = %d, %v", n, err)
	}
	if sys.Stats().Ratings != 2 {
		t.Error("ratings not loaded")
	}
	if _, err := sys.LoadRatingsCSV(strings.NewReader("u1,d1\n")); err == nil {
		t.Error("malformed csv accepted")
	}
}

func TestPeersAndSimilarity(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	peers, err := sys.Peers("g1")
	if err != nil {
		t.Fatal(err)
	}
	// p1 and g2 correlate perfectly with g1; p2 anti-correlates
	found := map[string]bool{}
	for _, p := range peers {
		found[p.User] = true
		if p.User == "p2" {
			t.Error("anti-correlated p2 in peers")
		}
	}
	if !found["p1"] || !found["g2"] {
		t.Errorf("peers = %+v, want p1 and g2", peers)
	}
	sim, ok, err := sys.SimilarityBetween("g1", "p1")
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	// hand-computed Eq. 2: co-rated {q1,q2}; g1 centered ±2 (μ=3), p1
	// centered +1.75/−2.25 (μ=3.25) → r = 8/√65; normalized (r+1)/2.
	want := (8/math.Sqrt(65) + 1) / 2
	if math.Abs(sim-want) > 1e-9 {
		t.Errorf("sim(g1,p1) = %v, want %v", sim, want)
	}
}

func TestRecommendPersonal(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	recs, err := sys.Recommend("g1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Item != "dA" {
		t.Errorf("Recommend = %+v, want dA first (peer p1 loves it)", recs)
	}
	if recs[0].Score != 5 {
		t.Errorf("score = %v, want 5 (only peer p1 rated dA among peers)", recs[0].Score)
	}
}

func TestGroupRecommend(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	res, err := sys.Serve(context.Background(), greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("items = %+v", res.Items)
	}
	if res.Fairness != 1 {
		t.Errorf("fairness = %v, want 1 (z ≥ |G|, Prop. 1)", res.Fairness)
	}
	if res.Value <= 0 {
		t.Errorf("value = %v", res.Value)
	}
	if len(res.PerMember["g1"]) == 0 || len(res.PerMember["g2"]) == 0 {
		t.Error("PerMember lists missing")
	}
	// duplicate member IDs collapse
	res2, err := sys.Serve(context.Background(), greedyQuery([]string{"g1", "g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.PerMember) != 2 {
		t.Errorf("dedup failed: %v", res2.PerMember)
	}
}

func TestGroupRecommendErrors(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	if _, err := sys.Serve(context.Background(), greedyQuery(nil, 3)); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("empty group: %v", err)
	}
	// z=0 means DefaultZ under the shared validator; negative z is the
	// invalid case and reports ErrBadQuery.
	if res, err := sys.Serve(context.Background(), greedyQuery([]string{"g1"}, 0)); err != nil || len(res.Items) == 0 {
		t.Errorf("z=0 should default to %d: res=%+v err=%v", DefaultZ, res, err)
	}
	if _, err := sys.Serve(context.Background(), greedyQuery([]string{"g1"}, -1)); !errors.Is(err, ErrBadQuery) {
		t.Errorf("z=-1 error = %v, want ErrBadQuery", err)
	}
	if _, err := sys.Serve(context.Background(), greedyQuery([]string{"ghost-user"}, 3)); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("unknown member error = %v, want ErrUnknownPatient", err)
	}
}

func TestGroupRecommendBruteForceAgreesOnFairness(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	greedy, err := sys.Serve(context.Background(), greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	brute, err := sys.Serve(context.Background(), GroupQuery{
		Members: []string{"g1", "g2"}, Z: 2, Method: MethodBrute, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if brute.Fairness != greedy.Fairness {
		t.Errorf("fairness differs: brute %v vs greedy %v (paper §VI: identical)", brute.Fairness, greedy.Fairness)
	}
	if brute.Value+1e-9 < greedy.Value {
		t.Errorf("brute force value %v below greedy %v", brute.Value, greedy.Value)
	}
	if brute.Combinations == 0 {
		t.Error("brute force reported no enumerations")
	}
}

func TestGroupTopZIgnoresFairness(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	plain, err := sys.GroupTopZ([]string{"g1", "g2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Item != "dA" {
		t.Errorf("GroupTopZ = %+v, want dA", plain)
	}
}

// TestGroupRecommendMapReduceMatchesDirect runs the §IV pipeline over
// the System's own rating triples, under the System's δ, overlap and
// K, and checks it selects what Serve's greedy path selects.
func TestGroupRecommendMapReduceMatchesDirect(t *testing.T) {
	sys := newRatingsSystem(t)
	seedCommunity(t, sys)
	ctx := context.Background()
	direct, err := sys.Serve(ctx, greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := mrpipeline.Run(ctx, sys.ratings.Triples(), mrpipeline.Config{
		Group:      model.Group{"g1", "g2"},
		Delta:      sys.cfg.Delta,
		MinOverlap: sys.cfg.MinOverlap,
		K:          sys.cfg.K,
		Z:          2,
		Aggregator: sys.cfg.Aggregation,
	})
	if err != nil {
		t.Fatal(err)
	}
	mr := out.Fair
	if mr.Fairness != direct.Fairness {
		t.Errorf("fairness: MR %v vs direct %v", mr.Fairness, direct.Fairness)
	}
	if math.Abs(mr.Value-direct.Value) > 1e-9 {
		t.Errorf("value: MR %v vs direct %v", mr.Value, direct.Value)
	}
	if len(mr.Items) != len(direct.Items) {
		t.Fatalf("items: MR %v vs direct %v", mr.Items, direct.Items)
	}
	for k := range mr.Items {
		if string(mr.Items[k]) != direct.Items[k].Item {
			t.Errorf("item %d: MR %v vs direct %v", k, mr.Items[k], direct.Items[k])
		}
	}
}

func TestPatientLifecycle(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := Patient{
		ID: "alice", Age: 40, Gender: "female",
		Problems:    []string{"10509002"}, // acute bronchitis
		Medications: []string{"Ramipril 10 MG Oral Capsule"},
	}
	if err := sys.AddPatient(p); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Patient("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Age != 40 || got.Problems[0] != "10509002" {
		t.Errorf("patient = %+v", got)
	}
	// update in place
	p.Age = 41
	if err := sys.AddPatient(p); err != nil {
		t.Fatal(err)
	}
	got, _ = sys.Patient("alice")
	if got.Age != 41 {
		t.Errorf("age after update = %d", got.Age)
	}
	if _, err := sys.Patient("ghost"); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("unknown patient: %v", err)
	}
	if ids := sys.Patients(); len(ids) != 1 || ids[0] != "alice" {
		t.Errorf("Patients = %v", ids)
	}
	// invalid problem code rejected by the ontology-backed store
	if err := sys.AddPatient(Patient{ID: "bob", Problems: []string{"not-a-code"}}); err == nil {
		t.Error("invalid problem code accepted")
	}
}

func TestSemanticSimilaritySystem(t *testing.T) {
	sys, err := New(Config{Similarity: SimilaritySemantic, Delta: 0.2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Table I patients
	for _, p := range []Patient{
		{ID: "patient1", Age: 40, Gender: "female", Problems: []string{"10509002"}},         // acute bronchitis
		{ID: "patient2", Age: 53, Gender: "male", Problems: []string{"29857009"}},           // chest pain
		{ID: "patient3", Age: 34, Gender: "male", Problems: []string{"7001023", "7004001"}}, // tracheobronchitis + broken arm
	} {
		if err := sys.AddPatient(p); err != nil {
			t.Fatal(err)
		}
	}
	s13, ok13, err := sys.SimilarityBetween("patient1", "patient3")
	if err != nil || !ok13 {
		t.Fatal(err, ok13)
	}
	s12, ok12, err := sys.SimilarityBetween("patient1", "patient2")
	if err != nil || !ok12 {
		t.Fatal(err, ok12)
	}
	if s13 <= s12 {
		t.Errorf("semantic sim(P1,P3)=%v must exceed sim(P1,P2)=%v (Table I)", s13, s12)
	}
}

func TestProfileSimilarityRebuildsAfterUpdate(t *testing.T) {
	sys, err := New(Config{Similarity: SimilarityProfile, Delta: 0.1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id string, problems ...string) {
		t.Helper()
		if err := sys.AddPatient(Patient{ID: id, Problems: problems}); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "10509002") // acute bronchitis
	add("b", "29857009") // chest pain
	add("c", "44054006") // diabetes type 2 (needed so idf ≠ 0 everywhere)
	s1, ok, err := sys.SimilarityBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	_ = ok
	// now make b's profile identical to a's — similarity must jump to 1
	if err := sys.AddPatient(Patient{ID: "b", Problems: []string{"10509002"}}); err != nil {
		t.Fatal(err)
	}
	s2, ok2, err := sys.SimilarityBetween("a", "b")
	if err != nil || !ok2 {
		t.Fatal(err, ok2)
	}
	if math.Abs(s2-1) > 1e-9 {
		t.Errorf("identical profiles similarity = %v, want 1 (stale cache?)", s2)
	}
	if s2 <= s1 {
		t.Errorf("similarity should increase after matching profiles: %v → %v", s1, s2)
	}
}

func TestConceptHelpers(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	name, ok := sys.ConceptName("10509002")
	if !ok || name != "Acute bronchitis" {
		t.Errorf("ConceptName = %q,%v", name, ok)
	}
	if _, ok := sys.ConceptName("zzz"); ok {
		t.Error("unknown concept resolved")
	}
	d, err := sys.ProblemDistance("10509002", "29857009")
	if err != nil || d != 5 {
		t.Errorf("ProblemDistance = %d,%v want 5 (paper §V.C)", d, err)
	}
}

// TestEndToEndOnSyntheticDataset wires the facade to the dataset
// generator the way the examples do, and sanity-checks the full flow.
func TestEndToEndOnSyntheticDataset(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 21, Users: 40, Items: 60, RatingsPerUser: 25, Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{MinOverlap: 3, K: 8, Delta: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	g := ds.MixedGroup(3, 3)
	users := make([]string, len(g))
	for k, u := range g {
		users[k] = string(u)
	}
	res, err := sys.Serve(context.Background(), greedyQuery(users, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("no recommendations on synthetic dataset")
	}
	if res.Fairness != 1 {
		t.Errorf("fairness = %v, want 1 (z=6 ≥ |G|=3)", res.Fairness)
	}
	for _, it := range res.Items {
		if it.Score < 1 || it.Score > 5 {
			t.Errorf("group score %v outside rating range", it.Score)
		}
	}
}

func TestSearchDocuments(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("d1", "Chemotherapy nausea tips", "nausea ginger relief"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("d2", "Knee rehabilitation", "knee exercises strength"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("d1", "dup", ""); err == nil {
		t.Error("duplicate document accepted")
	}
	hits := sys.SearchDocuments("nausea", 5)
	if len(hits) != 1 || hits[0].Item != "d1" {
		t.Fatalf("hits = %+v", hits)
	}
	if title, ok := sys.DocumentTitle("d2"); !ok || title != "Knee rehabilitation" {
		t.Errorf("title = %q,%v", title, ok)
	}
	if sys.Stats().Documents != 2 {
		t.Errorf("Documents = %d", sys.Stats().Documents)
	}
	if hits := sys.SearchDocuments("zebra", 5); len(hits) != 0 {
		t.Errorf("no-match hits = %v", hits)
	}
}

func TestPersistentSystemSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewPersistent(Config{MinOverlap: 1, K: 5}, dir)
	if err != nil {
		t.Fatal(err)
	}
	seedCommunity(t, sys)
	if err := sys.AddPatient(Patient{ID: "g1", Age: 50, Gender: "female", Problems: []string{"10509002"}}); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Serve(context.Background(), greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// reboot
	sys2, err := NewPersistent(Config{MinOverlap: 1, K: 5}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	st := sys2.Stats()
	if st.Ratings != 12 || st.Patients != 1 {
		t.Fatalf("restored stats = %+v", st)
	}
	p, err := sys2.Patient("g1")
	if err != nil || p.Age != 50 {
		t.Fatalf("restored patient = %+v, %v", p, err)
	}
	got, err := sys2.Serve(context.Background(), greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Fairness != want.Fairness {
		t.Errorf("recommendations differ after restart: %+v vs %+v", got, want)
	}
}

func TestPersistentRemoveRatingAndCompact(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewPersistent(Config{MinOverlap: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRating("u1", "d1", 4); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRating("u1", "d2", 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveRating("u1", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveRating("u1", "zz"); err == nil {
		t.Error("removing unknown rating succeeded")
	}
	n, err := sys.CompactLog()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("compacted records = %d, want 1 (one live rating)", n)
	}
	// appends still work post-compaction
	if err := sys.AddRating("u2", "d9", 3); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys2, err := NewPersistent(Config{MinOverlap: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	st := sys2.Stats()
	if st.Ratings != 2 {
		t.Errorf("ratings after reboot = %d, want 2", st.Ratings)
	}
}

func TestInMemorySystemCompactErrors(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompactLog(); err == nil {
		t.Error("CompactLog on in-memory system succeeded")
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close on in-memory system: %v", err)
	}
}

func TestConsensusAggregationEndToEnd(t *testing.T) {
	sys, err := New(Config{MinOverlap: 1, K: 5, Aggregation: "consensus"})
	if err != nil {
		t.Fatal(err)
	}
	seedCommunity(t, sys)
	res, err := sys.Serve(context.Background(), greedyQuery([]string{"g1", "g2"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 || res.Fairness != 1 {
		t.Errorf("consensus result = %+v", res)
	}
	// A per-query aggregation override can use the paper's semantics on
	// the same system without rebuilding it.
	avg, err := sys.Serve(context.Background(), GroupQuery{
		Members: []string{"g1", "g2"}, Z: 2, Aggregation: "avg",
	})
	if err != nil {
		t.Fatalf("per-query avg: %v", err)
	}
	if len(avg.Items) != 2 {
		t.Errorf("per-query avg items = %+v", avg.Items)
	}
}

func TestProfileCorrespondencesEndToEnd(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Patient{
		{ID: "p1", Problems: []string{"10509002"}},
		{ID: "p3", Problems: []string{"7001023", "7004001"}},
	} {
		if err := sys.AddPatient(p); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := sys.ProfileCorrespondences("p1", "p3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Distance != 2 {
		t.Fatalf("correspondences = %+v", cs)
	}
	if cs[0].Explanation == "" || cs[0].CommonAncestor == "" {
		t.Errorf("incomplete correspondence: %+v", cs[0])
	}
	if _, err := sys.ProfileCorrespondences("p1", "ghost"); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("unknown patient: %v", err)
	}
}

func TestSearchPersonalizedEndToEnd(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPatient(Patient{ID: "p1", Problems: []string{"10509002"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("resp", "Bronchitis care", "bronchitis recovery cough"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("gen", "General recovery", "recovery rest sleep"); err != nil {
		t.Fatal(err)
	}
	hits, err := sys.SearchPersonalized("p1", "recovery", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Item != "resp" {
		t.Errorf("personalized hits = %+v, want resp first", hits)
	}
	if _, err := sys.SearchPersonalized("ghost", "recovery", 5, 2); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("unknown patient: %v", err)
	}
}
