package scoring

import (
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"fairhealth/internal/cf"
	"fairhealth/internal/dataset"
	"fairhealth/internal/itemcf"
	"fairhealth/internal/model"
	"fairhealth/internal/simfn"
	"fairhealth/internal/snomed"
)

// builtins are the scorers the package registers itself, captured
// before any test registers its own.
var builtins []string

func TestMain(m *testing.M) {
	builtins = Names()
	os.Exit(m.Run())
}

func testDeps(t *testing.T) Deps {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 7, Users: 30, Items: 60, RatingsPerUser: 20})
	if err != nil {
		t.Fatal(err)
	}
	sim := simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: ds.Ratings, MinOverlap: 2}})
	// δ=0.2: low enough that profile-cosine peers exist on the
	// generated profiles, so every provider produces real predictions.
	return Deps{
		Ratings:    ds.Ratings,
		Profiles:   ds.Profiles,
		Ontology:   snomed.Load(),
		Delta:      0.2,
		MinOverlap: 2,
		UserCF: func() (*cf.Recommender, error) {
			return &cf.Recommender{Store: ds.Ratings, Sim: sim, Delta: 0.2, RequirePositive: true}, nil
		},
	}
}

func TestRegistryBuiltins(t *testing.T) {
	want := []string{NameHybrid, NameItemCF, NameProfile, NameSemantic, NameUserCF}
	if !reflect.DeepEqual(builtins, want) {
		t.Errorf("built-in scorers = %v, want %v", builtins, want)
	}
	if Registered("no-such-scorer") {
		t.Error("unregistered name reported as registered")
	}
	if _, err := New("no-such-scorer", Deps{}); !errors.Is(err, ErrUnknownScorer) {
		t.Errorf("New(unknown) err = %v, want ErrUnknownScorer", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(NameUserCF, func(Deps) Provider { return nil })
}

// constProvider scores every user with a fixed map — an Assemble test
// double and the registry-extension example.
type constProvider struct {
	name   string
	scores map[model.UserID]map[model.ItemID]float64
	err    error
}

func (p *constProvider) Name() string { return p.name }
func (p *constProvider) Relevances(u model.UserID) (map[model.ItemID]float64, error) {
	return p.scores[u], p.err
}
func (p *constProvider) Relevance(u model.UserID, i model.ItemID) (float64, bool, error) {
	s, ok := p.scores[u][i]
	return s, ok, p.err
}
func (p *constProvider) InvalidateUsers([]model.UserID) {}
func (p *constProvider) InvalidateAll()                 {}
func (p *constProvider) Close()                         {}

func TestRegisterCustomScorer(t *testing.T) {
	Register("test-constant", func(Deps) Provider {
		return &constProvider{name: "test-constant"}
	})
	if !Registered("test-constant") {
		t.Fatal("custom scorer not visible after Register")
	}
	p, err := New("test-constant", Deps{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "test-constant" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestAssembleIntersectsDefinedPredictions(t *testing.T) {
	p := &constProvider{scores: map[model.UserID]map[model.ItemID]float64{
		"a": {"i1": 1, "i2": 2, "i3": 3},
		"b": {"i1": 4, "i3": 5}, // no i2 → i2 is not a candidate
	}}
	got, err := Assemble(p, model.Group{"a", "b"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantItems := map[model.ItemID][]float64{"i1": {1, 4}, "i3": {3, 5}}
	if !reflect.DeepEqual(got.Items, wantItems) {
		t.Errorf("Items = %v, want %v", got.Items, wantItems)
	}
	if got.PerUser["b"]["i3"] != 5 || len(got.PerUser["a"]) != 2 {
		t.Errorf("PerUser = %v", got.PerUser)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(&constProvider{}, nil, 1); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("empty group err = %v, want ErrEmptyGroup", err)
	}
	boom := errors.New("boom")
	p := &constProvider{err: boom}
	if _, err := Assemble(p, model.Group{"a"}, 1); !errors.Is(err, boom) {
		t.Errorf("member error not propagated: %v", err)
	}
}

// TestAssembleParallelMatchesSerial: the worker fan-out may not change
// a single bit of any assembled score.
func TestAssembleParallelMatchesSerial(t *testing.T) {
	d := testDeps(t)
	for _, name := range builtins {
		p, err := New(name, d)
		if err != nil {
			t.Fatal(err)
		}
		g := model.Group{"patient0001", "patient0003", "patient0005", "patient0007"}
		serial, err := Assemble(p, g, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallel, err := Assemble(p, g, 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel assembly diverged from serial", name)
		}
		if len(serial.Items) == 0 {
			t.Errorf("%s: no candidates assembled", name)
		}
		p.Close()
	}
}

// TestUserCFMatchesRecommenderDirect: the user-cf provider is a pure
// delegate — its relevances must be the recommender's, bit for bit.
func TestUserCFMatchesRecommenderDirect(t *testing.T) {
	d := testDeps(t)
	p, err := New(NameUserCF, d)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec, err := d.UserCF()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.AllRelevances("patient0002")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Relevances("patient0002")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("user-cf provider diverged from the direct recommender")
	}
}

// TestItemCFLazyBuildAndInvalidation: the neighbor model is built on
// first use, survives unrelated calls warm, and a write-scoped
// invalidation rebuilds it so answers match a from-scratch model.
func TestItemCFLazyBuildAndInvalidation(t *testing.T) {
	d := testDeps(t)
	p, err := New(NameItemCF, d)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before, err := p.Relevances("patient0004")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("item-cf produced no predictions")
	}
	// Mutate the store — removing one of the user's ratings both frees
	// that item up as a candidate and drops its term from every other
	// prediction's accumulation, so the user's own map MUST change —
	// route the write like the owner would, and compare against a
	// model built from scratch over the final data.
	removed := d.Ratings.ItemsRatedBy("patient0004")[0]
	if err := d.Ratings.Remove("patient0004", removed); err != nil {
		t.Fatal(err)
	}
	p.InvalidateUsers([]model.UserID{"patient0004"})
	after, err := p.Relevances("patient0004")
	if err != nil {
		t.Fatal(err)
	}
	fresh := &itemcf.Recommender{Store: d.Ratings, MinOverlap: d.MinOverlap}
	if err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AllRelevances("patient0004")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Error("post-invalidation item-cf answers diverge from a cold rebuild")
	}
	if reflect.DeepEqual(before, after) {
		t.Error("item-cf answers unchanged after a write + invalidation")
	}
}

// TestProfileProviderRebuildsOnInvalidateAll: profile writes flush the
// corpus; rating writes evict only the touched users' peer sets (the
// similarity memo stays warm — profile cosine is profile-only).
func TestProfileProviderRebuildsOnInvalidateAll(t *testing.T) {
	d := testDeps(t)
	p, err := New(NameProfile, d)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before, err := p.Relevances("patient0006")
	if err != nil {
		t.Fatal(err)
	}
	// A rating write: same peer sets, relevance recomputed live.
	if err := d.Ratings.Add("patient0009", "newdoc", 4); err != nil {
		t.Fatal(err)
	}
	p.InvalidateUsers([]model.UserID{"patient0009"})
	p.InvalidateAll()
	after, err := p.Relevances("patient0006")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("profile scorer produced no predictions: before %d after %d", len(before), len(after))
	}
}

// TestProviderDeterminism: repeated calls must return bit-identical
// maps — the contract the group-input memo depends on.
func TestProviderDeterminism(t *testing.T) {
	d := testDeps(t)
	for _, name := range builtins {
		p, err := New(name, d)
		if err != nil {
			t.Fatal(err)
		}
		u := model.UserID("patient0008")
		first, err := p.Relevances(u)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			again, err := p.Relevances(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: run %d diverged", name, run)
			}
		}
		// Point relevance agrees with the bulk map on a few items (to a
		// float tolerance: the item-cf point path accumulates the same
		// terms through the neighbor list of the item rather than of
		// the user's rated items, so the summation order differs).
		n := 0
		for item, want := range first {
			got, ok, err := p.Relevance(u, item)
			if err != nil || !ok || math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: Relevance(%s,%s) = (%v,%v,%v), want (%v,true,nil)",
					name, u, item, got, ok, err, want)
			}
			if n++; n == 5 {
				break
			}
		}
		p.Close()
	}
}
