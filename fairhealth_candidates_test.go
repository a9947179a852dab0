package fairhealth

// The candidate-index equivalence suite: with Config.CandidateIndex on,
// exact-mode serving must stay bit-identical to an index-less system —
// across solver methods and scorers, cold and warm, before and after
// writes — because exact queries never consult the index. Approx mode
// is opt-in, validated, and held to a recall floor against exact
// answers on seeded data.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fairhealth/internal/dataset"
)

// candidateSystem seeds a System from the same generated dataset as
// scorerSystem, under an arbitrary config — so an index-on and an
// index-off system see byte-identical writes.
func candidateSystem(t *testing.T, cfg Config) (*System, [][]string) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Users: 40, Items: 80, RatingsPerUser: 25})
	if err != nil {
		t.Fatal(err)
	}
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

func candidateConfigs() (off, on Config) {
	off = Config{Delta: 0.3, MinOverlap: 3, K: 8}
	on = off
	on.CandidateIndex = true
	return off, on
}

// TestCandidateIndexExactBitIdentical: every solver method × scorer
// answers identically with the index on and off, and the warm (second)
// answer is identical to the cold one under the index.
func TestCandidateIndexExactBitIdentical(t *testing.T) {
	offCfg, onCfg := candidateConfigs()
	sysOff, groups := candidateSystem(t, offCfg)
	sysOn, _ := candidateSystem(t, onCfg)
	ctx := context.Background()
	for _, scorer := range []string{"user-cf", "profile"} {
		for _, method := range []Method{MethodGreedy, MethodBrute} {
			q := GroupQuery{Members: groups[0], Z: 5, Method: method, Scorer: scorer, Explain: true}
			if method == MethodBrute {
				q.BruteM = 12
			}
			name := fmt.Sprintf("%s/%s", scorer, method)
			want, err := sysOff.Serve(ctx, q)
			if err != nil {
				t.Fatalf("%s index-off: %v", name, err)
			}
			cold, err := sysOn.Serve(ctx, q)
			if err != nil {
				t.Fatalf("%s index-on cold: %v", name, err)
			}
			if !reflect.DeepEqual(want, cold) {
				t.Errorf("%s: exact serving diverged with the candidate index on", name)
			}
			warm, err := sysOn.Serve(ctx, q)
			if err != nil {
				t.Fatalf("%s index-on warm: %v", name, err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("%s: warm answer diverged from cold under the index", name)
			}
		}
	}
}

// TestCandidateIndexExactBitIdenticalAfterWrites: identity must survive
// writes, the scoped invalidation they trigger and the index's own
// reassignment of the writers.
func TestCandidateIndexExactBitIdenticalAfterWrites(t *testing.T) {
	offCfg, onCfg := candidateConfigs()
	sysOff, groups := candidateSystem(t, offCfg)
	sysOn, _ := candidateSystem(t, onCfg)
	ctx := context.Background()
	q := GroupQuery{Members: groups[2], Z: 5}
	// Warm both systems, then land identical writes on each.
	for _, sys := range []*System{sysOff, sysOn} {
		if _, err := sys.Serve(ctx, q); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddRating(groups[2][0], "doc0007", 5); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddRating(groups[2][1], "doc0011", 1); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sysOff.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sysOn.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("post-write exact serving diverged with the candidate index on")
	}
}

// TestApproxQueryValidation: approx is rejected without the index and
// under mapreduce, and accepted otherwise.
func TestApproxQueryValidation(t *testing.T) {
	offCfg, onCfg := candidateConfigs()
	sysOff, groups := candidateSystem(t, offCfg)
	sysOn, _ := candidateSystem(t, onCfg)
	ctx := context.Background()

	_, err := sysOff.Serve(ctx, GroupQuery{Members: groups[0], Z: 5, Approx: true})
	if !errors.Is(err, ErrBadQuery) {
		t.Errorf("approx without CandidateIndex: err = %v, want ErrBadQuery", err)
	}
	_, err = sysOn.Serve(ctx, GroupQuery{Members: groups[0], Z: 5, Approx: true, Method: "mapreduce"})
	if !errors.Is(err, ErrBadQuery) {
		t.Errorf("approx + mapreduce: err = %v, want ErrBadQuery", err)
	}
	for _, scorer := range []string{"user-cf", "profile", "item-cf"} {
		if _, err := sysOn.Serve(ctx, GroupQuery{Members: groups[0], Z: 5, Approx: true, Scorer: scorer}); err != nil {
			t.Errorf("approx %s: %v", scorer, err)
		}
	}
}

// TestApproxRecallFloor: cluster-restricted peer discovery trades
// recall for speed, but on the seeded dataset the approx top-z must
// still recover a healthy share of the exact answer.
func TestApproxRecallFloor(t *testing.T) {
	_, onCfg := candidateConfigs()
	sys, groups := candidateSystem(t, onCfg)
	ctx := context.Background()
	for _, scorer := range []string{"user-cf", "profile"} {
		var hit, total int
		for _, members := range groups {
			exact, err := sys.Serve(ctx, GroupQuery{Members: members, Z: 8, Scorer: scorer})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := sys.Serve(ctx, GroupQuery{Members: members, Z: 8, Scorer: scorer, Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[string]bool, len(approx.Items))
			for _, it := range approx.Items {
				in[it.Item] = true
			}
			for _, it := range exact.Items {
				total++
				if in[it.Item] {
					hit++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: exact serving returned no items", scorer)
		}
		recall := float64(hit) / float64(total)
		if recall < 0.4 {
			t.Errorf("%s: approx recall %.2f over %d groups, want ≥ 0.40", scorer, recall, len(groups))
		}
	}
}

// TestCandidateIndexStats: the stats hook reports only when the index
// is configured, and reflects lazy build + write traffic.
func TestCandidateIndexStats(t *testing.T) {
	offCfg, onCfg := candidateConfigs()
	sysOff, _ := candidateSystem(t, offCfg)
	if _, ok := sysOff.CandidateIndexStats(); ok {
		t.Fatal("index stats reported with CandidateIndex off")
	}
	sysOn, groups := candidateSystem(t, onCfg)
	st, ok := sysOn.CandidateIndexStats()
	if !ok {
		t.Fatal("no index stats with CandidateIndex on")
	}
	if st.WritesSinceRebuild == 0 {
		t.Error("seed writes not counted by the index")
	}
	if _, err := sysOn.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 5, Approx: true}); err != nil {
		t.Fatal(err)
	}
	st, _ = sysOn.CandidateIndexStats()
	if !st.Built || st.Rebuilds < 1 || st.Clusters < 2 {
		t.Errorf("after an approx query: built=%v rebuilds=%d clusters=%d", st.Built, st.Rebuilds, st.Clusters)
	}
}

// TestCandidateIndexConcurrentServeAndWrites: exact and approx serving
// race rating/profile writes and the background rebuilds they trigger;
// run under -race this pins the locking discipline.
func TestCandidateIndexConcurrentServeAndWrites(t *testing.T) {
	_, onCfg := candidateConfigs()
	sys, groups := candidateSystem(t, onCfg)
	ctx := context.Background()
	users := sys.SortedUsers()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				members := groups[(w+i)%len(groups)]
				switch i % 4 {
				case 0:
					if _, err := sys.Serve(ctx, GroupQuery{Members: members, Z: 5}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := sys.Serve(ctx, GroupQuery{Members: members, Z: 5, Approx: true}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := sys.Serve(ctx, GroupQuery{Members: members, Z: 5, Approx: true, Scorer: "profile"}); err != nil {
						t.Error(err)
						return
					}
				default:
					u := users[(w*25+i)%len(users)]
					item := fmt.Sprintf("doc%04d", (w*25+i)%80)
					if err := sys.AddRating(u, item, float64(1+i%5)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st, _ := sys.CandidateIndexStats()
	if !st.Built {
		t.Error("index not built after concurrent approx traffic")
	}
}
