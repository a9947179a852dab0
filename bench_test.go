// Benchmark harness: one benchmark family per table/figure of the
// paper (see DESIGN.md §4 and EXPERIMENTS.md for the paper-vs-measured
// comparison).
//
//	BenchmarkTable2/*           §VI Table II — brute force vs Algorithm 1 across (m, z)
//	BenchmarkTableI/*           §V.C Table I — the three similarity measures
//	BenchmarkFig1EndToEnd/*     Fig. 1 — REST round trip through the architecture
//	BenchmarkFig2Pipeline/*     Fig. 2 — the three MapReduce jobs, by worker count
//	BenchmarkEq1Relevance       Eq. 1 — per-user relevance prediction
//	BenchmarkTopK/*             §IV — in-memory vs MapReduce top-k ([5])
//	BenchmarkAblation/*         DESIGN.md §5 ablations (aggregators, δ sweep)
//	BenchmarkSearch/*           Fig. 1 — document search engine
//	BenchmarkWAL/*              storage substrate — append/replay
//	BenchmarkClustering/*       [17] — full-scan vs clustered peer discovery
//	BenchmarkCandidateIndex/*   internal/candidates — fullscan vs approx
//	                            peer discovery, cold and post-write
//	BenchmarkRatingsWriteThroughput/*  sharded vs single-lock store under concurrent writers
//	BenchmarkScopedInvalidation/*      serving after a write: scoped eviction vs full cache rebuild
//	BenchmarkWarmCacheTTL/*            serving inside vs past the warm-cache TTL (internal/cache)
//	BenchmarkScorerServe/*             group serving per relevance backend (user-cf vs item-cf vs
//	                                   profile), warm group-relevance cache vs cold after a write
//	BenchmarkPartitionedServe/*        group serving through the consistent-hash fan-out
//	                                   coordinator at 1/2/4 partitions, warm and cold-after-write
//	BenchmarkFlatKernels/*             flat scoring kernels vs the retained map-based references:
//	                                   CSR merge-join Pearson, cold and warm
//	                                   user-cf relevance, rank-order greedy, branch-and-bound
//	                                   brute force
//	                                   (gated on both ns/op and allocs/op)
//
// Run: go test -bench=. -benchmem
package fairhealth_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/candidates"
	"fairhealth/internal/cf"
	"fairhealth/internal/clustering"
	"fairhealth/internal/core"
	"fairhealth/internal/dataset"
	"fairhealth/internal/eval"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/model"
	"fairhealth/internal/mrpipeline"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/search"
	"fairhealth/internal/simfn"
	"fairhealth/internal/snomed"
	"fairhealth/internal/topk"
	"fairhealth/internal/wal"
)

// ---------------------------------------------------------------------------
// Table II — brute force vs Algorithm 1 (§VI)

// benchTable2Grid lists the (m, z) cells benchmarked for each solver.
// The heuristic runs the paper's full grid; the brute force stops at
// z=12 for m=30 (C(30,16) ≈ 1.45·10⁸ subsets ≈ seconds per iteration —
// regenerate those cells with `fairrec table2 -full`).
var benchTable2Grid = []struct {
	m, z  int
	brute bool
}{
	{10, 4, true}, {10, 8, true},
	{20, 4, true}, {20, 8, true}, {20, 12, true}, {20, 16, true}, {20, 20, true},
	{30, 4, true}, {30, 8, true}, {30, 12, true},
	{30, 16, false}, {30, 20, false},
}

func BenchmarkTable2(b *testing.B) {
	const groupSize, listK = 4, 10
	for _, cell := range benchTable2Grid {
		problem := eval.SyntheticProblem(1, groupSize, cell.m, listK)
		b.Run(fmt.Sprintf("heuristic/m=%d/z=%d", cell.m, cell.z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(problem.Input, cell.z); err != nil {
					b.Fatal(err)
				}
			}
		})
		if !cell.brute {
			continue
		}
		b.Run(fmt.Sprintf("bruteforce/m=%d/z=%d", cell.m, cell.z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BruteForce(problem.Input, cell.z, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table I — similarity measures (§V)

func BenchmarkTableI(b *testing.B) {
	ont := snomed.Load()
	profiles := phr.NewStore(ont)
	for _, p := range phr.TableIPatients() {
		if err := profiles.Put(p); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("semantic", func(b *testing.B) {
		sem := simfn.Semantic{Ont: ont, Problems: profiles.Problems}
		for i := 0; i < b.N; i++ {
			if _, ok := sem.Similarity("patient1", "patient3"); !ok {
				b.Fatal("undefined")
			}
		}
	})
	b.Run("profile-tfidf", func(b *testing.B) {
		pc, err := simfn.BuildProfileCosine(profiles, ont, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := pc.Similarity("patient1", "patient3"); !ok {
				b.Fatal("undefined")
			}
		}
	})
	b.Run("pathlength", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ont.PathLength(snomed.AcuteBronchitis, snomed.ChestPain); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Pearson on a realistic store (Table I itself has no ratings)
	b.Run("pearson", func(b *testing.B) {
		ds, err := dataset.Generate(dataset.Config{Seed: 3, Users: 50, Items: 100, RatingsPerUser: 30})
		if err != nil {
			b.Fatal(err)
		}
		p := simfn.Pearson{Store: ds.Ratings, MinOverlap: 2}
		users := ds.Profiles.IDs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Similarity(users[i%len(users)], users[(i+7)%len(users)])
		}
	})
}

// ---------------------------------------------------------------------------
// Fig. 1 — end-to-end architecture round trip

func BenchmarkFig1EndToEnd(b *testing.B) {
	sys, err := fairhealth.New(fairhealth.Config{Delta: 0.55, MinOverlap: 4, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 5, Users: 60, Items: 120, RatingsPerUser: 25})
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			b.Fatal(err)
		}
	}
	// Discard request logs: the bench measures serving, not logging IO.
	srv := httptest.NewServer(httpapi.New(sys, log.New(io.Discard, "", 0)))
	defer srv.Close()
	grp := ds.SampleGroup(1, 3, 0)
	query, _ := json.Marshal(httpapi.GroupQueryBody{
		Members: []string{string(grp[0]), string(grp[1]), string(grp[2])}, Z: 6, Explain: true,
	})

	b.Run("group-recommendation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(srv.URL+"/v1/groups/recommend", "application/json", bytes.NewReader(query))
			if err != nil {
				b.Fatal(err)
			}
			var body httpapi.GroupResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if body.Fairness != 1 {
				b.Fatalf("fairness = %v", body.Fairness)
			}
		}
	})
	b.Run("post-rating", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			payload, _ := json.Marshal(httpapi.RatingBody{
				User: "benchuser", Item: fmt.Sprintf("doc%04d", i%120), Value: float64(1 + i%5),
			})
			resp, err := http.Post(srv.URL+"/v1/ratings", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
	// The NDJSON streaming batch path — each entry renders through the
	// pooled encoder (internal/httpapi/ndjson.go).
	b.Run("batch-stream", func(b *testing.B) {
		var batch httpapi.BatchGroupsBody
		for _, g := range []model.Group{grp, ds.SampleGroup(2, 3, 0), ds.SampleGroup(3, 2, 0)} {
			members := make([]string, len(g))
			for j, u := range g {
				members[j] = string(u)
			}
			batch.Queries = append(batch.Queries, httpapi.GroupQueryBody{Members: members, Z: 6})
		}
		payload, _ := json.Marshal(batch)
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(srv.URL+"/v1/groups/recommend:batch?stream=true", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Fig. 2 — the MapReduce pipeline, worker-count scaling

func BenchmarkFig2Pipeline(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Seed: 9, Users: 150, Items: 250, RatingsPerUser: 35})
	if err != nil {
		b.Fatal(err)
	}
	triples := ds.Ratings.Triples()
	grp := ds.SampleGroup(2, 3, 0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := mrpipeline.Config{
				Group: grp, Delta: 0.55, MinOverlap: 4, K: 8, Z: 6,
				Aggregator: "avg", Mappers: workers, Reducers: workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := mrpipeline.Run(context.Background(), triples, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("direct-path", func(b *testing.B) {
		sys, err := fairhealth.New(fairhealth.Config{Delta: 0.55, MinOverlap: 4, K: 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range triples {
			if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		users := make([]string, len(grp))
		for k, u := range grp {
			users[k] = string(u)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Serve(context.Background(), greedyQuery(users, 6)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Batch group serving — sequential single-shot loop vs the bounded
// worker-pool fan-out of ServeBatch over the same groups.

// greedyQuery is the explained Algorithm 1 request the serving
// benchmarks issue for one group.
func greedyQuery(members []string, z int) fairhealth.GroupQuery {
	return fairhealth.GroupQuery{Members: members, Z: z, Method: fairhealth.MethodGreedy, Explain: true}
}

// greedyQueries is greedyQuery for every group. The batch benchmarks
// build it inside the timed loop, so their allocs/op stay comparable
// with the committed baseline.
func greedyQueries(groups [][]string, z int) []fairhealth.GroupQuery {
	queries := make([]fairhealth.GroupQuery, len(groups))
	for k, g := range groups {
		queries[k] = greedyQuery(g, z)
	}
	return queries
}

func BenchmarkGroupBatch(b *testing.B) {
	sys, err := fairhealth.New(fairhealth.Config{Delta: 0.55, MinOverlap: 4, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 17, Users: 100, Items: 200, RatingsPerUser: 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			b.Fatal(err)
		}
	}
	users := sys.SortedUsers()
	groups := make([][]string, 16)
	for g := range groups {
		groups[g] = []string{users[(3*g)%len(users)], users[(3*g+1)%len(users)], users[(3*g+2)%len(users)]}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range groups {
				if _, err := sys.Serve(context.Background(), greedyQuery(g, 6)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("batch/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range res {
				if e.Err != nil {
					b.Fatal(e.Err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Sharded ratings store — concurrent write throughput. shards=1 is the
// old single-RWMutex store; shards=DefaultShards is the FNV-sharded
// one. Each iteration drives writesPerOp ratings split across the
// writers, all to distinct users, so the arms differ only in lock
// contention.

func BenchmarkRatingsWriteThroughput(b *testing.B) {
	const writesPerOp = 512
	items := make([]model.ItemID, 64)
	for i := range items {
		items[i] = model.ItemID(fmt.Sprintf("doc%03d", i))
	}
	for _, shards := range []int{1, ratings.DefaultShards} {
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/writers=%d", shards, writers), func(b *testing.B) {
				users := make([]model.UserID, writers*4)
				for i := range users {
					users[i] = model.UserID(fmt.Sprintf("user%04d", i))
				}
				st := ratings.NewSharded(shards)
				per := writesPerOp / writers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for j := 0; j < per; j++ {
								u := users[w*4+j%4] // each writer owns 4 users; no cross-writer overlap
								if err := st.Add(u, items[j%len(items)], model.Rating(1+j%5)); err != nil {
									b.Error(err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Scoped invalidation — the mixed read/write serving loop of the
// paper's Fig. 1 setting (caregivers recording ratings while groups
// are served). Each iteration is one rating write followed by a batch
// of overlapping group requests spanning 30 members. The warm arm
// rides the scoped eviction (only the touched user's similarity row
// and the peer sets they could have moved rebuild); the cold arm
// models the old global invalidation by flushing every cache after the
// write, so every member's row and peer set rebuilds each time.

func BenchmarkScopedInvalidation(b *testing.B) {
	build := func(b *testing.B) (*fairhealth.System, [][]string) {
		sys, err := fairhealth.New(fairhealth.Config{Delta: 0.55, MinOverlap: 4, K: 8})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dataset.Generate(dataset.Config{Seed: 29, Users: 120, Items: 200, RatingsPerUser: 30})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range ds.Ratings.Triples() {
			if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
			b.Fatal(err)
		}
		users := sys.SortedUsers()
		groups := make([][]string, 10)
		for g := range groups {
			groups[g] = []string{users[3*g], users[3*g+1], users[3*g+2]}
		}
		return sys, groups
	}
	serveAfterWrite := func(b *testing.B, sys *fairhealth.System, groups [][]string, cold bool) {
		writer := groups[0][0]
		for i := 0; i < b.N; i++ {
			if err := sys.AddRating(writer, fmt.Sprintf("doc%04d", i%50), float64(1+i%5)); err != nil {
				b.Fatal(err)
			}
			if cold {
				sys.InvalidateCaches()
			}
			res, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range res {
				if e.Err != nil {
					b.Fatal(e.Err)
				}
			}
		}
	}
	sysWarm, groups := build(b)
	b.Run("warm-scoped-eviction", func(b *testing.B) { serveAfterWrite(b, sysWarm, groups, false) })
	sysCold, groups := build(b)
	b.Run("cold-full-invalidation", func(b *testing.B) { serveAfterWrite(b, sysCold, groups, true) })
}

// ---------------------------------------------------------------------------
// Warm-cache TTL — read-only serving against the internal/cache layer
// under three lease regimes: no TTL (the historical always-warm
// behavior), a TTL the workload stays inside (every request rides warm
// entries), and a TTL so short every request finds its entries expired
// (the recompute bound a TTL'd deployment degrades to when traffic
// outlives the lease). The warm arms should track each other; the
// expired arm prices a full per-request rebuild.

func BenchmarkWarmCacheTTL(b *testing.B) {
	build := func(b *testing.B, ttl time.Duration) (*fairhealth.System, [][]string) {
		sys, err := fairhealth.New(fairhealth.Config{Delta: 0.55, MinOverlap: 4, K: 8, CacheTTL: ttl})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sys.Close() })
		ds, err := dataset.Generate(dataset.Config{Seed: 31, Users: 100, Items: 200, RatingsPerUser: 30})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range ds.Ratings.Triples() {
			if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
			b.Fatal(err)
		}
		users := sys.SortedUsers()
		groups := make([][]string, 8)
		for g := range groups {
			groups[g] = []string{users[3*g], users[3*g+1], users[3*g+2]}
		}
		// Populate the peer cache too, so the warm arms start warm.
		if _, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6)); err != nil {
			b.Fatal(err)
		}
		return sys, groups
	}
	serve := func(b *testing.B, sys *fairhealth.System, groups [][]string) {
		for i := 0; i < b.N; i++ {
			res, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range res {
				if e.Err != nil {
					b.Fatal(e.Err)
				}
			}
		}
	}
	for _, arm := range []struct {
		name string
		ttl  time.Duration
	}{
		{"warm-no-ttl", 0},
		{"warm-within-ttl", time.Hour},
		{"expired-every-request", time.Nanosecond},
	} {
		sys, groups := build(b, arm.ttl)
		b.Run(arm.name, func(b *testing.B) { serve(b, sys, groups) })
	}
}

// ---------------------------------------------------------------------------
// Scorer dimension — group serving per relevance backend. The warm arm
// repeats one query against a hot group-relevance memo (the steady
// state of read-heavy traffic); the cold arm precedes every serve with
// a rating write by a non-member, which evicts the group memo (and,
// for item-cf, dirties the neighbor model), pricing each backend's
// scoped-invalidation rebuild under mixed read/write traffic.

func BenchmarkScorerServe(b *testing.B) {
	build := func(b *testing.B) (*fairhealth.System, []string, string) {
		sys, err := fairhealth.New(fairhealth.Config{Delta: 0.3, MinOverlap: 3, K: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sys.Close() })
		ds, err := dataset.Generate(dataset.Config{Seed: 37, Users: 80, Items: 150, RatingsPerUser: 25})
		if err != nil {
			b.Fatal(err)
		}
		// Profiles first (the profile scorer needs a corpus; AddPatient
		// flushes caches, so load them before the ratings).
		for _, id := range ds.Profiles.IDs() {
			prof, err := ds.Profiles.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			problems := make([]string, len(prof.Problems))
			for i, c := range prof.Problems {
				problems[i] = string(c)
			}
			err = sys.AddPatient(fairhealth.Patient{
				ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: problems, Medications: prof.Medications,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, tr := range ds.Ratings.Triples() {
			if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		users := sys.SortedUsers()
		return sys, users[:4], users[len(users)-1]
	}
	for _, scorer := range []string{"user-cf", "item-cf", "profile"} {
		warmSys, group, _ := build(b)
		q := fairhealth.GroupQuery{Members: group, Z: 6, Scorer: scorer}
		if _, err := warmSys.Serve(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.Run(scorer+"/warm-group-cache", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := warmSys.Serve(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
		coldSys, coldGroup, writer := build(b)
		cq := fairhealth.GroupQuery{Members: coldGroup, Z: 6, Scorer: scorer}
		if _, err := coldSys.Serve(context.Background(), cq); err != nil {
			b.Fatal(err)
		}
		b.Run(scorer+"/cold-after-write", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := coldSys.AddRating(writer, fmt.Sprintf("doc%04d", i%50), float64(1+i%5)); err != nil {
					b.Fatal(err)
				}
				if _, err := coldSys.Serve(context.Background(), cq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Partitioned serving — the partition router over in-process workers
// vs partition counts

// BenchmarkPartitionedServe measures group serving through the
// partition router over 1, 2, and 4 in-process workers, in the regimes
// BenchmarkScorerServe pins for a single system. warm-group-cache is a
// hit in the router's group-input memo, so it isolates the router's own
// serve path (no worker is called). cold-after-write is a replicated
// apply on the router's replica and every worker, then a gather from
// the members' owners through transport.Local: partitions=1 vs
// BenchmarkScorerServe isolates the routing overhead, and 2 vs 4 shows
// the fan-out scaling.
func BenchmarkPartitionedServe(b *testing.B) {
	build := func(b *testing.B, n int) (*partition.Coordinator, []string, string) {
		coord, err := partition.New(fairhealth.Config{Delta: 0.3, MinOverlap: 3, K: 8}, partition.Options{Partitions: n})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { coord.Close() })
		ds, err := dataset.Generate(dataset.Config{Seed: 37, Users: 80, Items: 150, RatingsPerUser: 25})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ds.Profiles.IDs() {
			prof, err := ds.Profiles.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			problems := make([]string, len(prof.Problems))
			for i, c := range prof.Problems {
				problems[i] = string(c)
			}
			err = coord.AddPatient(fairhealth.Patient{
				ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: problems, Medications: prof.Medications,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, tr := range ds.Ratings.Triples() {
			if err := coord.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		users := coord.Patients()
		return coord, users[:4], users[len(users)-1]
	}
	for _, n := range []int{1, 2, 4} {
		warm, group, _ := build(b, n)
		q := fairhealth.GroupQuery{Members: group, Z: 6}
		if _, err := warm.Serve(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("partitions=%d/warm-group-cache", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := warm.Serve(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
		cold, coldGroup, writer := build(b, n)
		cq := fairhealth.GroupQuery{Members: coldGroup, Z: 6}
		if _, err := cold.Serve(context.Background(), cq); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("partitions=%d/cold-after-write", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cold.AddRating(writer, fmt.Sprintf("doc%04d", i%50), float64(1+i%5)); err != nil {
					b.Fatal(err)
				}
				if _, err := cold.Serve(context.Background(), cq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Networked partitioned serving — coalesced binary fan-out over TCP

// BenchmarkNetworkedServe measures group serving through the
// networked coordinator against three worker "processes" on loopback
// (full System + transport server each — the same wire as separate
// iphrd -partition-listen processes, minus process isolation). The
// regimes mirror BenchmarkPartitionedServe so the in-process vs
// networked gap is one file apart in the BENCH trajectory. Custom
// metrics pin the coalescing contract: rpcs/serve must stay at or
// below the live worker count regardless of group size, and
// members/rpc is the batching win.
func BenchmarkNetworkedServe(b *testing.B) {
	const workers = 3
	build := func(b *testing.B) (*partition.Networked, []string, string) {
		cfg := fairhealth.Config{Delta: 0.3, MinOverlap: 3, K: 8}
		addrs := make([]string, workers)
		for i := range addrs {
			sys, err := fairhealth.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			srv := transport.NewServer(sys, partition.ConfigFingerprint(sys.Config()))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			addrs[i] = ln.Addr().String()
			b.Cleanup(func() { srv.Close(); sys.Close() })
		}
		coord, err := partition.NewNetworked(cfg, addrs, partition.NetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { coord.Close() })
		ds, err := dataset.Generate(dataset.Config{Seed: 37, Users: 80, Items: 150, RatingsPerUser: 25})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ds.Profiles.IDs() {
			prof, err := ds.Profiles.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			problems := make([]string, len(prof.Problems))
			for i, c := range prof.Problems {
				problems[i] = string(c)
			}
			err = coord.AddPatient(fairhealth.Patient{
				ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: problems, Medications: prof.Medications,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, tr := range ds.Ratings.Triples() {
			if err := coord.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
				b.Fatal(err)
			}
		}
		users := coord.Patients()
		return coord, users[:4], users[len(users)-1]
	}
	reportWire := func(b *testing.B, coord *partition.Networked, before transport.Snapshot) {
		after := coord.TransportStats()
		rpcs := after.RelevancesRPCs - before.RelevancesRPCs
		members := after.CoalescedMembers - before.CoalescedMembers
		if rpcs > 0 {
			b.ReportMetric(float64(members)/float64(rpcs), "members/rpc")
			b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/serve")
		}
	}

	warm, group, _ := build(b)
	q := fairhealth.GroupQuery{Members: group, Z: 6}
	if _, err := warm.Serve(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("workers=%d/warm-group-cache", workers), func(b *testing.B) {
		before := warm.TransportStats()
		for i := 0; i < b.N; i++ {
			if _, err := warm.Serve(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		reportWire(b, warm, before)
	})

	cold, coldGroup, writer := build(b)
	cq := fairhealth.GroupQuery{Members: coldGroup, Z: 6}
	if _, err := cold.Serve(context.Background(), cq); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("workers=%d/cold-after-write", workers), func(b *testing.B) {
		before := cold.TransportStats()
		for i := 0; i < b.N; i++ {
			if err := cold.AddRating(writer, fmt.Sprintf("doc%04d", i%50), float64(1+i%5)); err != nil {
				b.Fatal(err)
			}
			if _, err := cold.Serve(context.Background(), cq); err != nil {
				b.Fatal(err)
			}
		}
		reportWire(b, cold, before)
	})
}

// ---------------------------------------------------------------------------
// Eq. 1 — relevance prediction throughput

func BenchmarkEq1Relevance(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Users: 100, Items: 200, RatingsPerUser: 30})
	if err != nil {
		b.Fatal(err)
	}
	rec := &cf.Recommender{
		Store: ds.Ratings,
		Sim:   simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: ds.Ratings, MinOverlap: 3}}),
		Delta: 0.55,
	}
	users := ds.Profiles.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.AllRelevances(users[i%len(users)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// §IV — top-k selection: in-memory heap vs MapReduce job ([5])

func BenchmarkTopK(b *testing.B) {
	items := make([]model.ScoredItem, 100_000)
	for i := range items {
		items[i] = model.ScoredItem{
			Item:  model.ItemID(fmt.Sprintf("d%06d", i)),
			Score: float64((i * 2654435761) % 1000),
		}
	}
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("heap/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topk.Top(items, k)
			}
		})
		b.Run(fmt.Sprintf("mapreduce/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mrpipeline.TopKJob(context.Background(), items, k, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

func BenchmarkAblation(b *testing.B) {
	// aggregator choice: does min vs avg change Algorithm 1 cost?
	problem := eval.SyntheticProblem(1, 4, 30, 10)
	b.Run("aggregators", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.RunAggregatorAblation(1, 4, 30, 10, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	// greedy cost as z grows (heuristic scaling, the flat line of Table II)
	for _, z := range []int{4, 12, 20, 28} {
		b.Run(fmt.Sprintf("greedy-z/z=%d", z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(problem.Input, z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// δ sweep: peer-set size effect on Eq. 1 cost
	ds, err := dataset.Generate(dataset.Config{Seed: 13, Users: 80, Items: 150, RatingsPerUser: 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("delta-sweep/delta=%.1f", delta), func(b *testing.B) {
			rec := &cf.Recommender{
				Store: ds.Ratings,
				Sim:   simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: ds.Ratings, MinOverlap: 3}}),
				Delta: delta,
			}
			users := ds.Profiles.IDs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rec.AllRelevances(users[i%len(users)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// substrate benchmarks: search engine, WAL, clustering

func BenchmarkSearch(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Seed: 21, Items: 2000})
	if err != nil {
		b.Fatal(err)
	}
	ix := search.NewIndex(nil)
	for _, d := range ds.Documents {
		if err := ix.Add(d.ID, d.Title, d.Body); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hits := ix.Search("chemotherapy nutrition protein", 10); len(hits) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("index-doc", func(b *testing.B) {
		ix2 := search.NewIndex(nil)
		for i := 0; i < b.N; i++ {
			d := ds.Documents[i%len(ds.Documents)]
			_ = ix2.Add(model.ItemID(fmt.Sprintf("%s-%d", d.ID, i)), d.Title, d.Body)
		}
	})
}

func BenchmarkWAL(b *testing.B) {
	dir := b.TempDir()
	log, err := wal.Open(dir + "/bench.wal")
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := log.AppendRating(
				model.UserID(fmt.Sprintf("u%d", i%100)),
				model.ItemID(fmt.Sprintf("d%d", i%1000)),
				model.Rating(1+i%5)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wal.LoadState(dir+"/bench.wal", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClustering(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Seed: 23, Users: 200, Items: 300, RatingsPerUser: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kmeans-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := clustering.KMeans(ds.Ratings, clustering.Config{K: 4, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// peer discovery: full scan vs clustered candidates. Each mode
	// gets its OWN similarity cache — a shared one would let whichever
	// bench runs first pre-warm the other's lookups.
	res, err := clustering.KMeans(ds.Ratings, clustering.Config{K: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	users := ds.Ratings.Users()
	b.Run("peers-fullscan", func(b *testing.B) {
		sim := simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: ds.Ratings, MinOverlap: 3}})
		rec := &cf.Recommender{Store: ds.Ratings, Sim: sim, Delta: 0.55}
		for i := 0; i < b.N; i++ {
			if _, err := rec.Peers(users[i%len(users)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peers-clustered", func(b *testing.B) {
		sim := simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: ds.Ratings, MinOverlap: 3}})
		rec := &cf.Recommender{Store: ds.Ratings, Sim: sim, Delta: 0.55, Candidates: res.CandidateSource()}
		for i := 0; i < b.N; i++ {
			if _, err := rec.Peers(users[i%len(users)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCandidateIndex measures peer discovery under the live
// cluster candidate index (internal/candidates): the full Def. 1 scan
// vs opt-in approx cluster-neighborhood search — cold (fresh
// similarity cache, the cost the first query after a deploy or
// eviction pays) and post-write (a rating lands and the index
// reassigns before each discovery).
func BenchmarkCandidateIndex(b *testing.B) {
	// Sparse matrix (~1% fill): most user pairs share fewer than
	// MinOverlap co-rated items.
	gen := func(b *testing.B) *ratings.Store {
		ds, err := dataset.Generate(dataset.Config{Seed: 29, Users: 300, Items: 1500, RatingsPerUser: 15})
		if err != nil {
			b.Fatal(err)
		}
		return ds.Ratings
	}
	const minOverlap = 3
	newRec := func(st *ratings.Store, cand func(model.UserID) []model.UserID) *cf.Recommender {
		return &cf.Recommender{
			Store:      st,
			Sim:        simfn.NewCached(simfn.Normalized{S: simfn.Pearson{Store: st, MinOverlap: minOverlap}}),
			Delta:      0.3,
			Candidates: cand,
		}
	}
	modes := []struct {
		name   string
		useIdx bool
		cand   func(idx *candidates.Index) func(model.UserID) []model.UserID
	}{
		{"fullscan", false, func(*candidates.Index) func(model.UserID) []model.UserID { return nil }},
		{"approx", true, func(idx *candidates.Index) func(model.UserID) []model.UserID { return idx.Approx }},
	}
	for _, m := range modes {
		b.Run("cold/"+m.name, func(b *testing.B) {
			st := gen(b)
			users := st.Users()
			var cand func(model.UserID) []model.UserID
			if m.useIdx {
				idx := candidates.NewRatings(st, candidates.Config{Seed: 1})
				defer idx.Close()
				if err := idx.EnsureBuilt(); err != nil {
					b.Fatal(err)
				}
				cand = m.cand(idx)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh similarity cache every iteration: the cost of
				// discovering peers nobody has asked about yet.
				if _, err := newRec(st, cand).Peers(users[i%len(users)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range modes {
		b.Run("post-write/"+m.name, func(b *testing.B) {
			st := gen(b)
			users := st.Users()
			items := st.Items()
			var idx *candidates.Index
			var cand func(model.UserID) []model.UserID
			if m.useIdx {
				idx = candidates.NewRatings(st, candidates.Config{Seed: 1})
				defer idx.Close()
				if err := idx.EnsureBuilt(); err != nil {
					b.Fatal(err)
				}
				cand = m.cand(idx)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := users[i%len(users)]
				if err := st.Add(u, items[i%len(items)], 4); err != nil {
					b.Fatal(err)
				}
				if idx != nil {
					idx.OnWrite(u)
				}
				if _, err := newRec(st, cand).Peers(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Flat scoring kernels — every arm pairs the CSR/flat-array kernel with
// the retained map-based reference it must match bit for bit (the
// equivalence suites in internal/simfn and internal/core pin the
// outputs; this family prices the layouts). Gated on ns/op AND
// allocs/op by scripts/bench_compare.sh.

func BenchmarkFlatKernels(b *testing.B) {
	ds, err := dataset.Generate(dataset.Config{Seed: 3, Users: 200, Items: 300, RatingsPerUser: 30})
	if err != nil {
		b.Fatal(err)
	}
	users := ds.Ratings.Users()
	flat := simfn.Pearson{Store: ds.Ratings, MinOverlap: 2}
	ref := simfn.PearsonReference{Store: ds.Ratings, MinOverlap: 2}

	// Single-pair Eq. 2: merge-join over snapshot rows vs the CoRated
	// copy + per-item map lookups of the reference.
	b.Run("pearson/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flat.Similarity(users[i%len(users)], users[(i+7)%len(users)])
		}
	})
	b.Run("pearson/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.Similarity(users[i%len(users)], users[(i+7)%len(users)])
		}
	})

	// Cold user-CF serve: the similarity measure is consulted directly
	// (no memo table — a cold serve misses on every pair anyway), so
	// each op prices peer discovery plus Eq. 1 over every peer row with
	// nothing but the kernel under test in the loop.
	coldServe := func(s simfn.UserSimilarity) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := &cf.Recommender{
					Store: ds.Ratings,
					Sim:   simfn.Normalized{S: s},
					Delta: 0.55,
				}
				if _, err := rec.AllRelevances(users[i%len(users)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("usercf-cold/flat", coldServe(flat))
	b.Run("usercf-cold/reference", coldServe(ref))

	// Warm user-CF serve: every peer set is already cached, so each op is
	// Eq. 1 alone — the catalogue-indexed accumulation over peer rows.
	warm := &cf.Recommender{
		Store: ds.Ratings,
		Sim:   simfn.Normalized{S: flat},
		Delta: 0.55,
		Cache: cf.NewPeerCache(),
	}
	for _, u := range users {
		if _, err := warm.AllRelevances(u); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("usercf-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warm.AllRelevances(users[i%len(users)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Algorithm 1: rank-order cursors vs the per-round rescan.
	problem := eval.SyntheticProblem(1, 4, 30, 10)
	b.Run("greedy/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Greedy(problem.Input, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyReference(problem.Input, 8); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Exhaustive solver: branch-and-bound vs naive full enumeration on
	// a cell small enough to run the naive arm (C(20,8) ≈ 1.3·10⁵).
	bfProblem := eval.SyntheticProblem(1, 4, 20, 10)
	b.Run("bruteforce/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BruteForce(bfProblem.Input, 8, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BruteForceReference(bfProblem.Input, 8, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
