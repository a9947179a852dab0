// Command loadgen replays a sustained, mixed read/write workload
// against the recommender and reports per-operation-class latency
// (RPS, p50/p95/p99/max) — the CLI over internal/loadtest.
//
// Two targets:
//
//	loadgen -requests 2000                          # in-process System
//	loadgen -target http://localhost:8080 -duration 30s
//
// The in-process mode builds a System, seeds it with the synthetic
// dataset (same generator as iphrd -demo), and drives it directly —
// the CI load-smoke configuration. The HTTP mode drives a live iphrd
// over the v1 API; point it at a server started with -demo and
// matching -dataset-seed/-users/-items so the generated user and item
// IDs exist there.
//
// The workload is deterministic per -seed in -requests mode: the same
// flags replay the identical request stream, which is what makes load
// numbers comparable across commits. -approx-every N marks every Nth
// group query approx, exercising the cluster candidate index under
// concurrent writes (inproc needs -candidate-index; HTTP targets need
// an iphrd started with it); when the in-process index is on, the
// report gains an "index" stats section mirroring /v1/stats. The report prints as JSON on
// stdout; -out merges it as the "load" section of a BENCH_<date>.json
// trajectory file next to the "benchmarks" section scripts/bench.sh
// writes (see docs/ops.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fairhealth"
	"fairhealth/internal/candidates"
	"fairhealth/internal/dataset"
	"fairhealth/internal/loadtest"
	"fairhealth/internal/model"
	"fairhealth/internal/partition"
)

// engine is what loadgen needs from the in-process target beyond the
// loadtest surface: seeding, stats, and shutdown.
type engine interface {
	loadtest.Engine
	Load(ratings []model.Triple, patients []fairhealth.Patient) error
	Stats() fairhealth.Stats
	CandidateIndexStats() (candidates.Stats, bool)
	Close() error
}

func main() {
	target := flag.String("target", "inproc", `"inproc" or a live iphrd base URL (http://host:port)`)
	requests := flag.Int("requests", 0, "total operation budget (deterministic mode; exactly one of -requests/-duration)")
	duration := flag.Duration("duration", 0, "wall-clock bound (exactly one of -requests/-duration)")
	workers := flag.Int("workers", 4, "concurrent workers")
	seed := flag.Int64("seed", 1, "workload seed")
	mixSpec := flag.String("mix", "", `operation mix weights, e.g. "single=60,batch=10,stream=5,rate=24,profile=1" (empty = default mix)`)
	groupSize := flag.Int("group-size", 3, "members per group query")
	batchGroups := flag.Int("batch-groups", 4, "queries per batch/stream operation")
	z := flag.Int("z", 6, "recommendations per group")
	k := flag.Int("k", 0, "fairness list size override (0 = server default)")
	scorers := flag.String("scorers", "", `comma-separated scorers to cycle (e.g. "user-cf,item-cf,profile"; empty = server default)`)
	aggs := flag.String("aggs", "", `comma-separated aggregations to cycle (e.g. "avg,min"; empty = server default)`)
	approxEvery := flag.Int("approx-every", 0, "mark every Nth group query approx (0 = exact only; the target needs its candidate index on)")
	out := flag.String("out", "", "BENCH_<date>.json file to merge the load section into (empty = stdout only)")

	datasetSeed := flag.Int64("dataset-seed", 1, "synthetic dataset seed (must match the server's -demo-seed for HTTP targets)")
	users := flag.Int("users", 60, "synthetic dataset patients")
	items := flag.Int("items", 120, "synthetic dataset documents")
	ratingsPerUser := flag.Int("ratings-per-user", 25, "synthetic dataset ratings per patient (inproc seeding only)")

	delta := flag.Float64("delta", 0.5, "inproc: peer threshold δ")
	scorer := flag.String("scorer", "", "inproc: default relevance scorer")
	cacheTTL := flag.Duration("cache-ttl", 0, "inproc: cache lease (0 = never expire)")
	cacheMaxEntries := flag.Int("cache-max-entries", 0, "inproc: LRU bound per cache layer (0 = unbounded)")
	cacheMaxCost := flag.Int64("cache-max-cost", 0, "inproc: cost budget per cache layer (0 = unbounded)")
	candidateIndex := flag.Bool("candidate-index", false, "inproc: enable the cluster peer-candidate index")
	candidateK := flag.Int("candidate-k", 0, "inproc: cluster count for the candidate index (0 = √n; needs -candidate-index)")
	partitions := flag.Int("partitions", 0, "inproc: serve from N consistent-hash partitions behind the fan-out coordinator; the report gains a per-partition latency section (0 or 1 = unpartitioned)")
	partitionPeers := flag.String("partition-peers", "", `inproc: comma-separated worker addresses ("host:port,host:port") for the networked partition coordinator; the report gains a transport stats section (mutually exclusive with -partitions)`)
	flag.Parse()

	logger := log.New(os.Stderr, "loadgen ", log.LstdFlags)

	ds, err := dataset.Generate(dataset.Config{
		Seed: *datasetSeed, Users: *users, Items: *items, RatingsPerUser: *ratingsPerUser,
	})
	if err != nil {
		logger.Fatalf("dataset: %v", err)
	}
	cfg := loadtest.Config{
		Workers:     *workers,
		Requests:    *requests,
		Duration:    *duration,
		Seed:        *seed,
		GroupSize:   *groupSize,
		BatchGroups: *batchGroups,
		Z:           *z,
		K:           *k,
		ApproxEvery: *approxEvery,
	}
	if *mixSpec != "" {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			logger.Fatalf("mix: %v", err)
		}
		cfg.Mix = mix
	}
	if *scorers != "" {
		cfg.Scorers = strings.Split(*scorers, ",")
	}
	if *aggs != "" {
		cfg.Aggregations = strings.Split(*aggs, ",")
	}
	for _, id := range ds.Profiles.IDs() {
		cfg.Users = append(cfg.Users, string(id))
	}
	for _, d := range ds.Documents {
		cfg.Items = append(cfg.Items, string(d.ID))
	}
	// Profile writes re-use each patient's real coded problems, so the
	// generated profiles always validate against the ontology.
	problems := map[string]bool{}
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			continue
		}
		for _, c := range prof.Problems {
			problems[string(c)] = true
		}
	}
	for c := range problems {
		cfg.Problems = append(cfg.Problems, c)
	}

	tgt, err := loadtest.ParseTarget(*target, nil)
	if err != nil {
		logger.Fatal(err)
	}
	var sys engine
	var netCoord *partition.Networked
	httpTarget := tgt != nil
	if tgt == nil { // inproc
		if *approxEvery > 0 && !*candidateIndex {
			logger.Fatal("-approx-every needs -candidate-index for the in-process target")
		}
		sysCfg := fairhealth.Config{
			Delta: *delta, Scorer: *scorer,
			CacheTTL: *cacheTTL, CacheMaxEntries: *cacheMaxEntries, CacheMaxCost: *cacheMaxCost,
			CandidateIndex: *candidateIndex, CandidateK: *candidateK,
		}
		if *partitionPeers != "" {
			if *partitions > 1 {
				logger.Fatal("-partition-peers and -partitions are mutually exclusive")
			}
			peers := splitPeers(*partitionPeers)
			coord, cerr := partition.NewNetworked(sysCfg, peers, partition.NetOptions{})
			if cerr != nil {
				logger.Fatalf("networked coordinator: %v", cerr)
			}
			cfg.PartitionOf = coord.Owner
			logger.Printf("networked partitioned serving: %d/%d peers live",
				coord.LiveCount(), coord.PartitionCount())
			netCoord = coord
			sys = coord
		} else if *partitions > 1 {
			coord, cerr := partition.New(sysCfg, partition.Options{Partitions: *partitions})
			if cerr != nil {
				logger.Fatalf("coordinator: %v", cerr)
			}
			cfg.PartitionOf = coord.Owner
			logger.Printf("partitioned serving: %d partitions", coord.PartitionCount())
			sys = coord
		} else {
			sys, err = fairhealth.New(sysCfg)
			if err != nil {
				logger.Fatalf("system: %v", err)
			}
		}
		defer sys.Close()
		start := time.Now()
		var patients []fairhealth.Patient
		for _, id := range ds.Profiles.IDs() {
			prof, err := ds.Profiles.Get(id)
			if err != nil {
				logger.Fatalf("seed profile: %v", err)
			}
			probs := make([]string, len(prof.Problems))
			for i, c := range prof.Problems {
				probs[i] = string(c)
			}
			patients = append(patients, fairhealth.Patient{ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: probs, Medications: prof.Medications})
		}
		if err := sys.Load(ds.Ratings.Triples(), patients); err != nil {
			logger.Fatalf("seed: %v", err)
		}
		st := sys.Stats()
		logger.Printf("in-process system seeded in %v: %d patients, %d items, %d ratings",
			time.Since(start).Round(time.Millisecond), st.Patients, st.Items, st.Ratings)
		tgt = loadtest.InProc{Sys: sys}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("running against %s: workers=%d requests=%d duration=%v seed=%d",
		*target, cfg.Workers, cfg.Requests, cfg.Duration, cfg.Seed)
	rep, err := loadtest.Run(ctx, tgt, cfg)
	if err != nil {
		logger.Fatalf("run: %v", err)
	}
	if netCoord != nil {
		snap := netCoord.TransportStats()
		rep.Transport = snap
		logger.Printf("transport: rpcs=%d coalesced %.1f members/rpc  out=%dB in=%dB  retries=%d errors=%d  peers %d/%d live",
			snap.RPCs, snap.MembersPerRPC, snap.BytesOut, snap.BytesIn, snap.Retries, snap.Errors, snap.PeersLive, snap.PeersTotal)
	} else if httpTarget {
		// HTTP target: if the server runs the networked coordinator,
		// mirror its /v1/stats transport section into the report.
		if raw := fetchTransport(*target); raw != nil {
			rep.Transport = raw
		}
	}
	if sys != nil {
		if st, ok := sys.CandidateIndexStats(); ok {
			rep.Index = st
			logger.Printf("candidate index: built=%v clusters=%d rebuilds=%d reassignments=%d writes-since=%d",
				st.Built, st.Clusters, st.Rebuilds, st.Reassignments, st.WritesSinceRebuild)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		logger.Fatal(err)
	}
	for _, cl := range loadtest.Classes {
		c, ok := rep.Classes[string(cl)]
		if !ok {
			continue
		}
		logger.Printf("%-14s %7d ops %8.1f rps  p50 %s  p95 %s  p99 %s  max %s  errors %d",
			cl, c.Count, c.RPS, ms(c.P50Ns), ms(c.P95Ns), ms(c.P99Ns), ms(c.MaxNs), c.Errors)
	}
	if len(rep.Partitions) > 0 {
		ids := make([]string, 0, len(rep.Partitions))
		for id := range rep.Partitions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			for _, cl := range loadtest.Classes {
				c, ok := rep.Partitions[id][string(cl)]
				if !ok {
					continue
				}
				logger.Printf("p%-2s %-10s %7d ops %8.1f rps  p50 %s  p95 %s  p99 %s  errors %d",
					id, cl, c.Count, c.RPS, ms(c.P50Ns), ms(c.P95Ns), ms(c.P99Ns), c.Errors)
			}
		}
	}
	if rep.TotalErrors > 0 {
		logger.Printf("WARNING: %d/%d operations failed", rep.TotalErrors, rep.TotalOps)
	}

	if *out != "" {
		meta := map[string]any{"date": time.Now().Format("2006-01-02")}
		if err := loadtest.MergeBenchFile(*out, rep, meta); err != nil {
			logger.Fatalf("merge %s: %v", *out, err)
		}
		logger.Printf("load section merged into %s", *out)
	}
	if rep.TotalErrors > 0 {
		os.Exit(1)
	}
}

// splitPeers parses a comma-separated peer address list, trimming
// whitespace and dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fetchTransport pulls the transport section out of an HTTP target's
// /v1/stats report; nil when the server is not a networked
// coordinator (or the fetch fails — the report just omits the
// section).
func fetchTransport(base string) any {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var body struct {
		Transport json.RawMessage `json:"transport"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	if len(body.Transport) == 0 || string(body.Transport) == "null" {
		return nil
	}
	return body.Transport
}

// ms renders nanoseconds as short human milliseconds for the summary.
func ms(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e6, 'f', 2, 64) + "ms"
}

// parseMix parses "single=60,batch=10,stream=5,rate=24,profile=1";
// omitted classes weigh 0.
func parseMix(spec string) (loadtest.Mix, error) {
	var m loadtest.Mix
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix element %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch key {
		case "single":
			m.Single = w
		case "batch":
			m.Batch = w
		case "stream":
			m.Stream = w
		case "rate":
			m.Rate = w
		case "profile":
			m.Profile = w
		default:
			return m, fmt.Errorf("unknown mix class %q (single|batch|stream|rate|profile)", key)
		}
	}
	if m.Single+m.Batch+m.Stream+m.Rate+m.Profile == 0 {
		return m, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return m, nil
}
