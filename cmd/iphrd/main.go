// Command iphrd serves the recommender over HTTP — the iPHR-style
// service of the paper's architecture (Fig. 1). Patients post profiles
// and document ratings; caregivers query fair group recommendations
// through the v1 API (one typed GroupQuery body; see docs/api.md).
//
//	iphrd -addr :8080 -demo            # start with a demo dataset loaded
//	curl -X POST localhost:8080/v1/groups/recommend \
//	    -d '{"members":["patient0000","patient0001"],"z":10}'
//
// Every request passes the middleware chain (request IDs, structured
// logs, panic recovery, bounded in-flight limiter, per-request
// timeout); -max-inflight and -timeout tune the bounds. The warm
// caches under the scoring path are tuned with -cache-ttl (entries age
// out across requests), -cache-max-entries (LRU bound per layer), and
// -cache-max-cost (size-aware budget per layer). GET /v1/stats reports
// the cache hit/miss/eviction/expiration counters, per-layer
// entry-age histograms, TTLs, and the limiter's bound, in-flight
// count and rejections. -scorer sets the default
// relevance backend (any registered scorer) for queries that
// name none. -candidate-index turns on the cluster peer-candidate
// index (⌈√n⌉ clusters): queries with "approx":true restrict peer
// discovery to the query user's cluster neighborhood (exact queries
// never consult it), and /v1/stats gains an "index" section
// (clusters, inertia, reassignments, rebuilds, last-rebuild age).
// -partitions=N serves from N consistent-hash partitions behind a
// fan-out/merge coordinator (answers stay bit-identical to
// unpartitioned serving; /v1/stats gains a "partitions" section with per-partition ownership, replay
// lag, and fan-out counters; composes with -state, where the shared
// WAL bootstraps every partition by snapshot+replay). -pprof ADDR
// serves net/http/pprof on its own listener and mux, fully separate
// from the API address (off by default; see docs/ops.md for the
// profiling workflow). SIGINT/SIGTERM shut
// down gracefully: the listener closes, in-flight requests drain for
// up to -drain-timeout, then the system is closed cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/model"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/scoring"
)

// backend is what main needs from the serving engine: the HTTP surface
// plus a clean shutdown. fairhealth.System and the partition router
// (networked, or in process as partition.Coordinator) satisfy it.
type backend interface {
	httpapi.Backend
	Load(ratings []model.Triple, patients []fairhealth.Patient) error
	Close() error
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "preload a synthetic demo dataset")
	demoSeed := flag.Int64("demo-seed", 1, "demo dataset seed")
	demoUsers := flag.Int("demo-users", 60, "demo dataset patients")
	delta := flag.Float64("delta", 0.5, "peer threshold δ")
	k := flag.Int("k", 10, "personal list size (fairness)")
	aggr := flag.String("aggr", "avg", "group aggregation: avg | min | max | median | consensus")
	scorer := flag.String("scorer", "", "default relevance scorer for queries that name none: "+strings.Join(scoring.Names(), " | ")+" (empty = user-cf)")
	cacheTTL := flag.Duration("cache-ttl", 0, "lifetime of warm similarity rows and peer sets across requests (0 = never expire)")
	cacheMaxEntries := flag.Int("cache-max-entries", 0, "LRU bound per cache layer (0 = unbounded)")
	cacheMaxCost := flag.Int64("cache-max-cost", 0, "size-aware cost budget per cache layer (0 = unbounded)")
	candidateIndex := flag.Bool("candidate-index", false, "enable the cluster peer-candidate index (⌈√n⌉ clusters) for opt-in approx queries")
	partitions := flag.Int("partitions", 0, "serve from N in-process consistent-hash partitions behind the partition router, the same router -partition-peers runs over the network (0 or 1 = unpartitioned)")
	partitionListen := flag.String("partition-listen", "", "worker mode: serve the binary partition transport on this address instead of HTTP (pair with a coordinator started with -partition-peers)")
	partitionPeers := flag.String("partition-peers", "", "coordinator mode: comma-separated worker transport addresses; group serving fans out to them over coalesced binary RPCs")
	state := flag.String("state", "", "state directory for durable storage (empty = in-memory)")
	timeout := flag.Duration("timeout", httpapi.DefaultTimeout, "per-request timeout (negative disables)")
	maxInFlight := flag.Int("max-inflight", httpapi.DefaultMaxInFlight, "max concurrently served requests, 429 beyond (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGINT/SIGTERM shutdown waits for in-flight requests to finish")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (empty = disabled; never exposed on the API listener)")
	flag.Parse()

	logger := log.New(os.Stderr, "iphrd ", log.LstdFlags)
	cfg := fairhealth.Config{
		Delta: *delta, K: *k, Aggregation: *aggr, Scorer: *scorer,
		CacheTTL: *cacheTTL, CacheMaxEntries: *cacheMaxEntries, CacheMaxCost: *cacheMaxCost,
		CandidateIndex: *candidateIndex,
	}
	if *partitionListen != "" {
		if *partitions > 1 || *partitionPeers != "" || *state != "" || *demo {
			logger.Fatalf("config: -partition-listen (worker mode) is exclusive with -partitions, -partition-peers, -state, and -demo — workers receive all state from their coordinator")
		}
		runWorker(logger, cfg, *partitionListen, *pprofAddr)
		return
	}

	var sys backend
	var err error
	switch {
	case *partitionPeers != "":
		if *partitions > 1 || *state != "" {
			logger.Fatalf("config: -partition-peers (networked coordinator) is exclusive with -partitions and -state (networked state lives in the workers plus the coordinator's journal)")
		}
		var coord *partition.Networked
		coord, err = partition.NewNetworked(cfg, splitPeers(*partitionPeers), partition.NetOptions{})
		if err == nil {
			snap := coord.TransportStats()
			logger.Printf("networked partitioned serving: %d/%d peers live (%s)", snap.PeersLive, snap.PeersTotal, *partitionPeers)
		}
		sys = coord
	case *partitions > 1:
		var coord *partition.Coordinator
		opt := partition.Options{Partitions: *partitions}
		if *state != "" {
			coord, err = partition.NewPersistent(cfg, opt, *state)
		} else {
			coord, err = partition.New(cfg, opt)
		}
		if err == nil {
			st := coord.Stats()
			logger.Printf("partitioned serving: %d partitions; %d ratings, %d patients", coord.PartitionCount(), st.Ratings, st.Patients)
		}
		sys = coord
	case *state != "":
		var s *fairhealth.System
		s, err = fairhealth.NewPersistent(cfg, *state)
		if err == nil {
			st := s.Stats()
			logger.Printf("restored state from %s: %d ratings, %d patients", *state, st.Ratings, st.Patients)
		}
		sys = s
	default:
		sys, err = fairhealth.New(cfg)
	}
	if err != nil {
		logger.Fatalf("config: %v", err)
	}

	if *demo && sys.Stats().Ratings > 0 {
		logger.Printf("state already populated; skipping demo load")
		*demo = false
	}
	if *demo {
		start := time.Now()
		ds, err := dataset.Generate(dataset.Config{Seed: *demoSeed, Users: *demoUsers, Items: 120, RatingsPerUser: 25})
		if err != nil {
			logger.Fatalf("demo dataset: %v", err)
		}
		var patients []fairhealth.Patient
		for _, id := range ds.Profiles.IDs() {
			prof, err := ds.Profiles.Get(id)
			if err != nil {
				logger.Fatalf("demo profile: %v", err)
			}
			problems := make([]string, len(prof.Problems))
			for i, c := range prof.Problems {
				problems[i] = string(c)
			}
			patients = append(patients, fairhealth.Patient{
				ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: problems, Medications: prof.Medications,
			})
		}
		triples := ds.Ratings.Triples()
		if err := sys.Load(triples, patients); err != nil {
			logger.Fatalf("demo load: %v", err)
		}
		for _, d := range ds.Documents {
			if err := sys.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
				logger.Fatalf("demo document: %v", err)
			}
		}
		// Not Stats(): its item count reads the ratings snapshot, and
		// building that here would move the first query's work into
		// start-up.
		logger.Printf("demo data loaded in %v: %d patients, %d ratings, %d documents",
			time.Since(start).Round(time.Millisecond), len(patients), len(triples), len(ds.Documents))
	}

	// The profiler gets its own mux on its own listener: the handlers
	// are registered explicitly (not via the net/http/pprof import's
	// DefaultServeMux side effect, which the API server never serves
	// anyway), so /debug/pprof cannot leak onto the /v1 address no
	// matter how the main handler chain evolves. Off by default —
	// profiling is an operator action, not a standing endpoint.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof: %v", err)
			}
		}()
		logger.Printf("pprof listening on %s (debug only; keep off public interfaces)", *pprofAddr)
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: httpapi.NewWithOptions(sys, httpapi.Options{
			Logger:      logger,
			Timeout:     *timeout,
			MaxInFlight: *maxInFlight,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Serve until the listener fails or a shutdown signal arrives.
	// SIGINT/SIGTERM drain gracefully: the listener closes immediately,
	// in-flight requests get up to -drain-timeout to finish, and only
	// then is the System closed (cache janitors stopped, WAL released)
	// — a kill no longer drops requests mid-flight or skips Close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			sys.Close()
			logger.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		logger.Printf("shutdown signal received; draining for up to %v", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
		<-serveErr // ListenAndServe has returned ErrServerClosed by now
	}
	if err := sys.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	fmt.Println("bye")
}

// splitPeers parses the -partition-peers list, dropping empty
// segments so a trailing comma is not a phantom worker.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runWorker is -partition-listen mode: one full replica serving the
// binary partition transport instead of HTTP. All state arrives from
// the coordinator (replicated writes, compressed journal catch-up),
// so the worker starts empty and converges. The scoring flags must
// match the coordinator's — the Hello handshake enforces it via the
// config fingerprint.
func runWorker(logger *log.Logger, cfg fairhealth.Config, addr, pprofAddr string) {
	sys, err := fairhealth.New(cfg)
	if err != nil {
		logger.Fatalf("config: %v", err)
	}
	if pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		psrv := &http.Server{Addr: pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof: %v", err)
			}
		}()
	}
	srv := transport.NewServer(sys, partition.ConfigFingerprint(sys.Config()))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", addr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Printf("partition worker listening on %s (fingerprint %s)", addr, partition.ConfigFingerprint(sys.Config()))
	select {
	case err := <-serveErr:
		if err != nil {
			sys.Close()
			logger.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		logger.Printf("shutdown signal received")
		srv.Close()
		<-serveErr
	}
	if err := sys.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	fmt.Println("bye")
}
