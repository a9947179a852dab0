package loadtest

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/httpapi"
)

// liveSystem builds a small seeded community for driving real load.
func liveSystem(t *testing.T, cfg fairhealth.Config) (*fairhealth.System, Config) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 1, Users: 24, Items: 40, RatingsPerUser: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fairhealth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	users := make([]string, 0, 24)
	for _, id := range ds.Profiles.IDs() {
		users = append(users, string(id))
	}
	items := make([]string, 0, 40)
	for _, d := range ds.Documents {
		items = append(items, string(d.ID))
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := sys.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	return sys, Config{
		Seed:  42,
		Users: users,
		Items: items,
	}
}

// TestGeneratorDeterminism: the same (Config, worker) always yields
// the same operation stream, and distinct workers diverge.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{
		Seed:     7,
		Requests: 1, // generator-only: defaults just need a valid mode
		Users:    []string{"u1", "u2", "u3", "u4", "u5", "u6"},
		Items:    []string{"i1", "i2", "i3"},
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	take := func(worker, n int) []Op {
		g := NewGenerator(cfg, worker)
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = g.Next()
		}
		return ops
	}
	if !reflect.DeepEqual(take(0, 200), take(0, 200)) {
		t.Fatal("worker 0 stream not reproducible")
	}
	if !reflect.DeepEqual(take(3, 200), take(3, 200)) {
		t.Fatal("worker 3 stream not reproducible")
	}
	if reflect.DeepEqual(take(0, 200), take(1, 200)) {
		t.Fatal("distinct workers generated identical streams")
	}
	// The mix actually mixes: a long stream hits every weighted class.
	seen := map[Class]bool{}
	for _, op := range take(0, 2000) {
		seen[op.Class] = true
	}
	for _, cl := range Classes {
		if !seen[cl] {
			t.Errorf("class %s never generated by the default mix", cl)
		}
	}
}

// recordingTarget captures the ops a Run executes (no real work).
type recordingTarget struct {
	mu  sync.Mutex
	ops []Op
}

func (r *recordingTarget) Do(_ context.Context, op Op) error {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return nil
}

// TestRunBudgetDeterminism: two budget-mode runs with one worker
// replay the identical request stream end to end.
func TestRunBudgetDeterminism(t *testing.T) {
	cfg := Config{
		Seed:     9,
		Workers:  1,
		Requests: 300,
		Users:    []string{"a", "b", "c", "d"},
		Items:    []string{"x", "y"},
	}
	var first, second recordingTarget
	if _, err := Run(context.Background(), &first, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), &second, cfg); err != nil {
		t.Fatal(err)
	}
	if len(first.ops) != 300 {
		t.Fatalf("budget run executed %d ops, want 300", len(first.ops))
	}
	if !reflect.DeepEqual(first.ops, second.ops) {
		t.Fatal("same-seed budget runs executed different streams")
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Users: []string{"u"}, Items: []string{"i"}}
	if _, err := Run(context.Background(), &recordingTarget{}, base); err == nil {
		t.Error("neither Requests nor Duration set: want error")
	}
	both := base
	both.Requests, both.Duration = 10, time.Second
	if _, err := Run(context.Background(), &recordingTarget{}, both); err == nil {
		t.Error("both Requests and Duration set: want error")
	}
	noUsers := Config{Requests: 10}
	if _, err := Run(context.Background(), &recordingTarget{}, noUsers); err == nil {
		t.Error("no Users: want error")
	}
	noItems := Config{Requests: 10, Users: []string{"u"}}
	if _, err := Run(context.Background(), &recordingTarget{}, noItems); err == nil {
		t.Error("rating writes in mix without Items: want error")
	}
}

// TestRunAgainstLiveSystem drives real mixed load in-process and
// checks the report's shape: every class served, latencies ordered,
// RPS consistent with counts.
func TestRunAgainstLiveSystem(t *testing.T) {
	sys, cfg := liveSystem(t, fairhealth.Config{Delta: 0.3, MinOverlap: 2, K: 6})
	cfg.Workers = 4
	cfg.Requests = 160
	rep, err := Run(context.Background(), InProc{Sys: sys}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps != 160 {
		t.Fatalf("TotalOps = %d, want 160", rep.TotalOps)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("load against a healthy system produced %d errors: %+v", rep.TotalErrors, rep.Classes)
	}
	if rep.RPS <= 0 || rep.ElapsedSeconds <= 0 {
		t.Fatalf("degenerate throughput: %+v", rep)
	}
	var sum uint64
	for cl, c := range rep.Classes {
		sum += c.Count
		if c.Count == 0 {
			continue
		}
		if !(c.P50Ns <= c.P95Ns && c.P95Ns <= c.P99Ns && c.P99Ns <= c.MaxNs) {
			t.Errorf("%s: quantiles out of order: %+v", cl, c)
		}
		if c.RPS <= 0 {
			t.Errorf("%s: zero RPS with count %d", cl, c.Count)
		}
	}
	if sum != rep.TotalOps {
		t.Errorf("class counts sum to %d, total %d", sum, rep.TotalOps)
	}
}

// TestRunWithConcurrentTTLAdaptation is the -race satellite: sustained
// mixed load (including cache-flushing writes) runs under a short TTL
// and a small cost budget, so lazy expiry and cost eviction fire
// mid-load, while a concurrent scraper reads the cache stats and age
// histograms. Nothing may race, error, or deadlock, and every layer
// keeps the configured lease.
func TestRunWithConcurrentTTLAdaptation(t *testing.T) {
	const ttl = 30 * time.Millisecond
	sys, cfg := liveSystem(t, fairhealth.Config{
		Delta: 0.3, MinOverlap: 2, K: 6,
		CacheTTL:     ttl,
		CacheMaxCost: 2048,
	})
	cfg.Workers = 4
	cfg.Requests = 120
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			sys.CacheStats()
			time.Sleep(time.Millisecond)
		}
	}()
	rep, err := Run(context.Background(), InProc{Sys: sys}, cfg)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("errors under expiry and cost eviction: %+v", rep.Classes)
	}
	st := sys.CacheStats()
	for name, c := range map[string]fairhealth.CacheCounters{"similarity": st.Similarity, "peers": st.Peers, "groups": st.Groups} {
		if c.TTLSeconds != ttl.Seconds() {
			t.Errorf("%s lease = %vs, want %v", name, c.TTLSeconds, ttl)
		}
	}
}

// TestRunDurationMode: a wall-clock-bounded run terminates on time and
// still reports completed work.
func TestRunDurationMode(t *testing.T) {
	sys, cfg := liveSystem(t, fairhealth.Config{Delta: 0.3, MinOverlap: 2, K: 6})
	cfg.Workers = 2
	cfg.Duration = 150 * time.Millisecond
	start := time.Now()
	rep, err := Run(context.Background(), InProc{Sys: sys}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("duration-mode run overran its bound: %v", elapsed)
	}
	if rep.TotalOps == 0 {
		t.Fatal("duration-mode run completed no operations")
	}
}

// TestHTTPTargetAgainstLiveServer drives the full serving stack — v1
// routes, middleware, JSON — through the HTTP target, including the
// NDJSON stream class and both write classes.
func TestHTTPTargetAgainstLiveServer(t *testing.T) {
	sys, cfg := liveSystem(t, fairhealth.Config{Delta: 0.3, MinOverlap: 2, K: 6})
	srv := httptest.NewServer(httpapi.New(sys, log.New(io.Discard, "", 0)))
	t.Cleanup(srv.Close)
	tgt, err := ParseTarget(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	cfg.Requests = 90
	rep, err := Run(context.Background(), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps != 90 || rep.TotalErrors != 0 {
		t.Fatalf("HTTP load: ops=%d errors=%d: %+v", rep.TotalOps, rep.TotalErrors, rep.Classes)
	}
}

func TestParseTarget(t *testing.T) {
	if tgt, err := ParseTarget("inproc", nil); err != nil || tgt != nil {
		t.Errorf("ParseTarget(inproc) = %v, %v", tgt, err)
	}
	if _, err := ParseTarget("not a url", nil); err == nil {
		t.Error("garbage target accepted")
	}
	if _, err := ParseTarget("ftp://host", nil); err == nil {
		t.Error("non-http scheme accepted")
	}
	tgt, err := ParseTarget("http://localhost:1234/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := tgt.(HTTP); !ok || h.BaseURL != "http://localhost:1234" {
		t.Errorf("ParseTarget = %+v (trailing slash should be trimmed)", tgt)
	}
}

// TestMergeBenchFile: the "load" section lands beside existing bench
// content without clobbering it, meta fills only missing keys, and a
// fresh file is created when none exists.
func TestMergeBenchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-01-01.json")
	existing := `{"date":"2026-01-01","benchtime":"1x","benchmarks":[{"name":"BenchmarkX","ns_per_op":12.5}]}`
	if err := os.WriteFile(path, []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := Report{Seed: 42, Workers: 4, TotalOps: 100, RPS: 50,
		Classes: map[string]ClassReport{"group_single": {Count: 100, RPS: 50, P50Ns: 1000}}}
	if err := MergeBenchFile(path, rep, map[string]any{"date": "CLOBBERED", "commit": "abc1234"}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["date"] != "2026-01-01" {
		t.Errorf("existing date clobbered: %v", doc["date"])
	}
	if doc["commit"] != "abc1234" {
		t.Errorf("missing meta key not filled: %v", doc["commit"])
	}
	if _, ok := doc["benchmarks"]; !ok {
		t.Error("benchmarks section lost in merge")
	}
	load, ok := doc["load"].(map[string]any)
	if !ok {
		t.Fatalf("no load section: %v", doc)
	}
	if load["total_ops"] != float64(100) {
		t.Errorf("load.total_ops = %v", load["total_ops"])
	}

	fresh := filepath.Join(dir, "BENCH_new.json")
	if err := MergeBenchFile(fresh, rep, map[string]any{"date": "2026-01-02"}); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	doc = nil
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["date"] != "2026-01-02" {
		t.Errorf("fresh file meta missing: %v", doc)
	}
}
