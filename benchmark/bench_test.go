package main

// Unit tests for the pure parts: the op stream, the percentile and
// span arithmetic, the answer checker, and the registry ↔
// BENCHMARK.json agreement. No process is spawned.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fairhealth"
)

func testCorpus() corpus {
	var c corpus
	for i := 0; i < corpusUsers; i++ {
		c.users = append(c.users, fmt.Sprintf("patient%04d", i))
	}
	for i := 0; i < corpusItems; i++ {
		c.items = append(c.items, fmt.Sprintf("doc%04d", i))
	}
	return c
}

// take draws n main-schedule ops, a batch and a write from each client.
func take(p *plan, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		s := p.client(c)
		for i := 0; i < n; i++ {
			out[c] = append(out[c], s.next())
		}
		out[c] = append(out[c], s.nextBatch(), s.nextWrite())
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, churn := range []bool{false, true} {
		a := take(newPlan(7, churn, testCorpus()), 500)
		b := take(newPlan(7, churn, testCorpus()), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("churn=%v: two plans with seed 7 produced different streams", churn)
		}
		c := take(newPlan(8, churn, testCorpus()), 500)
		if reflect.DeepEqual(a, c) {
			t.Errorf("churn=%v: seeds 7 and 8 produced the same stream", churn)
		}
		if !reflect.DeepEqual(newPlan(7, churn, testCorpus()).probeSet(), newPlan(7, churn, testCorpus()).probeSet()) {
			t.Errorf("churn=%v: probe set is not a function of the seed", churn)
		}
	}
}

func TestPhasesDoNotShiftEachOther(t *testing.T) {
	// How far the main phase ran must not change what the batch phase
	// or the write burst sends.
	p := newPlan(3, true, testCorpus())
	a, b := p.client(0), p.client(0)
	for i := 0; i < 100; i++ {
		a.next()
	}
	if !reflect.DeepEqual(a.nextBatch(), b.nextBatch()) {
		t.Error("batch phase depends on main-phase progress")
	}
}

func TestChurnScheduleShares(t *testing.T) {
	const n = 2000 // a multiple of writeEvery and of 4 queries per rotation
	p := newPlan(1, true, testCorpus())
	index := make(map[string]int)
	for i, u := range p.users {
		index[u] = i
	}
	seenGroups := make(map[string]bool)
	for c := 0; c < clients; c++ {
		s := p.client(c)
		writes := 0
		scorers := make(map[string]int)
		for i := 0; i < n; i++ {
			o := s.next()
			if (i%writeEvery == writeEvery-1) != (o.kind == opWrite) {
				t.Fatalf("client %d op %d: kind %v breaks the 1-in-%d write schedule", c, i, o.kind, writeEvery)
			}
			switch o.kind {
			case opWrite:
				writes++
				if index[o.user]%clients != c {
					t.Fatalf("client %d wrote %s, which belongs to client %d", c, o.user, index[o.user]%clients)
				}
				if o.value < 1 || o.value > 5 {
					t.Fatalf("rating %v outside 1..5", o.value)
				}
			case opQuery:
				q := o.queries[0]
				scorers[q.scorer]++
				if len(q.members) != groupSize || q.hot != -1 {
					t.Fatalf("churn query %+v is not a fresh group of %d", q, groupSize)
				}
				key := fmt.Sprint(c, q.members)
				if seenGroups[key] {
					t.Fatalf("client %d repeated group %v", c, q.members)
				}
				seenGroups[key] = true
			}
		}
		if writes != n/writeEvery {
			t.Errorf("client %d: %d writes in %d ops, want exactly %d", c, writes, n, n/writeEvery)
		}
		queries := n - writes
		if scorers["user-cf"] != queries/2 || scorers["item-cf"] != queries/4 || scorers["profile"] != queries/4 {
			t.Errorf("client %d: scorer shares %v over %d queries, want 2:1:1", c, scorers, queries)
		}
	}
}

func TestWarmStreamStaysInHotPool(t *testing.T) {
	p := newPlan(1, false, testCorpus())
	if len(p.hot) != hotPoolSize {
		t.Fatalf("hot pool has %d groups", len(p.hot))
	}
	s := p.client(1)
	for i := 0; i < 1000; i++ {
		o := s.next()
		if o.kind != opQuery || o.queries[0].hot < 0 || !reflect.DeepEqual(o.queries[0].members, p.hot[o.queries[0].hot]) {
			t.Fatalf("warm op %d is not a hot-pool query: %+v", i, o)
		}
	}
	if b := s.nextBatch(); len(b.queries) != batchQueries {
		t.Errorf("batch has %d queries", len(b.queries))
	}
}

func TestPercentile(t *testing.T) {
	vals := []int64{50, 10, 40, 20, 30}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 30}, {0.99, 50}, {0.2, 10}, {0.21, 20}, {1, 50}} {
		if got := percentile(append([]int64(nil), vals...), tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestSegmentPercentile(t *testing.T) {
	// Five 1 s segments with medians 1,2,100,3,4: the blip in the
	// middle segment must not own the result.
	var samples []sample
	for seg, lat := range []int64{1, 2, 100, 3, 4} {
		for k := 0; k < 3; k++ {
			samples = append(samples, sample{at: int64(seg)*1e9 + int64(k), lat: lat})
		}
	}
	if got := segmentPercentile(samples, 5e9, 5, 0.5); got != 3 {
		t.Errorf("segment median = %v, want 3", got)
	}
	// One segment: the plain percentile.
	if got := segmentPercentile(samples, 5e9, 1, 1); got != 100 {
		t.Errorf("single-segment max = %v, want 100", got)
	}
	// A sample stamped at the very end falls in the last segment, and
	// empty segments are skipped.
	if got := segmentPercentile([]sample{{at: 5e9, lat: 7}}, 5e9, 5, 0.5); got != 7 {
		t.Errorf("lone late sample = %v, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 25},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - (50 + 10), // a∪b covers 10..60, c covers 90..100
		2: 30 - 15,
		3: 30,
		4: 30,
		5: 15,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestCheckShape(t *testing.T) {
	ok := answer{items: []fairhealth.Recommendation{{Item: "a", Score: 1}, {Item: "b", Score: 2}}, fairness: 1}
	if err := checkShape(ok, 2); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	if checkShape(ok, 1) == nil {
		t.Error("more than z items accepted")
	}
	dup := answer{items: []fairhealth.Recommendation{{Item: "a"}, {Item: "a"}}, fairness: 0.5}
	if checkShape(dup, 8) == nil {
		t.Error("duplicated item accepted")
	}
	for _, f := range []float64{math.Nextafter(1, 2), -0.01, math.NaN()} {
		if checkShape(answer{fairness: f}, 8) == nil {
			t.Errorf("fairness %v accepted", f)
		}
	}
}

func TestSameAnswerIsBitExact(t *testing.T) {
	want := answer{items: []fairhealth.Recommendation{{Item: "a", Score: 3.0798940983009615}}, fairness: 1, value: 24.156309931228332}
	if err := sameAnswer(want, want); err != nil {
		t.Fatalf("identical answers differ: %v", err)
	}
	ulp := want
	ulp.items = []fairhealth.Recommendation{{Item: "a", Score: math.Nextafter(want.items[0].Score, 4)}}
	if sameAnswer(ulp, want) == nil {
		t.Error("a one-ulp score difference was accepted")
	}
	value := want
	value.value = math.Nextafter(want.value, 0)
	if sameAnswer(value, want) == nil {
		t.Error("a one-ulp value difference was accepted")
	}
	other := want
	other.items = []fairhealth.Recommendation{{Item: "b", Score: want.items[0].Score}}
	if sameAnswer(other, want) == nil {
		t.Error("a different item was accepted")
	}
	if sameAnswer(answer{fairness: 1, value: want.value}, want) == nil {
		t.Error("a missing item was accepted")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the registry: the same
// workloads, and exactly the registry's metrics with their units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, benchmark has %q", i, doc.Workloads[i].Name, w.name)
		}
		if n := len(doc.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(doc.Workloads[i].Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters (has %d)", w.name, n)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the registry", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d is %s [%s], registry has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the registry", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d is %s [%s], registry has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
}
