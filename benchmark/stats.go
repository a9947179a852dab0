package main

// Pure arithmetic over latency samples and spans: nearest-rank
// percentiles, the segment-median percentile the end-to-end timings
// use, and span self time.

import (
	"math"
	"slices"
	"sort"
)

// segments is how many equal slices of a phase a percentile is taken
// over before the median of the slices is reported, so one
// noisy-neighbour blip cannot own the tail.
const segments = 5

// sample is one completed request: when it started (ns since the phase
// began), how long the round trip took, and whether the client traced
// it.
type sample struct {
	at     int64
	lat    int64
	traced bool
}

// percentile is the nearest-rank q-quantile of vals (0 < q ≤ 1), which
// it sorts in place. Empty input yields 0.
func percentile(vals []int64, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[max(int(math.Ceil(q*float64(len(vals))))-1, 0)]
}

// median of float values (mean of the middle pair when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// segmentPercentile splits [0, phaseNS) into n equal segments by
// sample start time, takes the q-percentile of each non-empty segment,
// and returns the median of those.
func segmentPercentile(samples []sample, phaseNS int64, n int, q float64) float64 {
	if len(samples) == 0 || phaseNS <= 0 || n < 1 {
		return 0
	}
	buckets := make([][]int64, n)
	for _, s := range samples {
		k := min(max(int(s.at*int64(n)/phaseNS), 0), n-1)
		buckets[k] = append(buckets[k], s.lat)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, float64(percentile(b, q)))
		}
	}
	return median(per)
}

// span is one traced interval. Spans of one request share Req; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover (children may overlap
// each other and may stick out of the parent; only the covered part
// inside the parent counts).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanStats collects durations and self times by span name.
type spanStats struct {
	dur  map[string][]int64
	self map[string][]int64
}

func summarizeSpans(spans []span) spanStats {
	st := spanStats{dur: make(map[string][]int64), self: make(map[string][]int64)}
	self := selfTimes(spans)
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.End-s.Start)
		st.self[s.Name] = append(st.self[s.Name], self[s.ID])
	}
	return st
}

// p50ns is the median of ns durations; it leaves ns as it is.
func p50ns(ns []int64) float64 { return float64(percentile(slices.Clone(ns), 0.5)) }

// p50us is the median of ns durations, in µs.
func p50us(ns []int64) float64 { return p50ns(ns) / 1e3 }
