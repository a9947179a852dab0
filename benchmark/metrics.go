package main

// The metric registry: every name the benchmark reports, with its
// unit. BENCHMARK.json lists exactly these (a unit test compares the
// two), and every workload reports every one of them.

import (
	"fmt"
	"io"
	"sort"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the client-observed metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"group_p50_ms", "ms"},
	{"group_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run and the
// layer walk. Names are <package>.<what>; timings are medians.
var perLayer = []metricDef{
	// client spans of the traced run
	{"client.encode_us", "us"},
	{"client.roundtrip_us", "us"},
	{"client.decode_us", "us"},
	{"client.check_us", "us"},
	{"trace.overhead_pct", "%"},
	// the machine-speed probe: a fixed piece of work outside the system
	{"machine.probe_ms", "ms"},
	// tail and recovery timings too noisy to bound end to end
	{"write_p99_ms", "ms"},
	{"restart_s", "s"},
	// counts at layer boundaries: /v1/stats and /proc deltas
	{"cache.groups.hit_ratio", "ratio"},
	{"cache.peers.hit_ratio", "ratio"},
	{"cache.similarity.hit_ratio", "ratio"},
	{"cache.groups.entries", "count"},
	{"cache.similarity.entries", "count"},
	{"httpapi.rejected", "count"},
	{"transport.rpcs_per_serve", "count"},
	{"transport.members_per_rpc", "count"},
	{"transport.bytes_in_per_serve", "B"},
	{"transport.bytes_out_per_serve", "B"},
	{"transport.rpcs_per_write", "count"},
	{"transport.retries", "count"},
	{"transport.errors", "count"},
	{"partition.routed_share_max", "ratio"},
	{"proc.cpu_ms_per_op.coordinator", "ms"},
	{"proc.cpu_ms_per_op.workers", "ms"},
	{"proc.rss_mb.coordinator", "MB"},
	{"proc.rss_mb.workers", "MB"},
	{"wal.bytes_per_write", "B"},
	// the layer walk
	{"system.serve_us.memo_hit", "us"},
	{"system.serve_us.memo_miss", "us"},
	{"system.serve_us.after_write", "us"},
	{"system.serve_us.after_flush", "us"},
	{"system.serve_batch16_us", "us"},
	{"system.add_rating_us", "us"},
	{"system.add_patient_us", "us"},
	{"query.normalize_us", "us"},
	{"scoring.usercf.relevances_us.warm", "us"},
	{"scoring.usercf.relevances_us.after_write", "us"},
	{"scoring.itemcf.relevances_us.warm", "us"},
	{"scoring.itemcf.relevances_us.after_write", "us"},
	{"scoring.profile.relevances_us.warm", "us"},
	{"scoring.profile.relevances_us.after_write", "us"},
	{"scoring.combine_us", "us"},
	{"cf.peers_us.warm", "us"},
	{"cf.peers_us.after_write", "us"},
	{"simfn.similarity_between_us", "us"},
	{"simfn.precompute_s", "s"},
	{"group.aggregate_us", "us"},
	{"core.lists_us", "us"},
	{"core.greedy_us", "us"},
	{"core.brute_us", "us"},
	{"core.fairness_mean", "ratio"},
	{"core.value_mean", "score"},
	{"httpapi.handler_us.group", "us"},
	{"httpapi.handler_us.rating", "us"},
	{"httpapi.encode_us", "us"},
	{"ratings.add_us", "us"},
	{"wal.append_us", "us"},
	{"wal.replay_ms_per_10k", "ms"},
	{"partition.coordinator.serve_us.memo_hit", "us"},
	{"partition.coordinator.serve_us.after_write", "us"},
	{"partition.coordinator.add_rating_us", "us"},
	{"partition.networked.serve_us.warm", "us"},
	{"partition.networked.serve_us.after_write", "us"},
	{"partition.networked.add_rating_us", "us"},
	{"partition.ring.owner_ns", "ns"},
	{"transport.relevances_rpc_us", "us"},
	{"transport.apply_rpc_us", "us"},
	{"transport.compress_mb_per_s", "MB/s"},
	{"transport.compress_ratio", "ratio"},
	{"budget.unattributed_pct", "%"},
}

// measured is one reported value with the sample count behind it
// (0 where a count makes no sense, such as a ratio of counters).
type measured struct {
	value float64
	n     int
}

// results maps metric name → value for one run of one workload.
type results map[string]measured

func (r results) set(name string, value float64, n int) { r[name] = measured{value, n} }

// missing lists the metrics of defs that r does not carry.
func (r results) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes the metrics of defs that r carries, one per line.
func (r results) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if m, ok := r[d.name]; ok {
			if m.n > 0 {
				fmt.Fprintf(w, "  %-44s %14.4f %-6s n=%d\n", d.name, m.value, d.unit, m.n)
			} else {
				fmt.Fprintf(w, "  %-44s %14.4f %s\n", d.name, m.value, d.unit)
			}
		}
	}
}

// wire renders the metrics of defs in the driver's result format.
func (r results) wire(defs []metricDef) map[string]map[string]any {
	out := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		if m, ok := r[d.name]; ok {
			out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
		}
	}
	return out
}

// spread prints min / median / max per metric over repeated runs.
func spread(w io.Writer, defs []metricDef, runs []results) {
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			if m, ok := r[d.name]; ok {
				vals = append(vals, m.value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		fmt.Fprintf(w, "  %-44s min %12.4f  median %12.4f  max %12.4f %s\n",
			d.name, vals[0], median(vals), vals[len(vals)-1], d.unit)
	}
}
