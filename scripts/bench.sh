#!/usr/bin/env bash
# Runs the full benchmark suite and writes BENCH_<date>.json — one
# snapshot per run for the perf trajectory across PRs.
#
# Usage:
#   scripts/bench.sh                 # full run (default benchtime)
#   BENCHTIME=1x scripts/bench.sh    # CI smoke: one iteration each
#   BENCH=GroupBatch scripts/bench.sh  # filter by benchmark regex
#
# The perf trajectory lives in ten families included in every run:
# BenchmarkScopedInvalidation (warm scoped eviction vs cold full-flush
# serving), BenchmarkRatingsWriteThroughput (sharded vs single-lock
# store under concurrent writers), BenchmarkWarmCacheTTL (serving
# inside vs past the internal/cache warm-cache TTL),
# BenchmarkScorerServe (group serving per relevance backend — user-cf
# vs item-cf vs profile — warm group-relevance cache vs cold after a
# write), BenchmarkClustering (k-means build cost plus full-scan vs
# clustered peer discovery), BenchmarkCandidateIndex (peer
# discovery under the live candidate index — fullscan vs
# exact-prefilter vs approx, cold and post-write),
# BenchmarkPartitionedServe (group serving through the consistent-hash
# fan-out coordinator at 1/2/4 partitions, warm and cold-after-write),
# BenchmarkFlatKernels (the CSR/merge-join scoring kernels vs the
# retained map-based references: single-pair Pearson, full matrix
# build, cold and warm user-cf serve, greedy, and branch-and-bound
# brute force — tracked on ns/op AND allocs/op), and
# BenchmarkNetworkedServe (group serving through the networked
# coordinator over the binary transport
# against three loopback workers, warm and cold-after-write; its
# members/rpc and rpcs/serve counters land in the snapshot as
# members_per_rpc / rpcs_per_serve so the fan-out coalescing ratio is
# part of the trajectory, not just latency), and BenchmarkGroupBatch
# (16 group queries one by one vs through ServeBatch).
#
# The script exits non-zero — without writing the output file — when
# the benchmark run itself fails or parses to zero results, so a broken
# build can never leave a partial BENCH_<date>.json in the trajectory.
#
# Every snapshot is stamped with the commit it measured and the CPU
# count it ran on, so trajectory entries stay comparable. A same-day
# re-run never silently overwrites a baseline that is already committed
# to git: the default output name gains a _r2/_r3/... suffix instead
# (an explicit OUT= is honoured as given).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-1s}"
default_out="BENCH_$(date +%Y-%m-%d).json"
OUT="${OUT:-}"
if [ -z "$OUT" ]; then
    OUT="$default_out"
    # Committed baselines are immutable history: re-running on the
    # same day writes a suffixed sibling instead of rewriting it.
    if git ls-files --error-unmatch "$OUT" >/dev/null 2>&1; then
        n=2
        while git ls-files --error-unmatch "${OUT%.json}_r$n.json" >/dev/null 2>&1 \
              || [ -e "${OUT%.json}_r$n.json" ]; do
            n=$((n + 1))
        done
        OUT="${OUT%.json}_r$n.json"
        echo "scripts/bench.sh: $default_out is committed; writing $OUT instead" >&2
    fi
fi
raw="$(mktemp)"
out_tmp="$(mktemp)"
trap 'rm -f "$raw" "$out_tmp"' EXIT

if ! go test -run='^$' -bench="$BENCH" -benchmem -benchtime="$BENCHTIME" ./... | tee "$raw"; then
    echo "scripts/bench.sh: go test -bench failed; not writing $OUT" >&2
    exit 1
fi

# Convert `go test -bench` text output into a JSON document. With
# -benchmem each result line is:
#   BenchmarkName-P   N   T ns/op   B B/op   A allocs/op
# Custom b.ReportMetric units (members/rpc, rpcs/serve on the
# networked-serving family) appear as extra "V unit" pairs on the same
# line and are captured into dedicated JSON fields.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go version | awk '{print $3}')" \
    -v benchtime="$BENCHTIME" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
BEGIN { n = 0 }
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    iters = $2
    ns = $3
    bytes = ""; allocs = ""; members = ""; rpcs = ""
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")        bytes = $(i - 1)
        if ($i == "allocs/op")   allocs = $(i - 1)
        if ($i == "members/rpc") members = $(i - 1)
        if ($i == "rpcs/serve")  rpcs = $(i - 1)
    }
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (bytes != "")   line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "")  line = line sprintf(", \"allocs_per_op\": %s", allocs)
    if (members != "") line = line sprintf(", \"members_per_rpc\": %s", members)
    if (rpcs != "")    line = line sprintf(", \"rpcs_per_serve\": %s", rpcs)
    line = line "}"
    lines[n++] = line
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++)
        printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$raw" > "$out_tmp"

count="$(grep -c '"name"' "$out_tmp" || true)"
if [ "$count" -eq 0 ]; then
    echo "scripts/bench.sh: no benchmark results parsed; not writing $OUT" >&2
    exit 1
fi
mv "$out_tmp" "$OUT"
# the EXIT trap's rm of the moved tmp file is now a no-op

echo "wrote $OUT ($count benchmarks)"
