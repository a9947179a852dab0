#!/usr/bin/env bash
# Compares a fresh BENCH_*.json against a committed baseline and fails
# on performance regressions — the perf gate CI runs after bench-smoke.
#
# Usage:
#   scripts/bench_compare.sh BASELINE.json FRESH.json [THRESHOLD_PCT]
#
# A benchmark regresses when its fresh ns/op — or its fresh allocs/op,
# when both files record allocations for it — exceeds the baseline by
# more than THRESHOLD_PCT (default 25). The allocation gate keeps the
# flat-kernel work honest: an alloc-count regression reproduces
# deterministically even when wall-clock noise would hide it. Only the
# ten trajectory families are gated — the rest of the suite is
# informational, and single-iteration CI noise on micro-benchmarks
# would make a whole-suite gate flap:
#
#   BenchmarkScopedInvalidation
#   BenchmarkRatingsWriteThroughput
#   BenchmarkWarmCacheTTL
#   BenchmarkScorerServe
#   BenchmarkClustering
#   BenchmarkCandidateIndex
#   BenchmarkPartitionedServe
#   BenchmarkFlatKernels
#   BenchmarkNetworkedServe
#   BenchmarkGroupBatch
#
# Override the gated set with FAMILIES="PrefixA PrefixB". Benchmarks
# present in only one file are reported but never fail the gate (new
# benchmarks appear, retired ones vanish). Exits 1 when any gated
# benchmark regresses, 2 on usage/parse errors.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASELINE.json FRESH.json [THRESHOLD_PCT]" >&2
    exit 2
fi
base="$1"
fresh="$2"
threshold="${3:-25}"
families="${FAMILIES:-BenchmarkScopedInvalidation BenchmarkRatingsWriteThroughput BenchmarkWarmCacheTTL BenchmarkScorerServe BenchmarkClustering BenchmarkCandidateIndex BenchmarkPartitionedServe BenchmarkFlatKernels BenchmarkNetworkedServe BenchmarkGroupBatch}"

for f in "$base" "$fresh"; do
    if [ ! -r "$f" ]; then
        echo "bench_compare: cannot read $f" >&2
        exit 2
    fi
done

# extract emits "name<TAB>ns_per_op<TAB>allocs_per_op" for every
# benchmark entry in a trajectory JSON (allocs_per_op is the literal
# "NA" when the entry records none — older snapshots predate
# -benchmem). It tokenizes rather than fully parsing: after tr splits
# the document on '{' and ',', every field of one entry lands on its
# own line and the entry's closing '}' survives on its last field's
# line, so fields accumulate until a '}' flushes the record. That makes
# the field order irrelevant — bench.sh's name→ns→allocs layout and an
# alphabetical re-serialization (allocs_per_op sorts before name) parse
# identically — without needing a JSON parser in CI. Duplicate names
# (the suite runs some packages twice) keep the last observation.
extract() {
    tr '{,' '\n\n' < "$1" | awk '
        /"name"[[:space:]]*:/ {
            line = $0
            sub(/.*"name"[[:space:]]*:[[:space:]]*"/, "", line)
            sub(/".*/, "", line)
            name = line
        }
        /"ns_per_op"[[:space:]]*:/ {
            line = $0
            sub(/.*"ns_per_op"[[:space:]]*:[[:space:]]*/, "", line)
            sub(/[^0-9.].*/, "", line)
            ns = line
        }
        /"allocs_per_op"[[:space:]]*:/ {
            line = $0
            sub(/.*"allocs_per_op"[[:space:]]*:[[:space:]]*/, "", line)
            sub(/[^0-9.].*/, "", line)
            allocs = line
        }
        /}/ {
            if (name != "" && ns != "") {
                if (allocs == "") allocs = "NA"
                print name "\t" ns "\t" allocs
            }
            name = ""; ns = ""; allocs = ""
        }'
}

base_pairs="$(mktemp)"
fresh_pairs="$(mktemp)"
trap 'rm -f "$base_pairs" "$fresh_pairs"' EXIT
extract "$base" > "$base_pairs"
extract "$fresh" > "$fresh_pairs"

if [ ! -s "$base_pairs" ]; then
    echo "bench_compare: no benchmarks parsed from $base" >&2
    exit 2
fi
if [ ! -s "$fresh_pairs" ]; then
    echo "bench_compare: no benchmarks parsed from $fresh" >&2
    exit 2
fi

awk -F'\t' -v threshold="$threshold" -v families="$families" \
    -v basefile="$base" -v freshfile="$fresh" '
FNR == 1 { file++ }
file == 1 { base[$1] = $2; basealloc[$1] = $3; next }
         { fresh[$1] = $2; freshalloc[$1] = $3 }
END {
    nfam = split(families, fam, /[[:space:]]+/)
    regressions = 0
    gated = 0
    for (name in fresh) {
        inFamily = 0
        for (i = 1; i <= nfam; i++)
            if (fam[i] != "" && index(name, fam[i]) == 1) { inFamily = 1; break }
        if (!inFamily)
            continue
        if (!(name in base)) {
            printf "  new      %-60s %12.0f ns/op (no baseline)\n", name, fresh[name]
            continue
        }
        gated++
        if (base[name] > 0) {
            delta = (fresh[name] - base[name]) / base[name] * 100
            if (delta > threshold) {
                printf "REGRESSED  %-60s %12.0f -> %12.0f ns/op (%+.1f%% > %s%%)\n", \
                    name, base[name], fresh[name], delta, threshold
                regressions++
            } else {
                printf "  ok       %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", \
                    name, base[name], fresh[name], delta
            }
        }
        # Allocation gate: only when both snapshots record allocs for
        # this benchmark (older baselines carry "NA" and are skipped).
        if (basealloc[name] != "NA" && basealloc[name] != "" && \
            freshalloc[name] != "NA" && freshalloc[name] != "" && basealloc[name] > 0) {
            adelta = (freshalloc[name] - basealloc[name]) / basealloc[name] * 100
            if (adelta > threshold) {
                printf "REGRESSED  %-60s %12.0f -> %12.0f allocs/op (%+.1f%% > %s%%)\n", \
                    name, basealloc[name], freshalloc[name], adelta, threshold
                regressions++
            }
        }
    }
    for (name in base) {
        inFamily = 0
        for (i = 1; i <= nfam; i++)
            if (fam[i] != "" && index(name, fam[i]) == 1) { inFamily = 1; break }
        if (inFamily && !(name in fresh))
            printf "  gone     %-60s (in %s only)\n", name, basefile
    }
    if (gated == 0) {
        printf "bench_compare: no gated benchmarks found in both files\n" > "/dev/stderr"
        exit 2
    }
    if (regressions > 0) {
        printf "bench_compare: %d regression(s) beyond %s%% (%s vs %s)\n", \
            regressions, threshold, freshfile, basefile > "/dev/stderr"
        exit 1
    }
    printf "bench_compare: %d gated benchmarks within %s%% of %s\n", gated, threshold, basefile
}' "$base_pairs" "$fresh_pairs"
