#!/usr/bin/env bash
# bench.sh — run the table benchmarks, record the results as JSON, and
# optionally gate against a committed baseline.
#
# Usage:
#
#   scripts/bench.sh [bench-regexp]
#       Run the benchmarks and write $OUT.
#
#   scripts/bench.sh -compare [baseline] [bench-regexp]
#       Run the benchmarks to a temporary file and compare ns/op
#       against the baseline (default BENCH_PR6.json) with
#       scripts/benchcmp. Exits non-zero when any benchmark regressed
#       by at least FAIL_PCT percent.
#
#   scripts/bench.sh -compare-files BASE NEW
#       Compare two existing result files without running anything.
#
# Environment:
#
#   IMPACT_BENCH_SCALE  trace scale passed to the suite (default 0.25,
#                       the same scale the acceptance numbers use)
#   BENCHTIME           go test -benchtime value (default 3x, so the
#                       memoized steady state shows up after the cold
#                       first iteration)
#   OUT                 output file (default BENCH_PR6.json)
#   WARN_PCT            -compare warning threshold (default 10)
#   FAIL_PCT            -compare failure threshold (default 25)
#
# The JSON maps each benchmark to its ns/op plus every custom metric
# the benchmark reports (miss2K%, traffic2K%, ...), so performance and
# correctness-bearing outputs are recorded side by side, along with the
# wall-clock seconds of the whole `go test -bench` invocation
# (wall_seconds, which includes the one-time suite preparation). The
# default pattern covers the table benchmarks, the BenchmarkAnalyze
# family (static analyzer priced against the trace-driven simulator,
# incremental re-analysis, and the page-level BenchmarkAnalyzePages),
# BenchmarkStreamSimulate (generate-and-simulate with no materialized
# trace), BenchmarkSearchParallel (the portfolio search), and the three
# ablations that re-run pipeline variants (A1 layout strategy, A3
# MIN_PROB, A6 global ordering), which place the prepared profile.
set -euo pipefail
cd "$(dirname "$0")/.."

WARN_PCT="${WARN_PCT:-10}"
FAIL_PCT="${FAIL_PCT:-25}"

compare() {
    go run ./scripts/benchcmp -base "$1" -new "$2" -warn "$WARN_PCT" -fail "$FAIL_PCT"
}

if [ "${1:-}" = "-compare-files" ]; then
    [ $# -eq 3 ] || { echo "usage: scripts/bench.sh -compare-files BASE NEW" >&2; exit 2; }
    compare "$2" "$3"
    exit
fi

MODE=run
BASELINE=BENCH_PR6.json
if [ "${1:-}" = "-compare" ]; then
    MODE=compare
    shift
    # An argument that is an existing .json file is the baseline; the
    # rest is the benchmark pattern.
    if [ $# -ge 1 ] && [[ "$1" == *.json ]]; then
        BASELINE="$1"
        shift
    fi
fi

SCALE="${IMPACT_BENCH_SCALE:-0.25}"
BENCHTIME="${BENCHTIME:-3x}"
PATTERN="${1:-^Benchmark(Table|Analyze|Stream|Search|Ablation(LayoutStrategy|MinProb|GlobalAlgo))}"
if [ "$MODE" = compare ]; then
    OUT="$(mktemp /tmp/bench.XXXXXX.json)"
else
    OUT="${OUT:-BENCH_PR6.json}"
fi

start=$(date +%s.%N)
raw=$(IMPACT_BENCH_SCALE="$SCALE" go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" .)
wall=$(date +%s.%N | awk -v s="$start" '{printf "%.1f", $1 - s}')
printf '%s\n' "$raw"

printf '%s\n' "$raw" | awk -v scale="$SCALE" -v benchtime="$BENCHTIME" -v wall="$wall" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    metrics = sprintf("\"ns/op\": %s", $3)
    for (i = 5; i + 1 <= NF; i += 2)
        metrics = metrics sprintf(", \"%s\": %s", $(i + 1), $i)
    entry[n++] = sprintf("    \"%s\": { %s }", name, metrics)
}
END {
    printf "{\n  \"scale\": %s,\n  \"benchtime\": \"%s\",\n  \"wall_seconds\": %s,\n  \"benchmarks\": {\n", scale, benchtime, wall
    for (i = 0; i < n; i++)
        printf "%s%s\n", entry[i], (i < n - 1 ? "," : "")
    print "  }"
    print "}"
}' > "$OUT"

echo "wrote $OUT"

if [ "$MODE" = compare ]; then
    compare "$BASELINE" "$OUT"
fi
