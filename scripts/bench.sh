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
#   scripts/bench.sh -ab REV [bench-regexp]
#       Build the root package's test binary twice: at REV, from a git
#       worktree in a temporary directory that is removed on exit, and
#       from the checkout (HEAD plus any uncommitted changes). Run the
#       two alternately for ROUNDS rounds, swapping which goes first
#       each round, and print per benchmark both median ns/op, their
#       ratio and the checkout's win count (scripts/benchcmp -ab). Both
#       builds use the local toolchain and no module proxy.
#
# Environment:
#
#   IMPACT_BENCH_SCALE  trace scale passed to the suite (default 0.25,
#                       the same scale the acceptance numbers use)
#   BENCHTIME           go test -benchtime value (default 3x, so the
#                       memoized steady state shows up after the cold
#                       first iteration). The benchmarks of Table 9 and
#                       A1, A3, A4 and A6 build their pipeline variants
#                       in every iteration (at scale 0.05 Table 9 reads
#                       107-124 ms/op at 1x, 94-117 ms/op at 3x), so -ab
#                       can referee a change to those builds.
#   OUT                 output file (default BENCH_PR6.json)
#   WARN_PCT            -compare warning threshold (default 10)
#   FAIL_PCT            -compare failure threshold (default 25)
#   ROUNDS              -ab rounds (default 5)
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
# trace), BenchmarkSearchParallel (the portfolio search), the three
# ablations that re-run pipeline variants (A1 layout strategy, A3
# MIN_PROB, A6 global ordering), which place the prepared profile, and
# the execution engine's two runs, BenchmarkProfile (counting) and
# BenchmarkEvalTrace (tracing), which report ns/instr.
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

SCALE="${IMPACT_BENCH_SCALE:-0.25}"
BENCHTIME="${BENCHTIME:-3x}"
DEFAULT_PATTERN='^Benchmark(Table|Analyze|Stream|Search|Ablation(LayoutStrategy|MinProb|GlobalAlgo)|Profile|EvalTrace)'

if [ "${1:-}" = "-ab" ]; then
    [ $# -ge 2 ] && [ $# -le 3 ] || { echo "usage: scripts/bench.sh -ab REV [bench-regexp]" >&2; exit 2; }
    rev=$(git rev-parse --verify --quiet "$2^{commit}") || { echo "bench.sh: unknown revision $2" >&2; exit 2; }
    PATTERN="${3:-$DEFAULT_PATTERN}"
    ROUNDS="${ROUNDS:-5}"
    tmp=$(mktemp -d)
    trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"; git worktree prune' EXIT
    git worktree add --quiet --detach "$tmp/base" "$rev"
    export GOTOOLCHAIN=local GOPROXY=off
    (cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
    go test -c -o "$tmp/head.test" .
    pairs=()
    for r in $(seq 1 "$ROUNDS"); do
        order="base head"
        if [ $((r % 2)) -eq 0 ]; then order="head base"; fi
        for side in $order; do
            dir=$PWD
            if [ "$side" = base ]; then dir=$tmp/base; fi
            echo "bench.sh -ab: round $r/$ROUNDS, $side" >&2
            (cd "$dir" && IMPACT_BENCH_SCALE="$SCALE" "$tmp/$side.test" -test.run '^$' \
                -test.bench "$PATTERN" -test.benchtime "$BENCHTIME" -test.timeout 60m) > "$tmp/$side.$r.txt"
        done
        pairs+=("$tmp/base.$r.txt" "$tmp/head.$r.txt")
    done
    echo "bench.sh -ab: base $rev, head the checkout, scale $SCALE, benchtime $BENCHTIME"
    go run ./scripts/benchcmp -ab "${pairs[@]}"
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

PATTERN="${1:-$DEFAULT_PATTERN}"
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
