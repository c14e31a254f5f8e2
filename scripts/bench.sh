#!/bin/sh
# Reproducible perf baseline: run the headline benchmarks, emit a
# machine-readable BENCH_PR<N>.json at the repo root, and gate against the
# newest committed baseline — so every PR leaves a benchmark trajectory
# future PRs can compare against, and a throughput regression fails the
# check gate instead of slipping in. Methodology, schema, and the profiling
# workflow are documented in docs/PERFORMANCE.md.
#
# usage: scripts/bench.sh -pr N [-o FILE] [-benchtime T] [-count N] [-quick] [-no-gate]
#   -pr N         PR number; labels the JSON and names the default output
#                 BENCH_PR<N>.json (required, so no run clobbers an earlier
#                 PR's baseline)
#   -o FILE       output JSON path             (default: BENCH_PR<N>.json)
#   -benchtime T  go test -benchtime argument  (default: 20x)
#   -count N      go test -count argument      (default: 3; benchjson
#                 averages the repetitions, damping machine noise)
#   -quick        smoke mode: one throughput app and the reference
#                 kernel at -benchtime 1x -count 1, then the
#                 analysis pipeline at -benchtime 10x -count 10 (used by the
#                 `make benchsmoke` CI gate; the analysis gate compares
#                 fastest repetitions, and a 10-iteration sample is
#                 comparable to the committed 20-iteration ones)
#   -no-gate      skip the regression comparison against the newest
#                 committed BENCH_PR*.json (escape hatch for noisy machines)
#
# The gate also records analysis_speedup in the output: the previous
# baseline's median AnalysisPipeline time over this run's.
set -eu
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench.sh -pr N [-o FILE] [-benchtime T] [-count N] [-quick] [-no-gate]" >&2
    exit 2
}

# needs_value guards against `bench.sh -o` (flag given, operand missing):
# under `set -u` a bare `$2` would die with a cryptic "unbound variable"
# instead of the usage line.
needs_value() {
    if [ "$#" -lt 2 ]; then
        echo "scripts/bench.sh: $1 requires a value" >&2
        usage
    fi
}

pr=""
out=""
benchtime="20x"
count="3"
gate=1
quick=0
pattern='BenchmarkSimulatorThroughput|BenchmarkSimulatorReference|BenchmarkAnalysisPipeline'
while [ $# -gt 0 ]; do
    case "$1" in
    -pr) needs_value "$@"; pr="$2"; shift 2 ;;
    -o) needs_value "$@"; out="$2"; shift 2 ;;
    -benchtime) needs_value "$@"; benchtime="$2"; shift 2 ;;
    -count) needs_value "$@"; count="$2"; shift 2 ;;
    -quick)
        quick=1
        benchtime="1x"
        count="1"
        pattern='BenchmarkSimulatorThroughput/wordpress$|BenchmarkSimulatorReference'
        shift ;;
    -no-gate) gate=0; shift ;;
    *) usage ;;
    esac
done

case "$pr" in
'') echo "scripts/bench.sh: -pr N is required (the baseline's PR number)" >&2; usage ;;
*[!0-9]*) echo "scripts/bench.sh: -pr expects a PR number, got '$pr'" >&2; usage ;;
esac
[ -n "$out" ] || out="BENCH_PR${pr}.json"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# -run=NONE: benchmarks only. The raw text still streams to the terminal;
# the tee'd copy feeds the JSON converter.
go test -run=NONE -bench "$pattern" -benchmem \
    -benchtime "$benchtime" -count "$count" . | tee "$tmp"
if [ "$quick" -eq 1 ]; then
    go test -run=NONE -bench 'BenchmarkAnalysisPipeline$' -benchmem \
        -benchtime 10x -count 10 . | tee -a "$tmp"
fi
go run ./scripts/benchjson -pr "PR${pr}" -o "$out" <"$tmp"
echo "wrote $out"

# Regression gate: compare the fresh baseline against the newest committed
# BENCH_PR*.json (highest PR number, excluding this run's own output file).
if [ "$gate" -eq 1 ]; then
    prev=$(ls BENCH_PR*.json 2>/dev/null |
        grep -v -F -x "$out" |
        sed 's/^BENCH_PR\([0-9]*\)\.json$/\1 &/' |
        sort -n -r | head -n 1 | cut -d' ' -f2 || true)
    if [ -n "$prev" ]; then
        go run ./scripts/benchjson -gate-old "$prev" -gate-new "$out" -max-loss-pct 10
    else
        echo "scripts/bench.sh: no committed BENCH_PR*.json to gate against; skipping" >&2
    fi
fi
