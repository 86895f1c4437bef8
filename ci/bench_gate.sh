#!/usr/bin/env sh
# Micro-benchmark regression gate (EXPERIMENTS.md "Performance").
#
# Compares every `speedup` ratio in a freshly generated `perf_snapshot`
# JSON against the committed BENCH_perf.json. Absolute ns/op numbers are
# host-dependent and deliberately not gated; each ratio compares a path
# against its case's baseline, timed interleaved in the same process on
# the same host, so it carries across machines, and a fresh ratio
# collapsing far below the committed one means the faster path itself
# regressed, not the runner.
#
# Usage: ci/bench_gate.sh <fresh.json> [committed.json] [tolerance]
#
#   tolerance — each fresh ratio must be >= committed ratio * tolerance.
#   Default 0.5: CI runners are noisy, but the regressions this gate
#   exists to catch (losing a fixed-base table, the per-key tables, the
#   Montgomery path or the fused sweep's sharing) collapse a ratio by 2x
#   or more, well below this band.
#
# The two files must list the same (case, path) pairs in the same order;
# anything else fails, so a case or path cannot drop out of the gate
# unnoticed.
set -eu

fresh=${1:?usage: ci/bench_gate.sh <fresh.json> [committed.json] [tolerance]}
committed=${2:-BENCH_perf.json}
tol=${3:-0.5}

# One "case path speedup" line per path, in document order. perf_snapshot
# writes each case's label on its own line ahead of its paths, and each
# path on one line.
ratios() {
    awk '
        /"label":/ { split($0, f, "\""); label = f[4] }
        /"speedup":/ {
            split($0, f, "\"")
            v = $0
            sub(/.*"speedup": */, "", v)
            sub(/[^0-9.].*/, "", v)
            print label, f[2], v
        }' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ratios "$fresh" > "$tmp/fresh"
ratios "$committed" > "$tmp/committed"

if [ ! -s "$tmp/committed" ]; then
    echo "bench_gate: no speedup ratios found in $committed" >&2
    exit 1
fi
cut -d' ' -f1,2 "$tmp/fresh" > "$tmp/fresh.pairs"
cut -d' ' -f1,2 "$tmp/committed" > "$tmp/committed.pairs"
if ! diff "$tmp/committed.pairs" "$tmp/fresh.pairs" >&2; then
    echo "bench_gate: $fresh and $committed list different (case, path) sequences" >&2
    echo "  (regenerate the committed snapshot: perf_snapshot $committed)" >&2
    exit 1
fi

paste -d' ' "$tmp/fresh" "$tmp/committed" | awk -v tol="$tol" '
    {
        fresh = $3; want = $6 * tol
        status = (fresh >= want) ? "ok  " : "FAIL"
        printf "  %s %-20s %-20s fresh %6.2fx  committed %6.2fx  floor %6.2fx\n", \
               status, $1, $2, fresh, $6, want
        if (fresh < want) bad++
    }
    END {
        if (bad) { printf "bench_gate: %d ratio(s) below tolerance\n", bad; exit 1 }
        print "bench_gate: all ratios within tolerance"
    }'
