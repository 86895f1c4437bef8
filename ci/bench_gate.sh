#!/usr/bin/env sh
# Verification perf regression gate (DESIGN.md §14).
#
# Compares the speedup ratios in a freshly generated `perf_snapshot
# --verify` JSON against the committed BENCH_verify.json. Absolute ns/op
# numbers are host-dependent and deliberately not gated; the *ratios*
# (`PublicKey::verify` vs the legacy two-pows baseline, measured in the
# same process on the same host) are portable across machines, so a
# fresh ratio collapsing far below the committed one means verification
# itself regressed, not the runner. Any snapshot whose ratios are
# `"speedup_vs_*"` fields can be gated the same way.
#
# Usage: ci/bench_gate.sh <fresh.json> [committed.json] [tolerance]
#
#   tolerance — each fresh ratio must be >= committed ratio * tolerance.
#   Default 0.5: CI runners are noisy, but the regressions this gate
#   exists to catch (losing the 8-bit generator table or the per-key
#   tables) collapse a ratio by 2x or more, well below this band.
set -eu

fresh=${1:?usage: ci/bench_gate.sh <fresh.json> [committed.json] [tolerance]}
committed=${2:-BENCH_verify.json}
tol=${3:-0.5}

# Pull `"speedup_vs_*": <number>` pairs in document order. Both files
# come from the same serializer, so the sequences align index by index
# (same cases, same paths, same field order).
ratios() {
    grep -o '"speedup_vs_[a-z]*": *[0-9.][0-9.]*' "$1" \
        | sed 's/"//g; s/: */ /'
}

fresh_tmp=$(mktemp)
committed_tmp=$(mktemp)
trap 'rm -f "$fresh_tmp" "$committed_tmp"' EXIT
ratios "$fresh" > "$fresh_tmp"
ratios "$committed" > "$committed_tmp"

if [ ! -s "$committed_tmp" ]; then
    echo "bench_gate: no speedup ratios found in $committed" >&2
    exit 1
fi
if [ "$(wc -l < "$fresh_tmp")" != "$(wc -l < "$committed_tmp")" ]; then
    echo "bench_gate: $fresh and $committed disagree on case/size layout" >&2
    echo "  (regenerate the committed snapshot: perf_snapshot --verify $committed)" >&2
    exit 1
fi

paste "$fresh_tmp" "$committed_tmp" | awk -v tol="$tol" '
    {
        name = $1; fresh = $2; want = $4 * tol
        status = (fresh >= want) ? "ok  " : "FAIL"
        printf "  %s %-16s fresh %6.2fx  committed %6.2fx  floor %6.2fx\n", \
               status, name, fresh, $4, want
        if (fresh < want) bad++
    }
    END {
        if (bad) { printf "bench_gate: %d ratio(s) below tolerance\n", bad; exit 1 }
        print "bench_gate: all ratios within tolerance"
    }'
