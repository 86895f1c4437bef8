#!/usr/bin/env bash
# Raw-sync guard: the crates wired into the ccc-mc model checker must
# route every lock, once-cell, atomic, and thread spawn through the
# ccc-mc shim layer (crates/mc). A raw std primitive in a wired crate is
# invisible to the cooperative scheduler, silently shrinking the state
# space the model tests claim to explore exhaustively — so CI fails on
# any such use.
#
# The shim layer provides only what the wired crates use: Mutex,
# OnceLock, AtomicU64, spawn and scope. A raw RwLock or any other std
# atomic stays banned; the remedy is to add its shim back to crates/mc.
#
# Exceptions (e.g. a test-harness lock that must NOT become a model
# object) go in ci/raw_sync_allowlist.txt with a justification comment.
#
# Usage: ci/check_raw_sync.sh   (run from anywhere; exits non-zero on
# violations and prints each offending line).
set -euo pipefail
cd "$(dirname "$0")/.."

# Crates whose concurrency is model-checked. crates/mc itself is the
# shim layer and is intentionally exempt. crates/obs is wired because
# its registry lock and metric atomics sit on the hot paths the model
# tests explore (cache fills and verifications bump obs counters).
WIRED=(crates/crypto crates/core crates/lint crates/bench crates/obs)

# Banned constructs: direct std lock/once types (path or braced import),
# std thread spawn/scope, and every std atomic type.
PATTERN='std::sync::(Mutex|RwLock|OnceLock)'
PATTERN+='|use std::sync::\{[^}]*(Mutex|RwLock|OnceLock)'
PATTERN+='|std::thread::(spawn|scope)'
PATTERN+='|std::sync::atomic::Atomic'
PATTERN+='|use std::sync::atomic::\{[^}]*Atomic'

ALLOWLIST=ci/raw_sync_allowlist.txt

hits=$(grep -rnE --include='*.rs' "$PATTERN" "${WIRED[@]}" || true)

violations=0
while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    file=${hit%%:*}
    rest=${hit#*:}
    content=${rest#*:}
    # Comment lines may legitimately mention the banned names (shim
    # documentation does); only code counts.
    trimmed=${content#"${content%%[![:space:]]*}"}
    case "$trimmed" in
        //*) continue ;;
    esac
    allowed=0
    while IFS= read -r entry; do
        case "$entry" in '' | '#'*) continue ;; esac
        entry_file=${entry%%[[:space:]]*}
        entry_re=${entry#"$entry_file"}
        entry_re=${entry_re#"${entry_re%%[![:space:]]*}"}
        if [ "$file" = "$entry_file" ]; then
            if [ -z "$entry_re" ] || printf '%s' "$content" | grep -qE "$entry_re"; then
                allowed=1
                break
            fi
        fi
    done <"$ALLOWLIST"
    if [ "$allowed" -eq 0 ]; then
        echo "raw std sync primitive in ccc-mc-wired crate: $hit" >&2
        violations=$((violations + 1))
    fi
done <<<"$hits"

if [ "$violations" -gt 0 ]; then
    echo "check_raw_sync: $violations violation(s); use the ccc-mc shims (crates/mc) or add a justified entry to $ALLOWLIST" >&2
    exit 1
fi
echo "check_raw_sync: OK (wired crates: ${WIRED[*]})"
