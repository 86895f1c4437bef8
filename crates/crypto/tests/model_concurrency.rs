//! Exhaustive interleaving checks for the `KeyRegistry` / `InternedKey`
//! concurrency (model-check builds only; tier-1 `cargo test -q` skips
//! this file).
//!
//! Each property creates its shared structures *fresh inside the model
//! closure* (so every explored execution starts from the same state) but
//! pre-warms the process-wide group statics outside it, which keeps the
//! per-execution scheduling points down to the ops under test.

#![cfg(feature = "model-check")]

use ccc_crypto::{Group, KeyPair, KeyRegistry, PROMOTION_THRESHOLD};
use ccc_mc::Explorer;
use std::sync::Arc;

/// Serializes the model tests in this binary: the route counters the
/// table-build property measures are process-global, and exploration
/// itself is cheap enough that parallelism buys nothing here. (Raw std
/// mutex on purpose — the harness lock must never become a model object.)
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Warm the process-global ccc-obs route-metric registration outside
    // the explorer (same reason as `warmed_key_bytes`): with the
    // registry OnceLocks already "done", in-run metric updates are
    // schedule-consistent atomic ops instead of a one-time init that
    // would make the first execution's op sequence diverge from replays.
    let _ = ccc_crypto::verify_stats();
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn warmed_key_bytes() -> Vec<u8> {
    let group = Group::simulation_256();
    // Building ops outside the explorer keeps the statics' OnceLocks in
    // the "done" state during runs (pure reads, pruned by sleep sets).
    let _ = group.ops();
    KeyPair::from_seed(group, b"model-check-key").public.as_bytes().to_vec()
}

/// Invariant: `record_verify` ordinals are unique and contiguous, so the
/// promotion split (`ordinal > PROMOTION_THRESHOLD` uses the key's table)
/// is a pure function of the ordinal — which verifications use the table
/// cannot depend on the interleaving. Three concurrent verifiers starting
/// two below the threshold must always produce exactly two tabled ones.
#[test]
fn promotion_ordinals_are_unique_and_route_invariantly() {
    let _guard = test_guard();
    let key_bytes = Arc::new(warmed_key_bytes());
    let exploration = Explorer::new().explore(move || {
        let group = Group::simulation_256();
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, &key_bytes);
        // Advance to one below the threshold so the concurrent section
        // straddles the promotion boundary.
        for _ in 0..(PROMOTION_THRESHOLD - 1) {
            entry.record_verify();
        }
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let entry = Arc::clone(&entry);
                ccc_mc::spawn(move || entry.record_verify())
            })
            .collect();
        let mut ordinals: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("verifier task"))
            .collect();
        ordinals.sort_unstable();
        assert_eq!(
            ordinals,
            vec![
                PROMOTION_THRESHOLD,
                PROMOTION_THRESHOLD + 1,
                PROMOTION_THRESHOLD + 2
            ],
            "promotion ordinals must be unique and contiguous"
        );
        let tabled = ordinals.iter().filter(|&&n| n > PROMOTION_THRESHOLD).count();
        assert_eq!(tabled, 2, "promotion split must be interleaving-independent");
        assert_eq!(entry.verify_count(), PROMOTION_THRESHOLD + 2);
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "3-thread promotion-ordinal scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    assert!(exploration.lock_order.is_acyclic());
}

/// Invariant: concurrent interns of the same key coalesce on one shared
/// entry through the registry mutex, and the registry never
/// double-inserts.
#[test]
fn interning_coalesces_across_tasks() {
    let _guard = test_guard();
    let key_bytes = Arc::new(warmed_key_bytes());
    let exploration = Explorer::new().explore(move || {
        let group = Group::simulation_256();
        let registry = Arc::new(KeyRegistry::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let key_bytes = Arc::clone(&key_bytes);
                ccc_mc::spawn(move || registry.intern(group, &key_bytes))
            })
            .collect();
        let entries: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("intern task"))
            .collect();
        assert!(
            Arc::ptr_eq(&entries[0], &entries[1]),
            "same key bytes must intern to one shared entry"
        );
        assert_eq!(registry.len(), 1);
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(exploration.complete);
    // The registry mutex is one lock class and never nests.
    assert!(exploration.lock_order.is_acyclic());
    assert!(exploration
        .lock_order
        .classes
        .iter()
        .any(|c| c.site.contains("intern.rs")));
}

/// Invariant: the per-key fixed-base table is built exactly once under
/// OnceLock coalescing — two concurrent `table()` calls in every
/// interleaving yield one build and the same table.
#[test]
fn table_promotion_builds_exactly_once() {
    let _guard = test_guard();
    let key_bytes = Arc::new(warmed_key_bytes());
    let exploration = Explorer::new().explore(move || {
        let group = Group::simulation_256();
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, &key_bytes);
        let before = ccc_crypto::verify_stats();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let entry = Arc::clone(&entry);
                ccc_mc::spawn(move || {
                    let group = Group::simulation_256();
                    let ops = group.ops();
                    entry.table(&ops.ctx, group.q.bit_len()) as *const _ as usize
                })
            })
            .collect();
        let tables: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("table task"))
            .collect();
        assert_eq!(tables[0], tables[1], "both tasks must share one table");
        assert!(entry.has_table());
        let delta = ccc_crypto::verify_stats().since(&before);
        assert_eq!(delta.tables_built, 1, "initializer must run exactly once");
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "2-thread OnceLock-coalescing scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    // The once-init slot shows up as a lock class; no cycles.
    assert!(exploration
        .lock_order
        .classes
        .iter()
        .any(|c| c.kind == ccc_mc::LockKind::OnceInit));
    assert!(exploration.lock_order.is_acyclic());
}

/// The subgroup-membership verdict caches once and is interleaving-
/// independent (both tasks read the same cached boolean).
#[test]
fn subgroup_verdict_coalesces() {
    let _guard = test_guard();
    let key_bytes = Arc::new(warmed_key_bytes());
    let exploration = Explorer::new().explore(move || {
        let group = Group::simulation_256();
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, &key_bytes);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let entry = Arc::clone(&entry);
                ccc_mc::spawn(move || entry.is_subgroup_member())
            })
            .collect();
        let verdicts: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().expect("subgroup task"))
            .collect();
        assert_eq!(verdicts[0], verdicts[1]);
        assert!(verdicts[0], "a derived public key lies in the subgroup");
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(exploration.complete);
}
