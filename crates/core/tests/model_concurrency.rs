//! Exhaustive interleaving checks for the `IssuanceChecker` signature
//! cache (model-check builds only; tier-1 `cargo test -q` skips this
//! file).
//!
//! Pattern: certificates and every process-global lazy (group ops,
//! interned issuer key, its fixed-base table) are warmed *outside* the
//! explorer closure so they sit in their terminal states during runs —
//! pure reads the sleep sets prune — while the checker under test is
//! created *fresh inside* the closure so each explored execution starts
//! from the same state.

#![cfg(feature = "model-check")]

use ccc_core::IssuanceChecker;
use ccc_crypto::{Group, KeyPair, PROMOTION_THRESHOLD};
use ccc_mc::Explorer;
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName};
use std::sync::Arc;

/// Serializes the model tests in this binary: the verify-route counters
/// folded into `CacheStats` are process-global. (Raw std mutex on
/// purpose — the harness lock must never become a model object.)
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Warm the process-global ccc-obs registration outside the explorer
    // so the registry OnceLocks are "done" during runs: in-run metric
    // updates then emit schedule-consistent ops instead of a one-time
    // init that diverges between the first execution and its replays.
    let _ = ccc_crypto::verify_stats();
    ccc_core::builder::touch_build_metrics();
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Fixture {
    root: Certificate,
    leaf_a: Certificate,
    leaf_b: Certificate,
}

/// Builds a root plus two leaves and drives the issuer key well past the
/// promotion threshold, so every model execution verifies the same way
/// (through the key's already-built fixed-base table) — the per-execution
/// scheduling points are then exactly the cache's own ops.
fn warmed_fixture() -> Fixture {
    let g = Group::simulation_256();
    let root_kp = KeyPair::from_seed(g, b"mc-topo-root");
    let leaf_a_kp = KeyPair::from_seed(g, b"mc-topo-leaf-a");
    let leaf_b_kp = KeyPair::from_seed(g, b"mc-topo-leaf-b");
    let root_dn = DistinguishedName::cn("MC Topo Root");
    let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
    let leaf_a = CertificateBuilder::leaf_profile("mc-a.sim").issued_by(
        &leaf_a_kp.public,
        root_dn.clone(),
        &root_kp,
    );
    let leaf_b =
        CertificateBuilder::leaf_profile("mc-b.sim").issued_by(&leaf_b_kp.public, root_dn, &root_kp);
    for _ in 0..=(PROMOTION_THRESHOLD + 1) {
        assert!(leaf_a.verify_signature_with(root.public_key()));
    }
    assert!(leaf_b.verify_signature_with(root.public_key()));
    Fixture {
        root,
        leaf_a,
        leaf_b,
    }
}

/// Invariant: under OnceLock coalescing, a unique (issuer, subject) pair
/// is verified exactly once no matter how two concurrent misses
/// interleave, and the `CacheStats` accounting identities hold in every
/// interleaving.
#[test]
fn cache_coalesces_to_one_verification() {
    let _guard = test_guard();
    let fx = Arc::new(warmed_fixture());
    let exploration = Explorer::new().explore(move || {
        let checker = Arc::new(IssuanceChecker::with_shards(1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let checker = Arc::clone(&checker);
                let fx = Arc::clone(&fx);
                ccc_mc::spawn(move || checker.signature_verifies(&fx.root, &fx.leaf_a))
            })
            .collect();
        let results: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().expect("verifier task"))
            .collect();
        assert!(results[0] && results[1], "both tasks must see the verdict");
        let stats = checker.snapshot_stats();
        assert_eq!(
            stats.verifications, 1,
            "one verification per unique pair under coalescing"
        );
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert_eq!(stats.verifications + stats.coalesced_waits, stats.misses);
        assert_eq!(stats.entries as u64, stats.verifications);
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "2-thread OnceLock-coalescing scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    // The shard stripe and the coalescing slot both surface as lock
    // classes rooted in topology.rs; they never cycle (the slot is only
    // initialized outside the shard lock).
    assert!(exploration
        .lock_order
        .classes
        .iter()
        .any(|c| c.kind == ccc_mc::LockKind::Mutex && c.site.contains("topology.rs")));
    assert!(exploration.lock_order.is_acyclic());
}

/// Invariant: the cache and route counters are lock-free fetch_adds, so
/// two concurrent lookups on *distinct* pairs never lose an update —
/// every interleaving ends with both verifications and both fixed-base
/// route hits counted.
#[test]
fn route_counters_lose_no_updates() {
    let _guard = test_guard();
    let fx = Arc::new(warmed_fixture());
    let exploration = Explorer::new().explore(move || {
        let checker = Arc::new(IssuanceChecker::with_shards(1));
        let a = {
            let checker = Arc::clone(&checker);
            let fx = Arc::clone(&fx);
            ccc_mc::spawn(move || checker.signature_verifies(&fx.root, &fx.leaf_a))
        };
        let b = {
            let checker = Arc::clone(&checker);
            let fx = Arc::clone(&fx);
            ccc_mc::spawn(move || checker.signature_verifies(&fx.root, &fx.leaf_b))
        };
        assert!(a.join().expect("task a"));
        assert!(b.join().expect("task b"));
        let stats = checker.snapshot_stats();
        assert_eq!(stats.lookups, 2, "lookup counter must not lose updates");
        assert_eq!(
            stats.verifications, 2,
            "distinct pairs are verified independently"
        );
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.coalesced_waits, 0);
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.fixed_base_hits, 2,
            "route counter must not lose updates (both keys are promoted)"
        );
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "distinct-pair counter scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    assert!(exploration.lock_order.is_acyclic());
}
