//! Exhaustive interleaving checks for the `IssuanceChecker` signature
//! cache (model-check builds only; tier-1 `cargo test -q` skips this
//! file).
//!
//! Pattern: certificates and every process-global lazy (group ops,
//! interned issuer key, its fixed-base table) are warmed *outside* the
//! explorer closure so they sit in their terminal states during runs —
//! pure reads the sleep sets prune — while the checker under test is
//! created *fresh inside* the closure so each explored execution starts
//! from the same state. The one exception is
//! `issuer_key_interns_under_the_map_lock`, which re-decodes the issuer
//! inside the closure on purpose, so its key is interned under the
//! checker's lock.

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

/// Invariant: a miss verifies while holding the map lock, so two
/// concurrent misses on one unique (issuer, subject) pair verify it
/// exactly once in every interleaving (the second finds the first's
/// verdict), and the `CacheStats` accounting identities hold.
#[test]
fn concurrent_misses_on_one_pair_verify_once_under_the_map_lock() {
    let _guard = test_guard();
    let fx = Arc::new(warmed_fixture());
    let exploration = Explorer::new().explore(move || {
        let checker = Arc::new(IssuanceChecker::new());
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
            "one verification per unique pair under the map lock"
        );
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert_eq!(stats.verifications, stats.misses);
        assert_eq!(stats.entries as u64, stats.verifications);
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "2-thread same-pair scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    // The map mutex is the one lock class rooted in topology.rs. With the
    // issuer key warmed, the verification it guards takes no other lock,
    // so nothing nests under it here.
    assert!(exploration
        .lock_order
        .classes
        .iter()
        .any(|c| c.kind == ccc_mc::LockKind::Mutex && c.site.contains("topology.rs")));
    assert!(exploration.lock_order.is_acyclic());
}

/// Invariant: a verification under the map lock may intern the issuer's
/// key, taking the `KeyRegistry` mutex inside the checker's. The issuer
/// is re-decoded inside the closure, so its `PublicKey` has not been
/// interned yet: whichever task takes the map lock first interns it
/// there. Both pairs are verified once, and the nesting is acyclic.
#[test]
fn issuer_key_interns_under_the_map_lock() {
    let _guard = test_guard();
    let fx = Arc::new(warmed_fixture());
    let exploration = Explorer::new().explore(move || {
        let root = Certificate::from_der(fx.root.to_der()).expect("root re-decodes");
        let checker = Arc::new(IssuanceChecker::new());
        let handles: Vec<_> = [fx.leaf_a.clone(), fx.leaf_b.clone()]
            .into_iter()
            .map(|leaf| {
                let checker = Arc::clone(&checker);
                let root = root.clone();
                ccc_mc::spawn(move || checker.signature_verifies(&root, &leaf))
            })
            .collect();
        for h in handles {
            assert!(h.join().expect("verifier task"));
        }
        let stats = checker.snapshot_stats();
        assert_eq!(stats.verifications, 2);
        assert_eq!(stats.entries, 2);
    });
    assert!(exploration.failure.is_none(), "{:?}", exploration.failure);
    assert!(
        exploration.complete,
        "2-thread interning scenario must explore to fixpoint"
    );
    assert!(!exploration.truncated);
    let order = &exploration.lock_order;
    assert!(order.is_acyclic());
    let is_mutex_in = |idx: usize, file: &str| {
        order.classes[idx].kind == ccc_mc::LockKind::Mutex && order.classes[idx].site.contains(file)
    };
    assert!(
        order
            .edges
            .iter()
            .any(|e| is_mutex_in(e.from, "topology.rs") && is_mutex_in(e.to, "intern.rs")),
        "no topology.rs mutex -> intern.rs mutex edge: {:?}",
        order.edges
    );
}

/// Invariant: the cache and route counters are lock-free fetch_adds, so
/// two concurrent lookups on *distinct* pairs never lose an update —
/// every interleaving ends with both verifications and both fixed-base
/// route hits counted (the route counters are process-global, read as a
/// `verify_stats` delta over the run).
#[test]
fn route_counters_lose_no_updates() {
    let _guard = test_guard();
    let fx = Arc::new(warmed_fixture());
    let exploration = Explorer::new().explore(move || {
        let before = ccc_crypto::verify_stats();
        let checker = Arc::new(IssuanceChecker::new());
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
        assert_eq!(stats.entries, 2);
        assert_eq!(
            ccc_crypto::verify_stats().since(&before).fixed_base_hits,
            2,
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
