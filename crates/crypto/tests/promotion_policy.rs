//! Exact promotion accounting for `PublicKey::verify`.
//!
//! The verification counters are process-global, so pinning *exact*
//! splits requires a quiescent process: this file holds a single test and
//! therefore gets its own binary with nothing running concurrently.
//! (Verdict correctness, which needs no such isolation, lives in
//! `verify_routes.rs`.)

use ccc_crypto::{verify_stats, Group, KeyPair, KeyRegistry, PROMOTION_THRESHOLD};

#[test]
fn promotion_threshold_splits_as_documented() {
    // The first PROMOTION_THRESHOLD verifications exponentiate y with
    // plain pow_mont, the rest use the key's table, and the flip builds
    // exactly one table.
    let group = Group::simulation_256();
    let total = PROMOTION_THRESHOLD + 5;
    let kp = KeyPair::from_seed(group, b"promotion-threshold-auto");
    let sig = kp.private.sign(b"promote");
    let before = verify_stats();
    for _ in 0..total {
        assert!(kp.public.verify(b"promote", &sig));
    }
    let delta = verify_stats().since(&before);
    assert_eq!(delta.cold_multiexps, PROMOTION_THRESHOLD.min(total));
    assert_eq!(delta.fixed_base_hits, total - PROMOTION_THRESHOLD);
    assert_eq!(delta.tables_built, 1);
    let entry = KeyRegistry::global().intern(group, kp.public.as_bytes());
    assert_eq!(entry.verify_count(), total);
    assert!(entry.has_table());
}
