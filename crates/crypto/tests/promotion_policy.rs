//! Exact promotion accounting for `PublicKey::verify`.
//!
//! The verification counters are process-global, so pinning *exact*
//! splits requires a quiescent process: this file holds a single test and
//! therefore gets its own binary with nothing running concurrently.
//! (Verdict correctness, which needs no such isolation, lives in
//! `verify_routes.rs`.)

use ccc_crypto::{
    verify_stats, Group, KeyPair, KeyRegistry, PublicKey, VerifyStats, PROMOTION_THRESHOLD,
};
use std::sync::Barrier;

#[test]
fn promotion_threshold_splits_as_documented() {
    // The first PROMOTION_THRESHOLD verifications of a key exponentiate y
    // with plain pow_mont, the rest use the key's table, and the flip
    // builds exactly one table, however many threads cross the threshold
    // together. One round runs on one thread, four on eight, each on a
    // fresh key.
    let group = Group::simulation_256();
    for (round, threads) in [1usize, 8, 8, 8, 8].into_iter().enumerate() {
        let kp = KeyPair::from_seed(group, format!("promotion-threshold-{round}").as_bytes());
        let sig = kp.private.sign(b"promote");
        let before = verify_stats();
        // One thread warms the key to one verification below the
        // threshold; every later verification races across it.
        for _ in 1..PROMOTION_THRESHOLD {
            assert!(kp.public.verify(b"promote", &sig));
        }
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // A key of its own, so each thread interns it too.
                    let key = PublicKey::from_bytes(group, kp.public.as_bytes()).unwrap();
                    barrier.wait();
                    assert!(key.verify(b"promote", &sig));
                    assert!(key.verify(b"promote", &sig));
                });
            }
        });
        let total = PROMOTION_THRESHOLD - 1 + 2 * threads as u64;
        let expected = VerifyStats {
            cold_multiexps: PROMOTION_THRESHOLD,
            fixed_base_hits: total - PROMOTION_THRESHOLD,
            tables_built: 1,
        };
        let delta = verify_stats().since(&before);
        assert_eq!(delta, expected, "{threads} thread(s)");
        let entry = KeyRegistry::global().intern(group, kp.public.as_bytes());
        assert_eq!(entry.verify_count(), total);
        assert!(entry.has_table());
    }
}
