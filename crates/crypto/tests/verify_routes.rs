//! Reference differential for `PublicKey::verify`.
//!
//! Every case compares `verify` with an in-test reference built only from
//! `modpow_naive` and `sha256`, on every input shape the corpus analyses
//! can hand it: valid signatures, forged challenges and scalars, the wrong
//! key, out-of-range and truncated scalars, a zero challenge, an order-2
//! key, and the 1536-bit group. The analyses treat a verification failure
//! as a compliance finding, so a verdict that differed from the scheme's
//! definition — or that depended on how often the key had been verified —
//! would corrupt the paper's numbers.
//!
//! `verify` takes `y^(q−e)` from plain `pow_mont` for a key's first
//! `PROMOTION_THRESHOLD` verifications and from the key's fixed-base table
//! after that, so each case verifies `PROMOTION_THRESHOLD + 1` times on a
//! key no other case has touched: both sides of the threshold are checked
//! against the reference. (The exact counter split is pinned in
//! `promotion_policy.rs`, which runs in its own process.)

use ccc_bignum::{modpow_naive, Uint};
use ccc_crypto::{sha256, Group, KeyPair, KeyRegistry, PublicKey, Signature, PROMOTION_THRESHOLD};
use proptest::prelude::*;
use std::cell::Cell;

thread_local! {
    /// Per-thread key counter: every key a case derives is new to the
    /// process-wide registry (the test tag keeps threads apart).
    static NEXT_KEY: Cell<u64> = const { Cell::new(0) };
}

/// A key pair no earlier case has derived: `tag ‖ counter ‖ seed`.
fn fresh_key(group: &Group, tag: &str, seed: &[u8]) -> KeyPair {
    let n = NEXT_KEY.with(|c| {
        let n = c.get();
        c.set(n + 1);
        n
    });
    let mut material = tag.as_bytes().to_vec();
    material.extend_from_slice(&n.to_be_bytes());
    material.extend_from_slice(seed);
    KeyPair::from_seed(group, &material)
}

/// The scheme's definition, written independently of `ccc-crypto`'s
/// arithmetic: `s` must be a `scalar_len`-byte value below `q`, and the
/// signature verifies iff `SHA-256(g^s · y^(q − e mod q) mod p ‖ m) == e`.
fn reference(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let group = key.group();
    if sig.s.len() != group.scalar_len {
        return false;
    }
    let s = Uint::from_bytes_be(&sig.s);
    if s >= group.q {
        return false;
    }
    let e = Uint::from_bytes_be(&sig.e).rem(&group.q).expect("q > 0");
    let neg_e = group.q.checked_sub(&e).expect("e mod q < q");
    let y = Uint::from_bytes_be(key.as_bytes());
    let gs = modpow_naive(&group.g, &s, &group.p).expect("p > 0");
    let ye = modpow_naive(&y, &neg_e, &group.p).expect("p > 0");
    let mut buf = gs
        .mul_mod(&ye, &group.p)
        .to_bytes_be_padded(group.element_len)
        .expect("r < p fits the element length");
    buf.extend_from_slice(message);
    sha256(&buf) == sig.e
}

/// Verify `PROMOTION_THRESHOLD + 1` times on a fresh key — every ordinal
/// below the threshold and the first one above it — asserting each
/// verdict equals the reference; returns the verdict. A well-formed
/// signature must leave the key promoted (its last check used the table).
fn agrees_across_threshold(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let group = key.group();
    let entry = KeyRegistry::global().intern(group, key.as_bytes());
    assert_eq!(entry.verify_count(), 0, "case must start on a fresh key");
    let expected = reference(key, message, sig);
    for ordinal in 1..=PROMOTION_THRESHOLD + 1 {
        assert_eq!(
            key.verify(message, sig),
            expected,
            "verify diverged from the reference at ordinal {ordinal}"
        );
    }
    let well_formed = sig.s.len() == group.scalar_len && Uint::from_bytes_be(&sig.s) < group.q;
    assert_eq!(
        entry.has_table(),
        well_formed,
        "promotion after the threshold"
    );
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_signatures_verify(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let group = Group::simulation_256();
        let kp = fresh_key(group, "valid", &seed);
        let sig = kp.private.sign(&message);
        prop_assert!(agrees_across_threshold(&kp.public, &message, &sig));
    }

    #[test]
    fn forged_signatures_reject(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
        in_e in any::<bool>(),
    ) {
        let group = Group::simulation_256();
        let kp = fresh_key(group, "forged", &seed);
        let mut sig = kp.private.sign(&message);
        if in_e {
            sig.e[flip_byte % 32] ^= 1 << flip_bit;
        } else {
            let idx = flip_byte % sig.s.len();
            sig.s[idx] ^= 1 << flip_bit;
        }
        // A flip may push s to or past q; the reference rejects that too.
        prop_assert!(!agrees_across_threshold(&kp.public, &message, &sig));
    }

    #[test]
    fn wrong_key_rejects(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let group = Group::simulation_256();
        let signer = fresh_key(group, "wrong-key", &seed);
        let other = fresh_key(group, "wrong-key", &seed);
        let sig = signer.private.sign(&message);
        prop_assert!(!agrees_across_threshold(&other.public, &message, &sig));
    }

    #[test]
    fn out_of_range_scalar_rejects(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
        probe in 0usize..3,
    ) {
        // s >= q must be rejected before any arithmetic. s + q is the
        // sharp probe: g has order q, so without the range check it would
        // recompute the same r' and verify.
        let group = Group::simulation_256();
        let kp = fresh_key(group, "out-of-range", &seed);
        let mut sig = kp.private.sign(&message);
        sig.s = match probe {
            0 => group.q.clone(),
            1 => Uint::from_bytes_be(&sig.s).add(&group.q),
            _ => Uint::from_bytes_be(&[0xff; 32]),
        }
        .to_bytes_be_padded(group.scalar_len)
        .expect("below 2^256");
        prop_assert!(!agrees_across_threshold(&kp.public, &message, &sig));
    }

    #[test]
    fn truncated_scalar_rejects(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
        cut in 1usize..32,
    ) {
        let group = Group::simulation_256();
        let kp = fresh_key(group, "truncated", &seed);
        let mut sig = kp.private.sign(&message);
        sig.s.truncate(sig.s.len() - cut);
        prop_assert!(!agrees_across_threshold(&kp.public, &message, &sig));
    }

    #[test]
    fn zeroed_challenge_rejects(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // e = 0 drives the q - e subtraction to its neg_e = q boundary.
        let group = Group::simulation_256();
        let kp = fresh_key(group, "zero-e", &seed);
        let mut sig = kp.private.sign(&message);
        sig.e = [0u8; 32];
        prop_assert!(!agrees_across_threshold(&kp.public, &message, &sig));
    }
}

#[test]
fn order_two_key_follows_the_reference() {
    // y = p − 1 has order 2: from_bytes accepts it (the subgroup check is
    // separate), and y^(q−e) is ±1 by the parity of q − e. Signatures
    // made for y = g^0 (s = k, e = H(g^k ‖ m)) then verify exactly when
    // q − e is even — verify must agree with the reference on both kinds,
    // across the threshold on one shared key.
    let group = Group::simulation_256();
    let p_minus_1 = group
        .p
        .checked_sub(&Uint::one())
        .expect("p > 1")
        .to_bytes_be_padded(group.element_len)
        .expect("p − 1 fits");
    let key = PublicKey::from_bytes(group, &p_minus_1).expect("p − 1 is in [2, p)");
    assert!(!key.is_subgroup_member());
    let entry = KeyRegistry::global().intern(group, key.as_bytes());
    assert_eq!(entry.verify_count(), 0, "no other case touches y = p − 1");
    let mut verdicts = Vec::new();
    for k in 1..=2 * (PROMOTION_THRESHOLD + 1) {
        let s = Uint::from_u64(k);
        let message = k.to_be_bytes();
        let mut buf = group
            .pow_g(&s)
            .to_bytes_be_padded(group.element_len)
            .expect("r < p fits");
        buf.extend_from_slice(&message);
        let sig = Signature {
            e: sha256(&buf),
            s: s.to_bytes_be_padded(group.scalar_len).expect("k < q"),
        };
        let expected = reference(&key, &message, &sig);
        assert_eq!(key.verify(&message, &sig), expected, "k = {k}");
        verdicts.push(expected);
    }
    assert!(entry.has_table());
    assert!(
        verdicts.contains(&true) && verdicts.contains(&false),
        "{verdicts:?}"
    );
}

#[test]
fn rfc3526_group_follows_the_reference() {
    let group = Group::rfc3526_1536();
    let kp = fresh_key(group, "rfc3526-valid", b"");
    let sig = kp.private.sign(b"big-group message");
    assert!(agrees_across_threshold(
        &kp.public,
        b"big-group message",
        &sig
    ));
    let kp = fresh_key(group, "rfc3526-forged", b"");
    let mut forged = kp.private.sign(b"big-group message");
    forged.e[0] ^= 0x80;
    assert!(!agrees_across_threshold(
        &kp.public,
        b"big-group message",
        &forged
    ));
}
