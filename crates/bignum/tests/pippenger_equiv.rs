//! Property-based equivalence: Pippenger bucket multi-exponentiation vs
//! the product of k independent `modpow` results.
//!
//! The bucket path must be bit-identical to `Π bᵢ^{eᵢ} mod n` computed
//! the slow way, across random batch sizes (covering the scalar/Straus
//! degenerate paths and the bucket path proper), random multi-limb
//! operands, zero exponents, and repeated bases.

use ccc_bignum::{modpow_naive, multi_modpow, optimal_window, MontgomeryCtx, Uint};
use proptest::prelude::*;

fn uint(bytes: &[u8]) -> Uint {
    Uint::from_bytes_be(bytes)
}

/// Force a byte-vector modulus odd and > 1.
fn odd_modulus(bytes: &[u8]) -> Uint {
    let mut m = bytes.to_vec();
    if m.is_empty() {
        m.push(3);
    }
    *m.last_mut().expect("m is non-empty") |= 1; // odd
    let m = uint(&m);
    if m <= Uint::one() {
        Uint::from_u64(3)
    } else {
        m
    }
}

/// The reference: k independent naive exponentiations, multiplied.
fn reference(pairs: &[(Uint, Uint)], n: &Uint) -> Uint {
    let mut acc = Uint::one();
    for (b, e) in pairs {
        acc = acc.mul_mod(&modpow_naive(b, e, n).expect("n > 0"), n);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucket_product_equals_separate_pows(
        k in 0..12usize,
        base_pool in proptest::collection::vec(any::<u8>(), 480..481),
        exp_pool in proptest::collection::vec(any::<u8>(), 288..289),
        base_lens in proptest::collection::vec(any::<u8>(), 12..13),
        exp_lens in proptest::collection::vec(any::<u8>(), 12..13),
        modulus in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        // The vendored proptest has no tuple strategies, so batches are
        // carved out of flat byte pools: item i takes a prefix of its
        // 40-byte base chunk / 24-byte exponent chunk, with the prefix
        // lengths (0 ⇒ zero operand) drawn from the *_lens vectors.
        let modulus = odd_modulus(&modulus);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus > 1");
        let pairs: Vec<(Uint, Uint)> = (0..k)
            .map(|i| {
                let bl = usize::from(base_lens[i]) % 41;
                let el = usize::from(exp_lens[i]) % 25;
                (
                    uint(&base_pool[i * 40..i * 40 + bl]),
                    uint(&exp_pool[i * 24..i * 24 + el]),
                )
            })
            .collect();
        prop_assert_eq!(multi_modpow(&ctx, &pairs), reference(&pairs, &modulus));
    }

    #[test]
    fn coefficient_shaped_batches_match(
        exps in proptest::collection::vec(any::<u64>(), 3..80),
        modulus in proptest::collection::vec(any::<u8>(), 8..40),
        seed in any::<u64>(),
    ) {
        // The batch self-check's exact shape: many bases, 64-bit
        // exponents. Bases derived deterministically from the seed so
        // collisions (repeated bases landing in one bucket) occur.
        let modulus = odd_modulus(&modulus);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus > 1");
        let mut base = Uint::from_u64(seed | 3);
        let pairs: Vec<(Uint, Uint)> = exps
            .iter()
            .map(|&e| {
                base = base.mul_mod(&base, &modulus).add_mod(&Uint::one(), &modulus);
                (base.clone(), Uint::from_u64(e))
            })
            .collect();
        prop_assert_eq!(multi_modpow(&ctx, &pairs), reference(&pairs, &modulus));
    }
}

#[test]
fn window_choice_never_exceeds_exponent_width_budget() {
    // The window is a pure function of (k, bits): deterministic across
    // runs (batch verdicts must be schedule-independent) and bounded.
    for k in 1..300usize {
        for bits in [8usize, 64, 256, 1536] {
            let c = optimal_window(k, bits);
            assert_eq!(c, optimal_window(k, bits));
            assert!((1..=12).contains(&c));
        }
    }
}
