//! Property-based equivalence: the Montgomery stack vs the schoolbook path.
//!
//! Every result the optimized arithmetic produces must be bit-identical to
//! `modpow_naive` / full-width `mul` + `div_rem`, across random multi-limb
//! operands, `R`-boundary values (operands straddling the Montgomery radix
//! `R = 2^(64k)`), single-limb moduli (the `mul_mod` fast path), and the
//! even-modulus rejection rule.

use ccc_bignum::{modpow, modpow_naive, FixedBaseTable, MontgomeryCtx, Uint};
use proptest::prelude::*;

/// Build a Uint from random bytes (any length, leading zeros fine).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn montgomery_modpow_equals_naive(
        base in proptest::collection::vec(any::<u8>(), 0..48),
        exp in proptest::collection::vec(any::<u8>(), 0..24),
        modulus in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let base = uint(&base);
        let exp = uint(&exp);
        let modulus = odd_modulus(&modulus);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus > 1");
        prop_assert_eq!(
            ctx.modpow(&base, &exp),
            modpow_naive(&base, &exp, &modulus).unwrap()
        );
        // The public wrapper dispatches to the same answer.
        prop_assert_eq!(
            modpow(&base, &exp, &modulus).unwrap(),
            modpow_naive(&base, &exp, &modulus).unwrap()
        );
    }

    #[test]
    fn modpow_wrapper_equals_naive_for_even_moduli(
        base in proptest::collection::vec(any::<u8>(), 0..32),
        exp in proptest::collection::vec(any::<u8>(), 0..8),
        modulus in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let base = uint(&base);
        let exp = uint(&exp);
        let mut m = modulus.clone();
        *m.last_mut().unwrap() &= 0xfe; // force even
        let modulus = uint(&m);
        prop_assume!(!modulus.is_zero());
        // Even moduli must be rejected by the Montgomery layer...
        prop_assert!(MontgomeryCtx::new(&modulus).is_none());
        // ...and the wrapper must still answer via the naive path.
        prop_assert_eq!(
            modpow(&base, &exp, &modulus),
            modpow_naive(&base, &exp, &modulus)
        );
    }

    #[test]
    fn mul_mod_fast_path_equals_reference(
        a in proptest::collection::vec(any::<u8>(), 0..40),
        b in proptest::collection::vec(any::<u8>(), 0..40),
        d in 1u32..u32::MAX,
    ) {
        let a = uint(&a);
        let b = uint(&b);
        let m = Uint::from_u64(d as u64);
        // Reference: full product then Knuth division.
        let (_, reference) = a.mul(&b).div_rem(&m).unwrap();
        prop_assert_eq!(a.mul_mod(&b, &m), reference);
        let (_, rem_ref) = a.div_rem(&m).unwrap();
        prop_assert_eq!(a.rem(&m).unwrap(), rem_ref);
    }

    #[test]
    fn montgomery_mul_equals_mul_mod_multi_limb(
        a in proptest::collection::vec(any::<u8>(), 0..48),
        b in proptest::collection::vec(any::<u8>(), 0..48),
        modulus in proptest::collection::vec(any::<u8>(), 5..48),
    ) {
        let modulus = odd_modulus(&modulus);
        let a = uint(&a).rem(&modulus).unwrap();
        let b = uint(&b).rem(&modulus).unwrap();
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let am = ctx.to_montgomery(&a);
        let bm = ctx.to_montgomery(&b);
        prop_assert_eq!(
            ctx.from_montgomery(&ctx.mul(&am, &bm)),
            a.mul_mod(&b, &modulus)
        );
    }

    #[test]
    fn fixed_base_equals_naive(
        base in proptest::collection::vec(any::<u8>(), 1..24),
        exp in proptest::collection::vec(any::<u8>(), 0..20),
        modulus in proptest::collection::vec(any::<u8>(), 2..24),
    ) {
        let base = uint(&base);
        let exp = uint(&exp);
        let modulus = odd_modulus(&modulus);
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        // Table deliberately narrower than some exponents to also exercise
        // the fallback path.
        let table = FixedBaseTable::new(&ctx, &base, 96);
        prop_assert_eq!(
            table.pow(&ctx, &exp),
            modpow_naive(&base, &exp, &modulus).unwrap()
        );
    }

    #[test]
    fn generalized_fixed_base_table_equals_pow_mont(
        base in proptest::collection::vec(any::<u8>(), 1..32),
        exp in proptest::collection::vec(any::<u8>(), 0..20),
        modulus in proptest::collection::vec(any::<u8>(), 2..32),
        pick in 0usize..5,
    ) {
        // FixedBaseTable::from_mont_with_window over an arbitrary residue
        // (not a group generator) must agree with generic windowed
        // exponentiation at both widths in use — 4 bits (per-key tables)
        // and 8 bits (the generator table) — and at 3, 5 and 7 bits, whose
        // digits can straddle two 32-bit exponent limbs, including the
        // beyond-table-width fallback.
        let window = [3, 4, 5, 7, 8][pick];
        let modulus = odd_modulus(&modulus);
        let (base, exp) = (uint(&base), uint(&exp));
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let bm = ctx.to_montgomery(&base);
        let table = FixedBaseTable::from_mont_with_window(&ctx, &bm, 96, window);
        prop_assert_eq!(table.window(), window);
        prop_assert_eq!(
            ctx.from_montgomery(&table.pow_mont(&ctx, &exp)),
            ctx.modpow(&base, &exp)
        );
    }

    #[test]
    fn four_limb_moduli_agree_with_the_schoolbook_path(
        a in proptest::collection::vec(any::<u8>(), 0..41),
        b in proptest::collection::vec(any::<u8>(), 0..41),
        exp in proptest::collection::vec(any::<u8>(), 0..41),
        modulus in proptest::collection::vec(any::<u8>(), 25..33),
    ) {
        // The simulation group's width: 25–32 bytes with a non-zero top
        // byte is 193–256 bits, four 64-bit limbs. Operands run past the
        // modulus (40 bytes) and exponents past the 256-bit tables below,
        // so the beyond-table-width fallback runs too.
        let mut modulus = modulus;
        modulus[0] = modulus[0].max(1);
        let modulus = odd_modulus(&modulus);
        let (a, b, exp) = (uint(&a), uint(&b), uint(&exp));
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        prop_assert_eq!(ctx.limbs(), 4);
        let (am, bm) = (ctx.to_montgomery(&a), ctx.to_montgomery(&b));
        prop_assert_eq!(
            ctx.from_montgomery(&ctx.mul(&am, &bm)),
            a.mul_mod(&b, &modulus)
        );
        let expected = modpow_naive(&a, &exp, &modulus).unwrap();
        prop_assert_eq!(ctx.modpow(&a, &exp), expected.clone());
        for window in [4, 8] {
            let table = FixedBaseTable::from_mont_with_window(&ctx, &am, 256, window);
            prop_assert_eq!(table.pow(&ctx, &exp), expected.clone());
        }
    }
}

#[test]
fn r_boundary_values() {
    // Operands and results sitting exactly at the Montgomery radix
    // R = 2^(64k): the conditional-subtraction and carry-limb paths.
    for modulus in [
        // k = 1: R = 2^64.
        Uint::from_u64(0xffff_fff1),
        Uint::from_u64(3),
        // k = 1 with every bit of the limb set: n just below R.
        Uint::from_u64(u64::MAX - 58), // 0xffffffffffffffc5, odd? MAX-58 = ...c5 -> odd
        // Multi-limb: 2^96 - 17 (straddles a 64-bit limb boundary).
        Uint::from_hex("ffffffffffffffffffffffef").unwrap(),
        // k = 3 with all-ones limbs: 2^192 - 237.
        Uint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffff13").unwrap(),
        // k = 4, the simulation group's width: 2^256 - 189, every limb
        // all ones except the low byte.
        Uint::from_hex(concat!(
            "ffffffffffffffffffffffffffffffff",
            "ffffffffffffffffffffffffffffff43"
        ))
        .unwrap(),
        // k = 4: the simulation prime p itself.
        Uint::from_hex("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b").unwrap(),
        // k = 4 with a top limb of 1: 2^192 + 1.
        Uint::one().shl(192).add(&Uint::one()),
    ] {
        assert!(modulus.is_odd(), "{modulus:?}");
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let k = ctx.limbs();
        let r = Uint::one().shl(64 * k);
        for base in [
            r.checked_sub(&Uint::one()).unwrap(),       // R - 1
            r.clone(),                                  // R itself (≡ Montgomery one)
            r.add(&Uint::one()),                        // R + 1
            modulus.checked_sub(&Uint::one()).unwrap(), // n - 1
        ] {
            for exp in [Uint::one(), Uint::from_u64(2), Uint::from_u64(65537)] {
                assert_eq!(
                    ctx.modpow(&base, &exp),
                    modpow_naive(&base, &exp, &modulus).unwrap(),
                    "modulus={modulus:?} base={base:?} exp={exp:?}"
                );
            }
        }
        // Round-trip of R-1 through Montgomery form.
        let v = r.checked_sub(&Uint::one()).unwrap().rem(&modulus).unwrap();
        assert_eq!(ctx.from_montgomery(&ctx.to_montgomery(&v)), v);
    }
}

#[test]
fn even_modulus_rejection_and_wrapper_contract() {
    assert!(MontgomeryCtx::new(&Uint::zero()).is_none());
    assert!(MontgomeryCtx::new(&Uint::one()).is_none());
    assert!(MontgomeryCtx::new(&Uint::from_u64(2)).is_none());
    assert!(MontgomeryCtx::new(&Uint::from_u64(1 << 40)).is_none());
    // Wrapper edge cases unchanged from the seed implementation.
    assert!(modpow(&Uint::from_u64(2), &Uint::from_u64(10), &Uint::zero()).is_none());
    assert_eq!(
        modpow(&Uint::from_u64(2), &Uint::from_u64(10), &Uint::one()).unwrap(),
        Uint::zero()
    );
    assert_eq!(
        modpow(&Uint::from_u64(2), &Uint::zero(), &Uint::from_u64(7)).unwrap(),
        Uint::one()
    );
}
