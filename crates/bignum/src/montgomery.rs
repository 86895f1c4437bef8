//! Montgomery-form modular arithmetic.
//!
//! A [`MontgomeryCtx`] precomputes, for one odd modulus `n` of `k` 64-bit
//! limbs, everything needed to multiply residues without per-step division:
//! `n' = -n⁻¹ mod 2⁶⁴` and `R² mod n` where `R = 2^(64k)`. Products are
//! reduced with CIOS (coarsely integrated operand scanning) Montgomery
//! multiplication — one fused multiply/reduce pass over the limbs — so the
//! quadratic `div_rem` the naive path performs after every multiplication
//! disappears entirely.
//!
//! The context deliberately widens [`Uint`]'s 32-bit limbs to 64-bit ones
//! at the conversion boundary: on 64-bit hosts one `u64×u64 → u128`
//! multiply replaces four `u32×u32 → u64` multiplies, quartering the inner
//! CIOS work for the same modulus.
//!
//! On top of the context sit two exponentiation strategies:
//!
//! - [`MontgomeryCtx::modpow`]: 4-bit fixed-window exponentiation for
//!   arbitrary bases (15 precomputed odd powers, then 4 squarings + at most
//!   one multiplication per window);
//! - [`FixedBaseTable`]: Brauer-style fixed-base windowing for bases that
//!   are exponentiated millions of times (the group generator `g`, and CA
//!   keys past their promotion threshold): all `base^(d·2^(w·i))` are
//!   precomputed, so `base^e` costs only one Montgomery multiplication per
//!   non-zero `w`-bit digit of `e` — no squarings at all.
//!
//! Both build their digit tables with the one shared [`digit_powers`]
//! helper.
//!
//! Everything here is exact integer arithmetic: results are bit-identical
//! to the schoolbook `mul` + `div_rem` path, which the proptest equivalence
//! suite (`crates/bignum/tests/montgomery_equiv.rs`) pins down.

use crate::uint::Uint;

/// Default exponentiation window width in bits (tables hold `2^W - 1`
/// entries): [`MontgomeryCtx::pow_mont`] and [`FixedBaseTable::from_mont`]
/// use it.
const WINDOW: usize = 4;

/// A residue in Montgomery form with respect to some [`MontgomeryCtx`].
///
/// The limb vector always has exactly `ctx.limbs()` entries (trailing zeros
/// included) and represents `a·R mod n`. Elements are only meaningful
/// together with the context that produced them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MontElem {
    limbs: Vec<u64>,
}

/// Precomputed constants for Montgomery arithmetic modulo one odd `n > 1`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus.
    n: Uint,
    /// Little-endian 64-bit limbs of `n` (length `k`, top limb non-zero).
    n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴` (exists because `n` is odd).
    n0_inv: u64,
    /// `R mod n` — the Montgomery form of 1.
    one: MontElem,
    /// `R² mod n` — multiplier for the to-Montgomery conversion.
    r2: MontElem,
}

/// Widen a [`Uint`]'s 32-bit limbs into `k` little-endian 64-bit limbs.
fn to_limbs64(v: &Uint, k: usize) -> Vec<u64> {
    let src = v.limbs();
    let mut out = vec![0u64; k];
    for (i, limb) in out.iter_mut().enumerate() {
        let lo = src.get(2 * i).copied().unwrap_or(0) as u64;
        let hi = src.get(2 * i + 1).copied().unwrap_or(0) as u64;
        *limb = lo | (hi << 32);
    }
    out
}

/// Narrow 64-bit limbs back into a (normalized) [`Uint`].
fn limbs64_to_uint(limbs: &[u64]) -> Uint {
    let mut out = Vec::with_capacity(limbs.len() * 2);
    for &l in limbs {
        out.push(l as u32);
        out.push((l >> 32) as u32);
    }
    Uint::from_limbs(out)
}

impl MontgomeryCtx {
    /// Build a context for `modulus`.
    ///
    /// Returns `None` when the modulus is even or `< 2`: Montgomery
    /// reduction requires `gcd(n, 2³²) = 1`, and `n = 1` has no useful
    /// residues (callers special-case it).
    pub fn new(modulus: &Uint) -> Option<MontgomeryCtx> {
        if !modulus.is_odd() || modulus <= &Uint::one() {
            return None;
        }
        let k = modulus.limbs().len().div_ceil(2);
        let n_limbs = to_limbs64(modulus, k);

        // n0_inv = -n[0]^{-1} mod 2^64 by Newton–Hensel lifting: for odd a,
        // x_{i+1} = x_i (2 - a x_i) doubles the number of correct bits.
        let a = n_limbs[0];
        let mut inv: u64 = a; // correct to 3 bits for odd a
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
        }
        debug_assert_eq!(a.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R mod n and R^2 mod n via the (setup-only) schoolbook path.
        let r = Uint::one().shl(64 * k);
        let one_val = r.rem(modulus).expect("modulus > 1");
        let r2_val = one_val.mul_mod(&one_val, modulus);
        let pad = |v: &Uint| MontElem { limbs: to_limbs64(v, k) };
        Some(MontgomeryCtx {
            n: modulus.clone(),
            one: pad(&one_val),
            r2: pad(&r2_val),
            n_limbs,
            n0_inv,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// Number of 64-bit limbs in the modulus (the Montgomery radix is
    /// `R = 2^(64·limbs())`).
    pub fn limbs(&self) -> usize {
        self.n_limbs.len()
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub fn one(&self) -> MontElem {
        self.one.clone()
    }

    /// Convert `a` (any size; reduced mod `n` first) into Montgomery form.
    pub fn to_montgomery(&self, a: &Uint) -> MontElem {
        let reduced = a.rem(&self.n).expect("modulus > 1");
        let limbs = to_limbs64(&reduced, self.limbs());
        self.mul(&MontElem { limbs }, &self.r2)
    }

    /// Convert a Montgomery residue back to a normal integer in `[0, n)`.
    pub fn from_montgomery(&self, a: &MontElem) -> Uint {
        let mut one = vec![0u64; self.limbs()];
        one[0] = 1;
        let redc = self.mul(a, &MontElem { limbs: one });
        limbs64_to_uint(&redc.limbs)
    }

    /// CIOS Montgomery multiplication: returns `a·b·R⁻¹ mod n`.
    ///
    /// Both inputs must belong to this context (limb count `k`); the result
    /// does too. One interleaved pass accumulates `a[i]·b` and the
    /// reduction term `m·n`, shifting one limb per outer step, so the
    /// working buffer never exceeds `k + 2` limbs.
    pub fn mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let k = self.limbs();
        debug_assert_eq!(a.limbs.len(), k);
        debug_assert_eq!(b.limbs.len(), k);
        let n = &self.n_limbs;
        // t holds k+2 limbs: k accumulated limbs plus two carry limbs.
        let mut t = vec![0u64; k + 2];
        for &ai in &a.limbs {
            // t += ai * b
            let mut carry: u128 = 0;
            for (tj, &bj) in t[..k].iter_mut().zip(&b.limbs) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m chosen so t + m*n ≡ 0 (mod 2^64); add and shift right one limb.
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            // The final carry cannot overflow u64: t < 2n·2^(64k) throughout.
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        // Result is t[..=k] < 2n; one conditional subtraction normalizes.
        let mut out = t;
        out.truncate(k + 1);
        if out[k] != 0 || !limbs_lt(&out[..k], n) {
            limbs_sub_in_place(&mut out, n);
        }
        out.truncate(k);
        MontElem { limbs: out }
    }

    /// Montgomery squaring (alias of [`mul`](Self::mul) with one operand).
    pub fn square(&self, a: &MontElem) -> MontElem {
        self.mul(a, a)
    }

    /// `base^exp mod n` with both input and output in normal form.
    pub fn modpow(&self, base: &Uint, exp: &Uint) -> Uint {
        let b = self.to_montgomery(base);
        self.from_montgomery(&self.pow_mont(&b, exp))
    }

    /// 4-bit fixed-window exponentiation over Montgomery residues.
    pub fn pow_mont(&self, base: &MontElem, exp: &Uint) -> MontElem {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.one();
        }
        // table[d-1] = base^d for d in 1..16.
        let table = digit_powers(self, base, WINDOW);
        let windows = bits.div_ceil(WINDOW);
        let mut result: Option<MontElem> = None;
        for w in (0..windows).rev() {
            if let Some(r) = result.as_mut() {
                for _ in 0..WINDOW {
                    *r = self.square(r);
                }
            }
            let mut digit = 0usize;
            for bit in (0..WINDOW).rev() {
                let idx = w * WINDOW + bit;
                digit = (digit << 1) | usize::from(exp.bit(idx));
            }
            if digit != 0 {
                result = Some(match result {
                    Some(r) => self.mul(&r, &table[digit - 1]),
                    None => table[digit - 1].clone(),
                });
            }
        }
        result.unwrap_or_else(|| self.one())
    }
}

/// The digit table for one base at window width `window`: `base^d` for
/// `d ∈ [1, 2^window)`, in Montgomery form (`2^window - 1` entries; index
/// `d - 1` holds `base^d`).
///
/// The one shared builder behind every digit table in the crate: the
/// per-call table of [`MontgomeryCtx::pow_mont`] and each block row of a
/// [`FixedBaseTable`].
fn digit_powers(ctx: &MontgomeryCtx, base: &MontElem, window: usize) -> Vec<MontElem> {
    debug_assert!(window >= 1);
    let mut powers = Vec::with_capacity((1 << window) - 1);
    powers.push(base.clone());
    for d in 1..(1 << window) - 1 {
        let next = ctx.mul(&powers[d - 1], base);
        powers.push(next);
    }
    powers
}

/// `a < b` over equal-length little-endian limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a -= b` in place (`a` may be one limb longer than `b`; no underflow).
fn limbs_sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for i in 0..a.len() {
        let bi = if i < b.len() { b[i] } else { 0 };
        let (d1, o1) = a[i].overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow as u64);
        a[i] = d2;
        borrow = o1 || o2;
    }
    debug_assert!(!borrow);
}

/// Precomputed powers of one base for Brauer fixed-base windowing.
///
/// `table[i][d-1] = base^(d · 2^(w·i))` in Montgomery form, for window
/// index `i` up to `max_exp_bits` and digit `d ∈ [1, 2^w)`. Evaluating
/// `base^e` is then a product of one table entry per non-zero `w`-bit digit
/// of `e` — about `bits/w` Montgomery multiplications and zero squarings.
///
/// Memory cost: `⌈bits/w⌉ · (2^w − 1)` residues. At the default `w = 4`
/// that is ≈30 KiB for a 256-bit modulus and ≈1.1 MiB for 1536 bits; at
/// `w = 8` (the `ccc-crypto` generator table) ≈260 KiB and ≈9.4 MiB.
/// Either is paid once per base per process via the owner's `OnceLock`.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    table: Vec<Vec<MontElem>>,
    max_bits: usize,
    window: usize,
}

impl FixedBaseTable {
    /// Precompute the window tables for `base` (normal form) under `ctx`,
    /// covering exponents up to `max_exp_bits` bits.
    pub fn new(ctx: &MontgomeryCtx, base: &Uint, max_exp_bits: usize) -> FixedBaseTable {
        FixedBaseTable::from_mont(ctx, &ctx.to_montgomery(base), max_exp_bits)
    }

    /// Precompute the window tables for a base that is *already* a
    /// Montgomery residue of `ctx`.
    ///
    /// This is the general entry point: any group element — not just a
    /// generator — can be promoted to fixed-base treatment once it is
    /// known to be exponentiated repeatedly (e.g. a CA public key `y`
    /// verified against for many certificates). `new` is the normal-form
    /// convenience wrapper.
    pub fn from_mont(ctx: &MontgomeryCtx, base: &MontElem, max_exp_bits: usize) -> FixedBaseTable {
        FixedBaseTable::from_mont_with_window(ctx, base, max_exp_bits, WINDOW)
    }

    /// [`from_mont`](Self::from_mont) at an explicit window width.
    ///
    /// Wider windows trade table size (and build time) for fewer
    /// multiplications per exponentiation: `⌈bits/w⌉` lookups instead of
    /// `⌈bits/4⌉`. The `ccc-crypto` generator table is 8 bits wide —
    /// every keygen, signature and verification exponentiates `g`, so the
    /// bigger build amortizes where a per-key table would not.
    pub fn from_mont_with_window(
        ctx: &MontgomeryCtx,
        base: &MontElem,
        max_exp_bits: usize,
        window: usize,
    ) -> FixedBaseTable {
        debug_assert!((1..=16).contains(&window));
        let windows = max_exp_bits.div_ceil(window).max(1);
        let mut block_base = base.clone();
        let mut table = Vec::with_capacity(windows);
        for w in 0..windows {
            let row = digit_powers(ctx, &block_base, window);
            if w + 1 < windows {
                // base for the next block: this block's base^(2^window).
                block_base = ctx.square(&row[(1 << (window - 1)) - 1]);
            }
            table.push(row);
        }
        FixedBaseTable { table, max_bits: windows * window, window }
    }

    /// Highest exponent bit width the table covers.
    pub fn max_exp_bits(&self) -> usize {
        self.max_bits
    }

    /// The window width this table was built at (bits per digit).
    pub fn window(&self) -> usize {
        self.window
    }

    /// `base^exp` in Montgomery form.
    ///
    /// Exponents wider than the table fall back to windowed square-and-
    /// multiply on the stored base (`table[0][0]`), so the result is always
    /// correct.
    pub fn pow_mont(&self, ctx: &MontgomeryCtx, exp: &Uint) -> MontElem {
        if exp.bit_len() > self.max_bits {
            return ctx.pow_mont(&self.table[0][0], exp);
        }
        let mut result: Option<MontElem> = None;
        for (w, row) in self.table.iter().enumerate() {
            let mut digit = 0usize;
            for bit in (0..self.window).rev() {
                digit = (digit << 1) | usize::from(exp.bit(w * self.window + bit));
            }
            if digit != 0 {
                result = Some(match result {
                    Some(r) => ctx.mul(&r, &row[digit - 1]),
                    None => row[digit - 1].clone(),
                });
            }
        }
        result.unwrap_or_else(|| ctx.one())
    }

    /// `base^exp mod n` in normal form.
    pub fn pow(&self, ctx: &MontgomeryCtx, exp: &Uint) -> Uint {
        ctx.from_montgomery(&self.pow_mont(ctx, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::modpow_naive;

    fn u(hex: &str) -> Uint {
        Uint::from_hex(hex).unwrap()
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&Uint::zero()).is_none());
        assert!(MontgomeryCtx::new(&Uint::one()).is_none());
        assert!(MontgomeryCtx::new(&Uint::from_u64(10)).is_none());
        assert!(MontgomeryCtx::new(&u("fffffffffffffffffffffffe")).is_none());
        assert!(MontgomeryCtx::new(&Uint::from_u64(3)).is_some());
    }

    #[test]
    fn roundtrip_to_from_montgomery() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for v in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(0xdead_beef),
            n.checked_sub(&Uint::one()).unwrap(),
        ] {
            let m = ctx.to_montgomery(&v);
            assert_eq!(ctx.from_montgomery(&m), v);
        }
        // Values >= n reduce first.
        let big = n.mul(&Uint::from_u64(7)).add(&Uint::from_u64(42));
        assert_eq!(
            ctx.from_montgomery(&ctx.to_montgomery(&big)),
            Uint::from_u64(42)
        );
    }

    #[test]
    fn mul_matches_schoolbook() {
        let n = u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let a = u("1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef");
        let b = u("123456789abcdef0fedcba9876543210");
        let am = ctx.to_montgomery(&a);
        let bm = ctx.to_montgomery(&b);
        assert_eq!(ctx.from_montgomery(&ctx.mul(&am, &bm)), a.mul_mod(&b, &n));
        assert_eq!(ctx.from_montgomery(&ctx.square(&am)), a.mul_mod(&a, &n));
    }

    #[test]
    fn modpow_matches_naive_single_limb() {
        let n = Uint::from_u64(0xffff_fff1); // odd single-limb modulus
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for (b, e) in [(3u64, 0u64), (2, 1), (7, 65537), (0xffff_ffff, 12345)] {
            let b = Uint::from_u64(b);
            let e = Uint::from_u64(e);
            assert_eq!(
                ctx.modpow(&b, &e),
                modpow_naive(&b, &e, &n).unwrap(),
                "b={b:?} e={e:?}"
            );
        }
    }

    #[test]
    fn modpow_matches_naive_multi_limb() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = u("ab3d485627ba6272e0f9c0a9ae435e247c91df81a1743c12a89eeaf8ef52878a");
        let exp = u("1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef");
        assert_eq!(ctx.modpow(&base, &exp), modpow_naive(&base, &exp, &n).unwrap());
    }

    #[test]
    fn fixed_base_matches_ctx_pow() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = Uint::from_u64(4);
        let table = FixedBaseTable::new(&ctx, &g, 256);
        for e in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(2),
            Uint::from_u64(0xffff_ffff_ffff_ffff),
            u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb784"),
        ] {
            assert_eq!(table.pow(&ctx, &e), ctx.modpow(&g, &e), "e={e:?}");
        }
    }

    #[test]
    fn wide_window_table_matches_default_window() {
        // The 8-bit generator-table width must agree with the default
        // 4-bit table (and the plain ctx pow) bit-for-bit.
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = ctx.to_montgomery(&Uint::from_u64(4));
        let narrow = FixedBaseTable::from_mont(&ctx, &g, 256);
        let wide = FixedBaseTable::from_mont_with_window(&ctx, &g, 256, 8);
        assert_eq!(narrow.window(), WINDOW);
        assert_eq!(wide.window(), 8);
        for e in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(0xdead_beef),
            u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb784"),
        ] {
            assert_eq!(wide.pow_mont(&ctx, &e), narrow.pow_mont(&ctx, &e), "e={e:?}");
            assert_eq!(wide.pow_mont(&ctx, &e), ctx.pow_mont(&g, &e), "e={e:?}");
        }
    }

    #[test]
    fn digit_powers_are_consecutive_powers() {
        // Every width yields base^1 .. base^(2^w − 1) in order.
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = ctx.to_montgomery(&u(
            "ab3d485627ba6272e0f9c0a9ae435e247c91df81a1743c12a89eeaf8ef52878a",
        ));
        for window in [1usize, 2, 4, 5, 8] {
            let powers = digit_powers(&ctx, &base, window);
            assert_eq!(powers.len(), (1 << window) - 1);
            let mut acc = base.clone();
            for p in &powers {
                assert_eq!(p, &acc);
                acc = ctx.mul(&acc, &base);
            }
        }
    }

    #[test]
    fn fixed_base_falls_back_beyond_table_width() {
        let n = Uint::from_u64(1_000_003);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = Uint::from_u64(5);
        let table = FixedBaseTable::new(&ctx, &g, 16);
        let wide = u("1234567890abcdef1234"); // > 16 bits
        assert_eq!(table.pow(&ctx, &wide), ctx.modpow(&g, &wide));
    }

    #[test]
    fn zero_and_one_bases() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let e = Uint::from_u64(12345);
        assert_eq!(ctx.modpow(&Uint::zero(), &e), Uint::zero());
        assert_eq!(ctx.modpow(&Uint::one(), &e), Uint::one());
        assert_eq!(ctx.modpow(&Uint::zero(), &Uint::zero()), Uint::one());
    }
}
