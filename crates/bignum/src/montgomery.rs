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
//! Every product in the module runs one private kernel,
//! `MontgomeryCtx::mul_into`, which writes into a caller-owned `k + 2`-limb
//! scratch buffer. [`MontgomeryCtx::mul`] wraps it with one allocation for
//! the result; the exponentiation loops hold one accumulator and one scratch
//! buffer per call and allocate nothing per product.
//!
//! The kernel takes the limb count `k` as an argument, and each public
//! entry point that multiplies dispatches once on the context's width
//! through the private `at_width` helper, whose one literal arm is four
//! limbs: the simulation group's width. There the compiler sees `k` as a
//! constant and unrolls the kernel and the loop around it; every other
//! width runs the same source with `k` read at run time.
//!
//! On top of the context sit two exponentiation strategies:
//!
//! - [`MontgomeryCtx::modpow`]: 4-bit fixed-window exponentiation for
//!   arbitrary bases (15 precomputed powers, then 4 squarings + at most
//!   one multiplication per window);
//! - [`FixedBaseTable`]: Brauer-style fixed-base windowing for bases that
//!   are exponentiated millions of times (the group generator `g`, and CA
//!   keys past their promotion threshold): all `base^(d·2^(w·i))` are
//!   precomputed into one contiguous limb vector, so `base^e` costs only
//!   one Montgomery multiplication per non-zero `w`-bit digit of `e` — no
//!   squarings at all.
//!
//! Both build their digit rows with the one shared `digit_powers` helper
//! and read exponent digits with the one shared `window_digit` helper.
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

/// The `width`-bit digit of an exponent starting at bit `at`, read from its
/// little-endian `u32` limbs (bits past the top limb read as zero).
///
/// `width ≤ 16`, so a digit crosses at most one limb boundary: two limb
/// reads, one shift and one mask.
fn window_digit(limbs: &[u32], at: usize, width: usize) -> usize {
    debug_assert!((1..=16).contains(&width));
    let (i, off) = (at / 32, at % 32);
    let lo = limbs.get(i).copied().unwrap_or(0) as u64;
    let hi = limbs.get(i + 1).copied().unwrap_or(0) as u64;
    (((lo | (hi << 32)) >> off) & ((1 << width) - 1)) as usize
}

/// Run `f` at limb count `k`, passing four as a literal.
///
/// Four 64-bit limbs is the 256-bit simulation group's width, and every
/// corpus workload multiplies at it. In that arm `f`'s inlined body sees
/// a constant `k`, so the compiler unrolls the kernel and the loops
/// around it; any other width runs the same code with `k` read at run
/// time. Keep each `f` a single call into an `#[inline(always)]`
/// function: a closure that holds the loop itself need not be inlined
/// into both arms, and then nothing is unrolled.
#[inline(always)]
fn at_width<R>(k: usize, f: impl FnOnce(usize) -> R) -> R {
    match k {
        4 => f(4),
        k => f(k),
    }
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
        let pad = |v: &Uint| MontElem {
            limbs: to_limbs64(v, k),
        };
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
    /// does too. This is the one allocating wrapper around the kernel the
    /// exponentiation loops call directly.
    pub fn mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let k = self.limbs();
        let mut t = vec![0u64; k + 2];
        at_width(k, |k| self.mul_into(k, &a.limbs, &b.limbs, &mut t));
        t.truncate(k);
        MontElem { limbs: t }
    }

    /// The CIOS kernel: leaves `a·b·R⁻¹ mod n` in `t[..k]`.
    ///
    /// `k` is the context's limb count, passed in so that a caller inside
    /// [`at_width`]'s four-limb arm compiles it as a constant. `a` and `b`
    /// hold `k` limbs each and `t` holds `k + 2`: `k` accumulated limbs
    /// plus two carry limbs. One interleaved pass accumulates `a[i]·b` and
    /// the reduction term `m·n`, shifting one limb per outer step, so the
    /// working buffer never grows. `t`'s prior contents are ignored.
    #[inline(always)]
    fn mul_into(&self, k: usize, a: &[u64], b: &[u64], t: &mut [u64]) {
        debug_assert_eq!(self.limbs(), k);
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(t.len(), k + 2);
        // Slicing once up front lets the compiler drop the per-index
        // bounds checks inside the loops.
        let (a, b, n) = (&a[..k], &b[..k], &self.n_limbs[..k]);
        let t = &mut t[..k + 2];
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry: u128 = 0;
            for (tj, &bj) in t[..k].iter_mut().zip(b) {
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
        if t[k] != 0 || !limbs_lt(&t[..k], n) {
            limbs_sub_in_place(&mut t[..=k], n);
        }
    }

    /// `base^exp mod n` with both input and output in normal form.
    pub fn modpow(&self, base: &Uint, exp: &Uint) -> Uint {
        let b = self.to_montgomery(base);
        self.from_montgomery(&self.pow_mont(&b, exp))
    }

    /// 4-bit fixed-window exponentiation over Montgomery residues.
    pub fn pow_mont(&self, base: &MontElem, exp: &Uint) -> MontElem {
        at_width(self.limbs(), |k| self.pow_mont_at(k, base, exp))
    }

    /// [`pow_mont`](Self::pow_mont) at limb count `k`.
    #[inline(always)]
    fn pow_mont_at(&self, k: usize, base: &MontElem, exp: &Uint) -> MontElem {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.one();
        }
        let mut t = vec![0u64; k + 2];
        // table[(d-1)·k..d·k] = base^d for d in 1..16.
        let mut table = vec![0u64; ((1 << WINDOW) - 1) * k];
        digit_powers(self, k, &base.limbs, &mut table, &mut t);
        let exp = exp.limbs();
        let windows = bits.div_ceil(WINDOW);
        // The top window holds the top set bit, so its digit is non-zero.
        let top = window_digit(exp, (windows - 1) * WINDOW, WINDOW);
        let mut acc = table[(top - 1) * k..][..k].to_vec();
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mul_into(k, &acc, &acc, &mut t);
                acc.copy_from_slice(&t[..k]);
            }
            let digit = window_digit(exp, w * WINDOW, WINDOW);
            if digit != 0 {
                self.mul_into(k, &acc, &table[(digit - 1) * k..][..k], &mut t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        MontElem { limbs: acc }
    }
}

/// Fill `row` with the digit row of one base: `base^d` for
/// `d ∈ [1, 2^w)` in Montgomery form, `base^d` at limbs
/// `(d − 1)·k .. d·k`. The window width `w` is implied by the row length,
/// `(2^w − 1)·k` limbs; `k` is the context's limb count and `t` the
/// kernel's `k + 2`-limb scratch.
///
/// The one shared builder behind every digit table in the crate: the
/// per-call table of [`MontgomeryCtx::pow_mont`] and each row of a
/// [`FixedBaseTable`].
#[inline(always)]
fn digit_powers(ctx: &MontgomeryCtx, k: usize, base: &[u64], row: &mut [u64], t: &mut [u64]) {
    debug_assert_eq!(base.len(), k);
    debug_assert!(row.len() % k == 0 && (row.len() / k + 1).is_power_of_two());
    row[..k].copy_from_slice(base);
    for d in 1..row.len() / k {
        let (done, rest) = row.split_at_mut(d * k);
        ctx.mul_into(k, &done[(d - 1) * k..], base, t);
        rest[..k].copy_from_slice(&t[..k]);
    }
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
/// The table holds `base^(d · 2^(w·i))` in Montgomery form for every
/// window index `i < windows` and digit `d ∈ [1, 2^w)`, in one contiguous
/// limb vector: the residue for `(i, d)` starts at limb
/// `(i·(2^w − 1) + d − 1)·k`. Evaluating `base^e` is then a product of one
/// table entry per non-zero `w`-bit digit of `e` — about `bits/w`
/// Montgomery multiplications and zero squarings.
///
/// Memory cost: `⌈bits/w⌉ · (2^w − 1) · k` limbs in one allocation. For
/// the exponent widths `ccc-crypto` uses (255 bits over a 256-bit modulus,
/// 1535 over 1536 bits) that is 30 KiB and 1.05 MiB at the default `w = 4`,
/// and 255 KiB and 8.96 MiB at `w = 8` (the generator table). Either is
/// paid once per base per process via the owner's `OnceLock`.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    table: Vec<u64>,
    windows: usize,
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
        at_width(ctx.limbs(), |k| {
            FixedBaseTable::from_mont_with_window_at(ctx, k, base, max_exp_bits, window)
        })
    }

    /// [`from_mont_with_window`](Self::from_mont_with_window) at limb
    /// count `k`.
    #[inline(always)]
    fn from_mont_with_window_at(
        ctx: &MontgomeryCtx,
        k: usize,
        base: &MontElem,
        max_exp_bits: usize,
        window: usize,
    ) -> FixedBaseTable {
        debug_assert!((1..=16).contains(&window));
        let windows = max_exp_bits.div_ceil(window).max(1);
        let row_len = ((1 << window) - 1) * k;
        let mut table = vec![0u64; windows * row_len];
        let mut t = vec![0u64; k + 2];
        let mut block_base = base.limbs.clone();
        for (w, row) in table.chunks_exact_mut(row_len).enumerate() {
            digit_powers(ctx, k, &block_base, row, &mut t);
            if w + 1 < windows {
                // base for the next block: this block's base^(2^window).
                let half = &row[((1 << (window - 1)) - 1) * k..][..k];
                ctx.mul_into(k, half, half, &mut t);
                block_base.copy_from_slice(&t[..k]);
            }
        }
        FixedBaseTable {
            table,
            windows,
            window,
        }
    }

    /// Highest exponent bit width the table covers.
    pub fn max_exp_bits(&self) -> usize {
        self.windows * self.window
    }

    /// The window width this table was built at (bits per digit).
    pub fn window(&self) -> usize {
        self.window
    }

    /// `base^exp` in Montgomery form.
    ///
    /// Exponents wider than the table fall back to windowed square-and-
    /// multiply on the stored base (the table's first residue), so the
    /// result is always correct.
    pub fn pow_mont(&self, ctx: &MontgomeryCtx, exp: &Uint) -> MontElem {
        at_width(ctx.limbs(), |k| self.pow_mont_at(ctx, k, exp))
    }

    /// [`pow_mont`](Self::pow_mont) at limb count `k`.
    #[inline(always)]
    fn pow_mont_at(&self, ctx: &MontgomeryCtx, k: usize, exp: &Uint) -> MontElem {
        if exp.bit_len() > self.max_exp_bits() {
            let base = MontElem {
                limbs: self.table[..k].to_vec(),
            };
            return ctx.pow_mont(&base, exp);
        }
        let row_len = ((1 << self.window) - 1) * k;
        let exp = exp.limbs();
        let mut acc: Option<Vec<u64>> = None;
        let mut t = vec![0u64; k + 2];
        for w in 0..self.windows {
            let digit = window_digit(exp, w * self.window, self.window);
            if digit == 0 {
                continue;
            }
            let entry = &self.table[w * row_len + (digit - 1) * k..][..k];
            match acc.as_mut() {
                Some(acc) => {
                    ctx.mul_into(k, acc, entry, &mut t);
                    acc.copy_from_slice(&t[..k]);
                }
                None => acc = Some(entry.to_vec()),
            }
        }
        acc.map_or_else(|| ctx.one(), |limbs| MontElem { limbs })
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
        assert_eq!(ctx.from_montgomery(&ctx.mul(&am, &am)), a.mul_mod(&a, &n));
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
        assert_eq!(
            ctx.modpow(&base, &exp),
            modpow_naive(&base, &exp, &n).unwrap()
        );
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
            assert_eq!(
                wide.pow_mont(&ctx, &e),
                narrow.pow_mont(&ctx, &e),
                "e={e:?}"
            );
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
        let k = ctx.limbs();
        let mut t = vec![0u64; k + 2];
        for window in [1usize, 2, 4, 5, 8] {
            let mut row = vec![0u64; ((1 << window) - 1) * k];
            digit_powers(&ctx, k, &base.limbs, &mut row, &mut t);
            let mut acc = base.clone();
            for p in row.chunks_exact(k) {
                assert_eq!(p, &acc.limbs[..]);
                acc = ctx.mul(&acc, &base);
            }
        }
    }

    #[test]
    fn fixed_base_tables_are_one_flat_vector() {
        // A 255-bit exponent (the sim256 group's q) over a 256-bit modulus:
        // ⌈255/w⌉ rows of 2^w − 1 four-limb residues in one limb vector,
        // the residue for (row w, digit d) at limb (w·(2^w − 1) + d − 1)·k.
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        assert_eq!(ctx.limbs(), 4);
        let g = ctx.to_montgomery(&Uint::from_u64(4));
        let per_key = FixedBaseTable::from_mont(&ctx, &g, 255);
        let generator = FixedBaseTable::from_mont_with_window(&ctx, &g, 255, 8);
        assert_eq!(per_key.table.len(), 64 * 15 * 4);
        assert_eq!(generator.table.len(), 32 * 255 * 4);
        for (table, window) in [(&per_key, 4), (&generator, 8)] {
            let digits = (1 << window) - 1;
            for (w, d) in [(0, 1), (1, 3), (table.windows - 1, digits)] {
                let at = (w * digits + d - 1) * 4;
                let exp = Uint::from_u64(d as u64).shl(w * window);
                assert_eq!(&table.table[at..at + 4], &ctx.pow_mont(&g, &exp).limbs[..]);
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
