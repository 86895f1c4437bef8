//! Modular exponentiation and inversion.

use crate::montgomery::MontgomeryCtx;
use crate::Uint;

/// Compute `base^exp mod modulus`.
///
/// Odd moduli (every modulus the crypto stack uses: safe primes and their
/// subgroup orders) dispatch to Montgomery-form 4-bit fixed-window
/// exponentiation ([`MontgomeryCtx::modpow`]); even moduli fall back to the
/// schoolbook square-and-multiply path ([`modpow_naive`]). Both paths are
/// exact, so results are bit-identical regardless of dispatch.
///
/// Returns `None` when `modulus` is zero. `base^0 mod 1` is `0` (all values
/// are congruent to 0 mod 1).
pub fn modpow(base: &Uint, exp: &Uint, modulus: &Uint) -> Option<Uint> {
    if modulus.is_zero() {
        return None;
    }
    if modulus == &Uint::one() {
        return Some(Uint::zero());
    }
    match MontgomeryCtx::new(modulus) {
        Some(ctx) => Some(ctx.modpow(base, exp)),
        None => modpow_naive(base, exp, modulus),
    }
}

/// Bit-by-bit square-and-multiply with full `mul` + `div_rem` reduction at
/// every step — the pre-Montgomery reference implementation.
///
/// Kept public for even moduli, the equivalence test-suite, and the
/// baseline of `perf_snapshot`'s modexp cases.
pub fn modpow_naive(base: &Uint, exp: &Uint, modulus: &Uint) -> Option<Uint> {
    if modulus.is_zero() {
        return None;
    }
    if modulus == &Uint::one() {
        return Some(Uint::zero());
    }
    let mut result = Uint::one();
    let mut b = base.rem(modulus)?;
    let bits = exp.bit_len();
    for i in 0..bits {
        if exp.bit(i) {
            result = result.mul_mod(&b, modulus);
        }
        if i + 1 < bits {
            b = b.mul_mod(&b, modulus);
        }
    }
    Some(result)
}

/// Compute the multiplicative inverse of `a` modulo `m` via the extended
/// Euclidean algorithm.
///
/// Returns `None` when `gcd(a, m) != 1` or `m < 2`.
pub fn modinv(a: &Uint, m: &Uint) -> Option<Uint> {
    if m < &Uint::from_u64(2) {
        return None;
    }
    // Extended Euclid tracking only the coefficient of `a`, with signs
    // handled by (value, negative) pairs.
    let mut r0 = m.clone();
    let mut r1 = a.rem(m)?;
    if r1.is_zero() {
        return None;
    }
    // t coefficients: x0, x1 with sign flags.
    let mut t0 = (Uint::zero(), false);
    let mut t1 = (Uint::one(), false);
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1).expect("r1 non-zero");
        // t2 = t0 - q * t1
        let qt1 = q.mul(&t1.0);
        let t2 = signed_sub(&t0, &(qt1, t1.1));
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    if r0 != Uint::one() {
        return None;
    }
    // Normalize t0 into [0, m).
    let (val, neg) = t0;
    let val = val.rem(m)?;
    Some(if neg && !val.is_zero() {
        m.checked_sub(&val)
            .expect("val reduced mod m, so m - val cannot underflow")
    } else {
        val
    })
}

/// `a - b` on (magnitude, is_negative) pairs.
fn signed_sub(a: &(Uint, bool), b: &(Uint, bool)) -> (Uint, bool) {
    match (a.1, b.1) {
        // a - b where both non-negative
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (
                b.0.checked_sub(&a.0).expect("b >= a when a - b underflows"),
                true,
            ),
        },
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - (-b) = b - a
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (
                a.0.checked_sub(&b.0).expect("a >= b when b - a underflows"),
                true,
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modpow_small() {
        let r = modpow(
            &Uint::from_u64(4),
            &Uint::from_u64(13),
            &Uint::from_u64(497),
        )
        .unwrap();
        assert_eq!(r, Uint::from_u64(445));
    }

    #[test]
    fn modpow_edge_cases() {
        assert!(modpow(&Uint::from_u64(2), &Uint::from_u64(10), &Uint::zero()).is_none());
        assert_eq!(
            modpow(&Uint::from_u64(2), &Uint::from_u64(10), &Uint::one()).unwrap(),
            Uint::zero()
        );
        assert_eq!(
            modpow(&Uint::from_u64(2), &Uint::zero(), &Uint::from_u64(7)).unwrap(),
            Uint::one()
        );
        assert_eq!(
            modpow(&Uint::zero(), &Uint::from_u64(5), &Uint::from_u64(7)).unwrap(),
            Uint::zero()
        );
    }

    #[test]
    fn modpow_fermat() {
        // a^(p-1) = 1 mod p for prime p and gcd(a,p)=1.
        let p = Uint::from_hex("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b")
            .unwrap();
        let a = Uint::from_u64(0x1234_5678_9abc_def1);
        let e = p.checked_sub(&Uint::one()).unwrap();
        assert_eq!(modpow(&a, &e, &p).unwrap(), Uint::one());
    }

    #[test]
    fn modinv_small() {
        let inv = modinv(&Uint::from_u64(3), &Uint::from_u64(11)).unwrap();
        assert_eq!(inv, Uint::from_u64(4));
        // Non-invertible.
        assert!(modinv(&Uint::from_u64(6), &Uint::from_u64(9)).is_none());
        assert!(modinv(&Uint::from_u64(5), &Uint::one()).is_none());
        assert!(modinv(&Uint::zero(), &Uint::from_u64(7)).is_none());
    }

    #[test]
    fn modinv_large() {
        let p = Uint::from_hex("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785")
            .unwrap();
        let a = Uint::from_hex("1eadbeef1eadbeef1eadbeef1eadbeef").unwrap();
        let inv = modinv(&a, &p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), Uint::one());
    }
}
