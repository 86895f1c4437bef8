//! Miller–Rabin probabilistic primality testing.

use crate::{modpow, Uint};

/// Fixed witness bases. For n < 3.3 * 10^24 these bases make Miller–Rabin
/// deterministic; beyond that the test is probabilistic with error
/// probability far below 2^-80 for the numbers this crate deals with
/// (fixed, published group parameters — not adversarial inputs).
const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Miller–Rabin primality test with the fixed base set above.
pub fn is_probable_prime(n: &Uint) -> bool {
    let two = Uint::from_u64(2);
    if n < &two {
        return false;
    }
    // Trial small primes.
    for &b in &BASES {
        let b = Uint::from_u64(b);
        if n == &b {
            return true;
        }
        if n.rem(&b).expect("base is non-zero").is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^r with d odd.
    let n_minus_1 = n.checked_sub(&Uint::one()).expect("n > 1 here");
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        r += 1;
    }
    'witness: for &b in &BASES {
        let a = Uint::from_u64(b);
        let mut x = modpow(&a, &d, n).expect("modulus n is non-zero");
        if x == Uint::one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..r.saturating_sub(1) {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_and_composites() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 2147483647];
        for p in primes {
            assert!(is_probable_prime(&Uint::from_u64(p)), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 9, 15, 561, 1105, 6601, 65536, 2147483649];
        for c in composites {
            assert!(
                !is_probable_prime(&Uint::from_u64(c)),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!is_probable_prime(&Uint::from_u64(c)));
        }
    }

    #[test]
    fn simulation_group_parameters_are_safe_prime() {
        let p = Uint::from_hex("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b")
            .unwrap();
        let q = Uint::from_hex("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785")
            .unwrap();
        assert!(is_probable_prime(&p));
        assert!(is_probable_prime(&q));
        // p = 2q + 1
        assert_eq!(q.mul(&Uint::from_u64(2)).add(&Uint::one()), p);
    }
}
