//! A small deterministic random bit generator.
//!
//! HMAC-SHA-256 in counter mode: `block_i = HMAC(seed_key, counter_i)`.
//! Every random decision in chain-chaos (key generation, corpus sampling
//! seeds) flows through an explicitly seeded [`Drbg`] so experiments are
//! reproducible bit-for-bit. This is not a NIST SP 800-90A implementation;
//! it is a keyed PRG sufficient for simulation determinism.

use crate::hmac::hmac_sha256;

/// Deterministic random bit generator keyed by a seed.
#[derive(Clone, Debug)]
pub struct Drbg {
    key: [u8; 32],
    counter: u64,
    buffer: [u8; 32],
    buffer_pos: usize,
}

impl Drbg {
    /// Create a generator from an arbitrary byte seed.
    pub fn new(seed: &[u8]) -> Self {
        Drbg {
            key: crate::sha256(seed),
            counter: 0,
            buffer: [0u8; 32],
            buffer_pos: 32,
        }
    }

    /// Create a generator from a `u64` seed (convenience for experiments).
    pub fn from_u64(seed: u64) -> Self {
        Drbg::new(&seed.to_be_bytes())
    }

    /// Derive an independent child generator labelled by `label`.
    ///
    /// Children with different labels produce independent streams; the same
    /// label always yields the same child.
    pub fn fork(&self, label: &str) -> Drbg {
        let mut seed = self.key.to_vec();
        seed.extend_from_slice(label.as_bytes());
        Drbg::new(&seed)
    }

    fn refill(&mut self) {
        self.buffer = hmac_sha256(&self.key, &self.counter.to_be_bytes());
        self.counter += 1;
        self.buffer_pos = 0;
    }

    /// Fill `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            if self.buffer_pos == 32 {
                self.refill();
            }
            *b = self.buffer[self.buffer_pos];
            self.buffer_pos += 1;
        }
    }

    /// Return `n` pseudorandom bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Uniform value in `[0, bound)` (rejection sampling; `bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection zone keeps the distribution exactly uniform.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Pick an index weighted by `weights` (must be non-empty; all-zero
    /// weights fall back to uniform).
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.below(weights.len() as u64) as usize;
        }
        let mut target = self.unit_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Drbg::from_u64(42);
        let mut b = Drbg::from_u64(42);
        assert_eq!(a.bytes(100), b.bytes(100));
        let mut c = Drbg::from_u64(43);
        assert_ne!(a.bytes(100), c.bytes(100));
    }

    #[test]
    fn fork_independence() {
        let root = Drbg::from_u64(7);
        let mut a = root.fork("keys");
        let mut b = root.fork("corpus");
        let mut a2 = root.fork("keys");
        assert_eq!(a.bytes(32), a2.bytes(32));
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn below_is_in_range() {
        let mut d = Drbg::from_u64(1);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(d.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut d = Drbg::from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[d.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_index_respects_zero_weight() {
        let mut d = Drbg::from_u64(3);
        for _ in 0..200 {
            let i = d.weighted_index(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut d = Drbg::from_u64(4);
        for _ in 0..50 {
            assert!(!d.chance(0.0));
            assert!(d.chance(1.0));
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut d = Drbg::from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        d.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should permute");
    }
}
