//! The [`Uint`] arbitrary-precision unsigned integer.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u32` limbs with no trailing zero limbs; zero is
/// the empty limb vector. All arithmetic is checked: subtraction of a larger
/// value and division by zero return errors rather than wrapping.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    /// Little-endian limbs, normalized (highest limb non-zero).
    limbs: Vec<u32>,
}

impl Uint {
    /// The value 0.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Construct from a primitive.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![(v & 0xffff_ffff) as u32, (v >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Uint { limbs }
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut acc: u32 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Uint { limbs }
    }

    /// Serialize to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let mut skipping = true;
                for &b in &bytes {
                    if skipping && b == 0 {
                        continue;
                    }
                    skipping = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to big-endian bytes left-padded with zeros to `len` bytes.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parse a (case-insensitive) hexadecimal string, without `0x` prefix.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s };
        for chunk in padded.as_bytes().chunks(2) {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes.push((hi * 16 + lo) as u8);
        }
        Some(Uint::from_bytes_be(&bytes))
    }

    /// Render as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        // Trim a single leading zero nibble for canonical form.
        if s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// The `i`-th bit (bit 0 is least significant).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 32, i % 32);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(mut limbs: Vec<u32>) -> Uint {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Uint { limbs }
    }

    /// Little-endian limb view (crate-internal; used by the Montgomery
    /// arithmetic layer, which works on raw limb vectors).
    pub(crate) fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// Build from little-endian limbs, normalizing trailing zeros
    /// (crate-internal counterpart of [`limbs`](Self::limbs)).
    pub(crate) fn from_limbs(limbs: Vec<u32>) -> Uint {
        Uint::normalize(limbs)
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Uint) -> Uint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0) as u64;
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let s = a + b + carry;
            out.push((s & 0xffff_ffff) as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        Uint::normalize(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    #[must_use]
    pub fn checked_sub(&self, other: &Uint) -> Option<Uint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i64;
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i64 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        Some(Uint::normalize(out))
    }

    /// `self * other` (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &Uint) -> Uint {
        if self.is_zero() || other.is_zero() {
            return Uint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u64 + (a as u64) * (b as u64) + carry;
                out[i + j] = (t & 0xffff_ffff) as u32;
                carry = t >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u64 + carry;
                out[k] = (t & 0xffff_ffff) as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        Uint::normalize(out)
    }

    /// Shift left by `bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> Uint {
        if self.is_zero() {
            return Uint::zero();
        }
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Uint::normalize(out)
    }

    /// Shift right by `bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> Uint {
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        if limb_shift >= self.limbs.len() {
            return Uint::zero();
        }
        let mut out: Vec<u32> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u32;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (32 - bit_shift);
                *l = new;
            }
        }
        Uint::normalize(out)
    }

    /// `(self / divisor, self % divisor)`; `None` when `divisor` is zero.
    ///
    /// Uses long division with Knuth's Algorithm D normalization for the
    /// multi-limb case.
    #[must_use]
    pub fn div_rem(&self, divisor: &Uint) -> Option<(Uint, Uint)> {
        if divisor.is_zero() {
            return None;
        }
        match self.cmp(divisor) {
            Ordering::Less => return Some((Uint::zero(), self.clone())),
            Ordering::Equal => return Some((Uint::one(), Uint::zero())),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut q = vec![0u32; self.limbs.len()];
            let mut rem = 0u64;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            return Some((Uint::normalize(q), Uint::from_u64(rem)));
        }

        // Knuth Algorithm D.
        let shift = divisor
            .limbs
            .last()
            .expect("divisor is normalized and non-zero")
            .leading_zeros() as usize;
        let v = divisor.shl(shift);
        let mut u = self.shl(shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // u has m + n + 1 limbs
        let mut q = vec![0u32; m + 1];
        let v_hi = v.limbs[n - 1] as u64;
        let v_next = v.limbs[n - 2] as u64;

        for j in (0..=m).rev() {
            let top = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut qhat = top / v_hi;
            let mut rhat = top % v_hi;
            while qhat >= 1u64 << 32 || qhat * v_next > ((rhat << 32) | u[j + n - 2] as u64) {
                qhat -= 1;
                rhat += v_hi;
                if rhat >= 1u64 << 32 {
                    break;
                }
            }
            // Multiply-subtract: u[j..j+n+1] -= qhat * v
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u64 + carry;
                carry = p >> 32;
                let sub = (p & 0xffff_ffff) as i64;
                let mut d = u[j + i] as i64 - sub - borrow;
                if d < 0 {
                    d += 1i64 << 32;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                u[j + i] = d as u32;
            }
            let mut d = u[j + n] as i64 - carry as i64 - borrow;
            if d < 0 {
                // qhat was one too large: add back v.
                d += 1i64 << 32;
                qhat -= 1;
                let mut carry2 = 0u64;
                for i in 0..n {
                    let s = u[j + i] as u64 + v.limbs[i] as u64 + carry2;
                    u[j + i] = (s & 0xffff_ffff) as u32;
                    carry2 = s >> 32;
                }
                d += carry2 as i64;
                d &= (1i64 << 32) - 1;
            }
            u[j + n] = d as u32;
            q[j] = qhat as u32;
        }
        let rem = Uint::normalize(u[..n].to_vec()).shr(shift);
        Some((Uint::normalize(q), rem))
    }

    /// `self % modulus`; `None` when `modulus` is zero.
    #[must_use]
    pub fn rem(&self, modulus: &Uint) -> Option<Uint> {
        if modulus.limbs.len() == 1 {
            return Some(Uint::from_u64(self.rem_u32(modulus.limbs[0]) as u64));
        }
        self.div_rem(modulus).map(|(_, r)| r)
    }

    /// `self mod d` for a single-limb divisor, by limb-wise folding —
    /// no quotient is materialized. Panics when `d == 0` (matching the
    /// `None`/`expect` contract of the multi-limb paths).
    pub(crate) fn rem_u32(&self, d: u32) -> u32 {
        assert!(d != 0, "division by zero");
        let d = d as u64;
        let mut r: u64 = 0;
        for &limb in self.limbs.iter().rev() {
            r = ((r << 32) | limb as u64) % d;
        }
        r as u32
    }

    /// Modular addition: `(self + other) mod m`. Inputs need not be reduced.
    #[must_use]
    pub fn add_mod(&self, other: &Uint, m: &Uint) -> Uint {
        self.add(other).rem(m).expect("modulus must be non-zero")
    }

    /// Modular subtraction: `(self - other) mod m`. Inputs need not be reduced.
    #[must_use]
    pub fn sub_mod(&self, other: &Uint, m: &Uint) -> Uint {
        let a = self.rem(m).expect("modulus must be non-zero");
        let b = other.rem(m).expect("modulus must be non-zero");
        if a >= b {
            a.checked_sub(&b).expect("a >= b checked above")
        } else {
            a.add(m).checked_sub(&b).expect("a + m >= b since b < m")
        }
    }

    /// Modular multiplication: `(self * other) mod m`.
    ///
    /// Single-limb moduli take a fast path: both operands are folded to
    /// `u32` residues first, so no full-width product or `div_rem` is ever
    /// formed.
    #[must_use]
    pub fn mul_mod(&self, other: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.limbs.len() == 1 {
            let d = m.limbs[0];
            let prod = self.rem_u32(d) as u64 * other.rem_u32(d) as u64;
            return Uint::from_u64(prod % d as u64);
        }
        self.mul(other).rem(m).expect("modulus must be non-zero")
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Uint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_properties() {
        let z = Uint::zero();
        assert!(z.is_zero());
        assert!(!z.is_odd());
        assert_eq!(z.bit_len(), 0);
        assert_eq!(z.to_bytes_be(), Vec::<u8>::new());
        assert_eq!(z.to_hex(), "0");
    }

    #[test]
    fn roundtrip_bytes() {
        let v = Uint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(v.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05]);
        // Leading zeros stripped.
        let v2 = Uint::from_bytes_be(&[0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(v, v2);
    }

    #[test]
    fn roundtrip_hex() {
        let v = Uint::from_hex("deadbeefcafebabe1234").unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe1234");
        assert_eq!(Uint::from_hex("0").unwrap(), Uint::zero());
        assert!(Uint::from_hex("xyz").is_none());
    }

    #[test]
    fn padded_bytes() {
        let v = Uint::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert!(v.to_bytes_be_padded(1).is_none());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Uint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = Uint::from_hex("123456789abcdef0").unwrap();
        let s = a.add(&b);
        assert_eq!(s.checked_sub(&b).unwrap(), a);
        assert_eq!(s.checked_sub(&a).unwrap(), b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Uint::from_hex("ffffffff").unwrap();
        assert_eq!(a.add(&Uint::one()).to_hex(), "100000000");
    }

    #[test]
    fn mul_known_values() {
        let a = Uint::from_hex("123456789abcdef").unwrap();
        let b = Uint::from_hex("fedcba9876543210").unwrap();
        // Computed independently.
        assert_eq!(a.mul(&b).to_hex(), "121fa00ad77d7422236d88fe5618cf0");
        assert_eq!(a.mul(&Uint::zero()), Uint::zero());
        assert_eq!(a.mul(&Uint::one()), a);
    }

    #[test]
    fn shifts() {
        let a = Uint::from_hex("1234").unwrap();
        assert_eq!(a.shl(4).to_hex(), "12340");
        assert_eq!(a.shl(36).to_hex(), "1234000000000");
        assert_eq!(a.shl(36).shr(36), a);
        assert_eq!(a.shr(100), Uint::zero());
    }

    #[test]
    fn div_rem_small() {
        let a = Uint::from_u64(1000);
        let (q, r) = a.div_rem(&Uint::from_u64(7)).unwrap();
        assert_eq!(q, Uint::from_u64(142));
        assert_eq!(r, Uint::from_u64(6));
        assert!(a.div_rem(&Uint::zero()).is_none());
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = Uint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0").unwrap();
        let b = Uint::from_hex("fedcba98765432100f").unwrap();
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_identity_and_smaller() {
        let a = Uint::from_hex("ffffffffffffffffffffffff").unwrap();
        let (q, r) = a.div_rem(&a).unwrap();
        assert_eq!(q, Uint::one());
        assert!(r.is_zero());
        let small = Uint::from_u64(5);
        let (q, r) = small.div_rem(&a).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, small);
    }

    #[test]
    fn bit_access() {
        let a = Uint::from_u64(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(64));
        assert_eq!(a.bit_len(), 4);
    }

    #[test]
    fn mod_arith() {
        let m = Uint::from_u64(97);
        let a = Uint::from_u64(95);
        let b = Uint::from_u64(10);
        assert_eq!(a.add_mod(&b, &m), Uint::from_u64(8));
        assert_eq!(a.sub_mod(&b, &m), Uint::from_u64(85));
        assert_eq!(b.sub_mod(&a, &m), Uint::from_u64(12));
        assert_eq!(a.mul_mod(&b, &m), Uint::from_u64(950 % 97));
    }

    #[test]
    fn ordering() {
        let a = Uint::from_hex("100000000").unwrap();
        let b = Uint::from_hex("ffffffff").unwrap();
        assert!(a > b);
        assert!(Uint::zero() < Uint::one());
    }
}
