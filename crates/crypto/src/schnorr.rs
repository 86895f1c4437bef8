//! Schnorr signatures over a safe-prime group (classic Z_p* Schnorr).
//!
//! The scheme: public parameters are a safe prime `p = 2q + 1`, the prime
//! subgroup order `q`, and a generator `g` of the order-`q` subgroup of
//! quadratic residues. A private key is `x ∈ [1, q)`; the public key is
//! `y = g^x mod p`. A signature on message `m` is `(e, s)` where
//! `r = g^k mod p`, `e = SHA-256(r || m)`, `s = k + x·e mod q`, and the
//! nonce `k` is derived deterministically from `(x, m)` (RFC 6979 style) so
//! that signing never needs ambient randomness.
//!
//! Verification recomputes `r' = g^s · y^(−e) mod p` and accepts iff
//! `SHA-256(r' || m) == e`.

use crate::drbg::Drbg;
use crate::hmac::hmac_sha256;
use crate::intern::{self, InternedKey, KeyRegistry, PROMOTION_THRESHOLD};
use crate::sha256::Sha256;
use ccc_bignum::{FixedBaseTable, MontElem, MontgomeryCtx, Uint};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Global count of key-pair derivations (scalar sampling + `g^x`).
///
/// Deriving a key is the most expensive primitive in the stack (one
/// fixed-base exponentiation plus DRBG sampling), so callers that are
/// supposed to memoize — the corpus generator's CA key tables — assert via
/// [`keypair_derivations`] that repeated passes do not re-derive.
static KEYPAIR_DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide number of [`KeyPair`] derivations performed so far.
///
/// Monotonic counter; meaningful as a *delta* around a workload. Used by
/// `ccc-testgen` to pin the "each CA key is derived exactly once per
/// corpus" memoization property.
pub fn keypair_derivations() -> u64 {
    // ordering: Relaxed — monotonic counter read as a workload delta; no
    // other memory is synchronized through it.
    KEYPAIR_DERIVATIONS.load(Ordering::Relaxed)
}

/// Identifies one of the built-in groups. Certificates record the group of
/// their key so that mixed-group universes are representable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum GroupId {
    /// 256-bit safe-prime simulation group (fast; default for experiments).
    Sim256,
    /// RFC 3526 1536-bit MODP group (interop-grade strength).
    Rfc3526_1536,
}

/// Schnorr group parameters.
#[derive(Debug)]
pub struct Group {
    /// Which built-in group this is.
    pub id: GroupId,
    /// Safe prime modulus.
    pub p: Uint,
    /// Prime subgroup order, `q = (p - 1) / 2`.
    pub q: Uint,
    /// Generator of the order-`q` subgroup.
    pub g: Uint,
    /// Serialized length of group elements in bytes.
    pub element_len: usize,
    /// Serialized length of scalars in bytes.
    pub scalar_len: usize,
    /// Lazily-built Montgomery context + fixed-base generator table
    /// (see [`Group::ops`]).
    ops: OnceLock<GroupOps>,
}

/// Per-group accelerated arithmetic, built once per process on first use.
///
/// `ctx` is the Montgomery context for the group prime `p`; `g_table` holds
/// the Brauer fixed-base windowing table for the generator `g` covering
/// exponents up to `q.bit_len()` bits (every scalar in the scheme is
/// `< q`). Together they make `g^k` a squaring-free table-lookup product,
/// which is the dominant operation in keygen, signing, *and* the `g^s`
/// half of verification.
#[derive(Debug)]
pub struct GroupOps {
    /// Montgomery context for the group prime `p`.
    pub ctx: MontgomeryCtx,
    /// Fixed-base table for the generator `g`, 8 bits wide (`G_WINDOW`).
    pub g_table: FixedBaseTable,
}

/// Window width of the generator table. Every keygen, signature and
/// verification exponentiates `g`, so the 8-bit table (half the lookups
/// of a 4-bit one, ~8.5× its size: one 255 KiB limb vector at 256 bits,
/// 8.96 MiB at 1536) is built once per group and amortized across all of
/// them.
const G_WINDOW: usize = 8;

impl Group {
    /// The 256-bit safe-prime simulation group.
    ///
    /// Generated once with a fixed seed; `p` and `q = (p-1)/2` are verified
    /// prime by this crate's Miller–Rabin tests.
    pub fn simulation_256() -> &'static Group {
        static G: OnceLock<Group> = OnceLock::new();
        G.get_or_init(|| {
            let p =
                Uint::from_hex("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b")
                    .expect("p is valid hex");
            let q =
                Uint::from_hex("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785")
                    .expect("q is valid hex");
            Group {
                id: GroupId::Sim256,
                p,
                q,
                g: Uint::from_u64(4),
                element_len: 32,
                scalar_len: 32,
                ops: OnceLock::new(),
            }
        })
    }

    /// The RFC 3526 1536-bit MODP group (group 5). `p ≡ 7 (mod 8)`, so 2 is
    /// a quadratic residue and generates the order-`q` subgroup.
    pub fn rfc3526_1536() -> &'static Group {
        static G: OnceLock<Group> = OnceLock::new();
        G.get_or_init(|| {
            let p = Uint::from_hex(concat!(
                "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
                "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
                "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
                "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
                "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
                "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
                "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
                "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
            ))
            .expect("RFC 3526 modulus is valid hex");
            let q = p.checked_sub(&Uint::one()).expect("p > 1").shr(1);
            Group {
                id: GroupId::Rfc3526_1536,
                p,
                q,
                g: Uint::from_u64(2),
                element_len: 192,
                scalar_len: 192,
                ops: OnceLock::new(),
            }
        })
    }

    /// Look up a group by id.
    pub fn by_id(id: GroupId) -> &'static Group {
        match id {
            GroupId::Sim256 => Group::simulation_256(),
            GroupId::Rfc3526_1536 => Group::rfc3526_1536(),
        }
    }

    /// The accelerated-arithmetic bundle for this group, built on first
    /// use (255 KiB of generator table for the 256-bit group, 8.96 MiB
    /// for the 1536-bit group) and shared by every key in the group
    /// thereafter.
    pub fn ops(&self) -> &GroupOps {
        self.ops.get_or_init(|| {
            let ctx = MontgomeryCtx::new(&self.p).expect("group prime is odd and > 1");
            let g_table = FixedBaseTable::from_mont_with_window(
                &ctx,
                &ctx.to_montgomery(&self.g),
                self.q.bit_len(),
                G_WINDOW,
            );
            GroupOps { ctx, g_table }
        })
    }

    /// `g^k mod p` via the fixed-base table (normal form).
    pub fn pow_g(&self, k: &Uint) -> Uint {
        let ops = self.ops();
        ops.g_table.pow(&ops.ctx, k)
    }

    /// `g^k mod p` in Montgomery form (for callers that keep computing).
    fn pow_g_mont(&self, k: &Uint) -> MontElem {
        let ops = self.ops();
        ops.g_table.pow_mont(&ops.ctx, k)
    }
}

/// A Schnorr private key.
#[derive(Clone, PartialEq, Eq)]
pub struct PrivateKey {
    group: GroupId,
    x: Uint,
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "PrivateKey({:?}, <redacted>)", self.group)
    }
}

/// A Schnorr public key, `y = g^x mod p`.
#[derive(Clone)]
pub struct PublicKey {
    group: GroupId,
    /// `y` serialized big-endian, padded to the group element length.
    y_bytes: Vec<u8>,
    /// Interned per-process entry for `(group, y)`, resolved on first
    /// verification: the shared Montgomery residue, the promotion counter,
    /// and (once promoted) the fixed-base table — shared by *every*
    /// `PublicKey` carrying these bytes, not just clones of this one (CA
    /// keys are re-parsed from thousands of certificates per corpus pass).
    /// Excluded from `Eq`/`Hash`: it is a pure cache of `y_bytes`.
    interned: OnceLock<Arc<InternedKey>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.y_bytes == other.y_bytes
    }
}

impl Eq for PublicKey {}

impl std::hash::Hash for PublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.group.hash(state);
        self.y_bytes.hash(state);
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix: String = self
            .y_bytes
            .iter()
            .take(6)
            .map(|b| format!("{b:02x}"))
            .collect();
        write!(f, "PublicKey({:?}, {prefix}…)", self.group)
    }
}

/// A private/public key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// The private half.
    pub private: PrivateKey,
    /// The public half.
    pub public: PublicKey,
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// Challenge hash `e = SHA-256(r || m)`.
    pub e: [u8; 32],
    /// Response scalar `s`, serialized to the group scalar length.
    pub s: Vec<u8>,
}

impl Signature {
    /// Serialize as `e || s`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.s.len());
        out.extend_from_slice(&self.e);
        out.extend_from_slice(&self.s);
        out
    }

    /// Parse from `e || s` given the scalar length of the signing group.
    pub fn from_bytes(bytes: &[u8], scalar_len: usize) -> Option<Signature> {
        if bytes.len() != 32 + scalar_len {
            return None;
        }
        let mut e = [0u8; 32];
        e.copy_from_slice(&bytes[..32]);
        Some(Signature {
            e,
            s: bytes[32..].to_vec(),
        })
    }
}

impl KeyPair {
    /// Generate a key pair from a DRBG stream.
    pub fn generate(group: &Group, drbg: &mut Drbg) -> KeyPair {
        // ordering: Relaxed — pure monotonic count; the RMW's atomicity
        // alone guarantees no derivation goes uncounted.
        KEYPAIR_DERIVATIONS.fetch_add(1, Ordering::Relaxed);
        loop {
            let candidate = Uint::from_bytes_be(&drbg.bytes(group.scalar_len));
            let x = candidate.rem(&group.q).expect("q is non-zero");
            if !x.is_zero() {
                return KeyPair::from_scalar(group, x);
            }
        }
    }

    /// Deterministically derive a key pair from a byte seed.
    pub fn from_seed(group: &Group, seed: &[u8]) -> KeyPair {
        let mut drbg = Drbg::new(seed);
        KeyPair::generate(group, &mut drbg)
    }

    fn from_scalar(group: &Group, x: Uint) -> KeyPair {
        // Fixed-base: g is exponentiated via the precomputed tables.
        let y = group.pow_g(&x);
        let y_bytes = y
            .to_bytes_be_padded(group.element_len)
            .expect("y < p fits in element_len");
        KeyPair {
            private: PrivateKey { group: group.id, x },
            public: PublicKey {
                group: group.id,
                y_bytes,
                interned: OnceLock::new(),
            },
        }
    }
}

impl PrivateKey {
    /// The group this key belongs to.
    pub fn group(&self) -> &'static Group {
        Group::by_id(self.group)
    }

    /// Sign `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let group = self.group();
        // Deterministic nonce: k = HMAC(x, m) expanded until non-zero mod q.
        let x_bytes = self
            .x
            .to_bytes_be_padded(group.scalar_len)
            .expect("x < q fits");
        let mut k_seed = hmac_sha256(&x_bytes, message).to_vec();
        let k = loop {
            // Expand to scalar length by chained HMAC blocks.
            let mut material = Vec::with_capacity(group.scalar_len);
            let mut block = k_seed.clone();
            while material.len() < group.scalar_len {
                block = hmac_sha256(&x_bytes, &block).to_vec();
                material.extend_from_slice(&block);
            }
            material.truncate(group.scalar_len);
            let k = Uint::from_bytes_be(&material)
                .rem(&group.q)
                .expect("q is non-zero");
            if !k.is_zero() {
                break k;
            }
            k_seed = hmac_sha256(&x_bytes, &k_seed).to_vec();
        };
        let r = group.pow_g(&k);
        let r_bytes = r
            .to_bytes_be_padded(group.element_len)
            .expect("r < p fits the element length");
        let mut h = Sha256::new();
        h.update(&r_bytes);
        h.update(message);
        let e = h.finalize();
        let e_scalar = Uint::from_bytes_be(&e)
            .rem(&group.q)
            .expect("q is non-zero");
        let s = k.add_mod(&self.x.mul_mod(&e_scalar, &group.q), &group.q);
        Signature {
            e,
            s: s.to_bytes_be_padded(group.scalar_len).expect("s < q fits"),
        }
    }
}

impl PublicKey {
    /// The group this key belongs to.
    pub fn group(&self) -> &'static Group {
        Group::by_id(self.group)
    }

    /// The group id (cheap accessor for serialization).
    pub fn group_id(&self) -> GroupId {
        self.group
    }

    /// Raw serialized key material (`y`, big-endian, fixed width).
    pub fn as_bytes(&self) -> &[u8] {
        &self.y_bytes
    }

    /// Reconstruct a key from serialized material.
    ///
    /// Returns `None` when the length is wrong or `y` is not in `[2, p)`
    /// (1 and 0 are degenerate). Membership in the order-`q` subgroup is
    /// deliberately *not* checked here, matching how real validators treat
    /// SPKIs — parsing must stay cheap and permissive so malformed corpus
    /// keys flow through the analyses. Callers that need the stronger
    /// guarantee (trust-anchor loading, key provenance audits) ask via
    /// [`PublicKey::is_subgroup_member`], which caches its one extra
    /// exponentiation per unique key.
    pub fn from_bytes(group: &Group, bytes: &[u8]) -> Option<PublicKey> {
        if bytes.len() != group.element_len {
            return None;
        }
        let y = Uint::from_bytes_be(bytes);
        if y < Uint::from_u64(2) || y >= group.p {
            return None;
        }
        Some(PublicKey {
            group: group.id,
            y_bytes: bytes.to_vec(),
            interned: OnceLock::new(),
        })
    }

    /// The process-wide interned entry for this key: shared Montgomery
    /// residue, promotion counter, fixed-base table, subgroup verdict.
    fn interned(&self) -> &Arc<InternedKey> {
        self.interned
            .get_or_init(|| KeyRegistry::global().intern(self.group(), &self.y_bytes))
    }

    /// Whether `y` lies in the order-`q` subgroup (`y^q ≡ 1 mod p`).
    ///
    /// This is the check [`PublicKey::from_bytes`] skips. The verdict is
    /// computed lazily with one exponentiation (via the promoted table
    /// when one exists) and cached on the interned entry, so sweeping a
    /// corpus costs one check per unique CA key, not per certificate.
    pub fn is_subgroup_member(&self) -> bool {
        self.interned().is_subgroup_member()
    }

    /// Verify `signature` over `message`.
    ///
    /// Computes `r' = g^s · y^(q−e)`: `g^s` from the group's 8-bit
    /// generator table, `y^(q−e)` from plain `pow_mont` for the key's first
    /// [`PROMOTION_THRESHOLD`] verifications and from the key's interned
    /// 4-bit fixed-base table after that, amortizing the table build across
    /// the many verifications a CA key sees. Each verification is recorded
    /// on the key's interned entry; both halves are exact, so the verdict
    /// never depends on whether the key has been promoted.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let entry = self.interned();
        let n = entry.record_verify();
        let group = self.group();
        if signature.s.len() != group.scalar_len {
            return false;
        }
        let s = Uint::from_bytes_be(&signature.s);
        if s >= group.q {
            return false;
        }
        let e_scalar = Uint::from_bytes_be(&signature.e)
            .rem(&group.q)
            .expect("q is non-zero");
        // y has order q, so y^-e = y^(q-e). Everything stays in Montgomery
        // form until the single final conversion.
        let neg_e = group.q.checked_sub(&e_scalar).expect("e_scalar < q");
        let ops = group.ops();
        let ye = if n > PROMOTION_THRESHOLD {
            let y_table = entry.table(&ops.ctx, group.q.bit_len());
            intern::note_fixed_base_hit();
            y_table.pow_mont(&ops.ctx, &neg_e)
        } else {
            intern::note_cold_multiexp();
            ops.ctx.pow_mont(entry.y_mont(), &neg_e)
        };
        let r_mont = ops.ctx.mul(&group.pow_g_mont(&s), &ye);
        let r = ops.ctx.from_montgomery(&r_mont);
        let r_bytes = match r.to_bytes_be_padded(group.element_len) {
            Some(b) => b,
            None => return false,
        };
        let mut h = Sha256::new();
        h.update(&r_bytes);
        h.update(message);
        h.finalize() == signature.e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_bignum::modpow;

    #[test]
    fn sign_verify_roundtrip() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"test-key-1");
        let msg = b"hello, web pki";
        let sig = kp.private.sign(msg);
        assert!(kp.public.verify(msg, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"test-key-2");
        let sig = kp.private.sign(b"message A");
        assert!(!kp.public.verify(b"message B", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let group = Group::simulation_256();
        let kp1 = KeyPair::from_seed(group, b"key-a");
        let kp2 = KeyPair::from_seed(group, b"key-b");
        let sig = kp1.private.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"key-c");
        let mut sig = kp.private.sign(b"msg");
        sig.e[0] ^= 1;
        assert!(!kp.public.verify(b"msg", &sig));
        let mut sig2 = kp.private.sign(b"msg");
        sig2.s[31] ^= 1;
        assert!(!kp.public.verify(b"msg", &sig2));
    }

    #[test]
    fn signature_is_deterministic() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"key-d");
        assert_eq!(kp.private.sign(b"m"), kp.private.sign(b"m"));
        assert_ne!(kp.private.sign(b"m"), kp.private.sign(b"n"));
    }

    #[test]
    fn keygen_is_deterministic_from_seed() {
        let group = Group::simulation_256();
        let a = KeyPair::from_seed(group, b"same-seed");
        let b = KeyPair::from_seed(group, b"same-seed");
        assert_eq!(a.public, b.public);
        let c = KeyPair::from_seed(group, b"other-seed");
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"key-e");
        let bytes = kp.public.as_bytes().to_vec();
        let restored = PublicKey::from_bytes(group, &bytes).unwrap();
        assert_eq!(restored, kp.public);
        let sig = kp.private.sign(b"m");
        assert!(restored.verify(b"m", &sig));
    }

    #[test]
    fn public_key_rejects_bad_material() {
        let group = Group::simulation_256();
        assert!(PublicKey::from_bytes(group, &[0u8; 31]).is_none());
        assert!(PublicKey::from_bytes(group, &[0u8; 32]).is_none()); // y = 0
        let one = {
            let mut b = [0u8; 32];
            b[31] = 1;
            b
        };
        assert!(PublicKey::from_bytes(group, &one).is_none()); // y = 1
        assert!(PublicKey::from_bytes(group, &[0xffu8; 32]).is_none()); // y >= p
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"key-f");
        let sig = kp.private.sign(b"m");
        let bytes = sig.to_bytes();
        let parsed = Signature::from_bytes(&bytes, group.scalar_len).unwrap();
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&bytes[..10], group.scalar_len).is_none());
    }

    #[test]
    fn rfc3526_group_works() {
        let group = Group::rfc3526_1536();
        let kp = KeyPair::from_seed(group, b"big-key");
        let sig = kp.private.sign(b"interop message");
        assert!(kp.public.verify(b"interop message", &sig));
        assert!(!kp.public.verify(b"tampered", &sig));
    }

    #[test]
    fn pow_g_matches_generic_modpow() {
        for group in [Group::simulation_256(), Group::rfc3526_1536()] {
            for e in [
                Uint::zero(),
                Uint::one(),
                Uint::from_u64(0xdead_beef_cafe_f00d),
                group.q.checked_sub(&Uint::one()).unwrap(),
            ] {
                assert_eq!(
                    group.pow_g(&e),
                    modpow(&group.g, &e, &group.p).unwrap(),
                    "{:?} e={e:?}",
                    group.id
                );
            }
        }
    }

    #[test]
    fn public_key_equality_ignores_mont_cache() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"cache-key");
        let fresh = PublicKey::from_bytes(group, kp.public.as_bytes()).unwrap();
        // Warm the Montgomery cache on one copy only.
        let sig = kp.private.sign(b"warm");
        assert!(kp.public.verify(b"warm", &sig));
        assert_eq!(kp.public, fresh);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |k: &PublicKey| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&kp.public), h(&fresh));
    }

    #[test]
    fn auto_promotion_builds_table_after_threshold() {
        // A fresh key (unique seed → unique interned entry in the global
        // registry, touched by no other test) has no table through its
        // first PROMOTION_THRESHOLD verifications and one right after the
        // next: promotion depends only on the key's own ordinal.
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"promotion-key-schnorr-unit");
        let sig = kp.private.sign(b"promote me");
        let entry = KeyRegistry::global().intern(group, kp.public.as_bytes());
        for _ in 0..PROMOTION_THRESHOLD {
            assert!(kp.public.verify(b"promote me", &sig));
        }
        assert_eq!(entry.verify_count(), PROMOTION_THRESHOLD);
        assert!(!entry.has_table());
        assert!(kp.public.verify(b"promote me", &sig));
        assert_eq!(entry.verify_count(), PROMOTION_THRESHOLD + 1);
        assert!(entry.has_table());
    }

    #[test]
    fn subgroup_membership_accepts_real_keys_and_rejects_order_two() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"subgroup-key");
        assert!(kp.public.is_subgroup_member());
        // y = p - 1 has order 2: it passes the permissive range check in
        // from_bytes but is not a quadratic residue, so y^q = -1 ≠ 1.
        let p_minus_1 = group
            .p
            .checked_sub(&Uint::one())
            .unwrap()
            .to_bytes_be_padded(group.element_len)
            .unwrap();
        let outsider = PublicKey::from_bytes(group, &p_minus_1).unwrap();
        assert!(!outsider.is_subgroup_member());
    }

    #[test]
    fn keypair_derivation_counter_increments() {
        let group = Group::simulation_256();
        let before = keypair_derivations();
        let _ = KeyPair::from_seed(group, b"counted-key");
        assert!(keypair_derivations() > before);
    }

    #[test]
    fn known_discrete_log_vector() {
        // Cross-check modpow against an independently computed vector.
        let group = Group::simulation_256();
        let x = Uint::from_hex("1eadbeef1eadbeef1eadbeef1eadbeef").unwrap();
        let y = modpow(&group.g, &x, &group.p).unwrap();
        assert_eq!(
            y.to_hex(),
            "ab3d485627ba6272e0f9c0a9ae435e247c91df81a1743c12a89eeaf8ef52878a"
        );
    }
}
