//! Certificate and TBSCertificate types with DER codec.

use crate::extensions::{
    AuthorityInfoAccess, AuthorityKeyIdentifier, BasicConstraints, ExtendedKeyUsage, Extension,
    KeyUsage, SubjectAltName,
};
use crate::name::DistinguishedName;
use crate::spki::{KeyAlgorithm, SubjectPublicKeyInfo};
use crate::X509Error;
use ccc_asn1::{oids, Encoder, Parser, Tag, Time};
use ccc_crypto::{PublicKey, Signature};
use std::fmt;
use std::sync::Arc;

/// Bytes reserved for encoding one certificate or its TBS: more than the
/// generator's certificates take (542 bytes on average, with a 256-bit
/// key), so encoding one does not grow its buffer.
const CERTIFICATE_CAPACITY: usize = 1024;

/// Certificate validity window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Validity {
    /// notBefore.
    pub not_before: Time,
    /// notAfter (inclusive).
    pub not_after: Time,
}

impl Validity {
    /// True when `t` falls inside the window. Per RFC 5280 §4.1.2.5 the
    /// validity period runs *from `notBefore` through `notAfter`,
    /// inclusive*: both boundary instants are inside the window.
    pub fn contains(&self, t: Time) -> bool {
        self.not_before <= t && t <= self.not_after
    }

    /// Window length in seconds, counting both inclusive boundary
    /// instants: a degenerate `[t, t]` window is valid for exactly one
    /// second, and an inverted window (`not_after < not_before`, which no
    /// conforming CA emits) yields a non-positive duration.
    pub fn duration_seconds(&self) -> i64 {
        self.not_after.unix() - self.not_before.unix() + 1
    }

    /// True when the window is inverted (`not_after` strictly before
    /// `not_before`) — such a certificate can never be valid at any
    /// instant, see [`contains`](Self::contains).
    pub fn is_inverted(&self) -> bool {
        self.not_after < self.not_before
    }
}

/// The to-be-signed portion of a certificate (v3 profile).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TbsCertificate {
    /// Serial number (unsigned big-endian magnitude).
    pub serial: Vec<u8>,
    /// Signature algorithm the issuer will use (also echoed in the outer
    /// Certificate).
    pub signature_algorithm: KeyAlgorithm,
    /// Issuer distinguished name.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Subject public key.
    pub spki: SubjectPublicKeyInfo,
    /// Extensions in order.
    pub extensions: Vec<Extension>,
}

impl TbsCertificate {
    /// Encode to DER, into a buffer sized for a whole certificate.
    pub fn to_der(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(CERTIFICATE_CAPACITY);
        self.encode(&mut enc);
        enc.finish()
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|tbs| {
            // version [0] EXPLICIT INTEGER { v3(2) }
            tbs.explicit(0, |v| v.integer_i64(2));
            tbs.integer_unsigned(&self.serial);
            tbs.sequence(|alg| {
                alg.oid(self.signature_algorithm.signature_oid());
                alg.null();
            });
            self.issuer.encode(tbs);
            tbs.sequence(|val| {
                val.time(self.validity.not_before);
                val.time(self.validity.not_after);
            });
            self.subject.encode(tbs);
            self.spki.encode(tbs);
            if !self.extensions.is_empty() {
                tbs.explicit(3, |wrapper| {
                    wrapper.sequence(|exts| {
                        for ext in &self.extensions {
                            ext.encode(exts);
                        }
                    });
                });
            }
        });
    }
}

/// SHA-256 fingerprint of the full certificate DER — the certificate's
/// identity throughout chain-chaos ("bit-for-bit identical" duplicate
/// detection in the paper is exactly DER equality).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CertificateFingerprint(pub [u8; 32]);

impl CertificateFingerprint {
    /// Hex rendering (lowercase, full length).
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Short prefix for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }
}

impl fmt::Debug for CertificateFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({}…)", self.short())
    }
}

impl fmt::Display for CertificateFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Pre-parsed chain-relevant extensions, computed once per certificate.
#[derive(Clone, Debug, Default)]
struct ParsedExtensions {
    skid: Option<Vec<u8>>,
    akid: Option<AuthorityKeyIdentifier>,
    basic_constraints: Option<BasicConstraints>,
    key_usage: Option<KeyUsage>,
    san: Option<SubjectAltName>,
    aia: Option<AuthorityInfoAccess>,
    eku: Option<ExtendedKeyUsage>,
}

impl ParsedExtensions {
    fn from_list(extensions: &[Extension]) -> ParsedExtensions {
        let mut parsed = ParsedExtensions::default();
        for ext in extensions {
            // Lenient: unparseable typed values behave as absent, matching
            // how permissive clients treat junk extensions.
            if &ext.oid == oids::subject_key_identifier() {
                let mut p = Parser::new(&ext.value);
                if let Ok(v) = p.octet_string() {
                    if p.is_done() {
                        parsed.skid = Some(v.to_vec());
                    }
                }
            } else if &ext.oid == oids::authority_key_identifier() {
                parsed.akid = AuthorityKeyIdentifier::decode_value(&ext.value).ok();
            } else if &ext.oid == oids::basic_constraints() {
                parsed.basic_constraints = BasicConstraints::decode_value(&ext.value).ok();
            } else if &ext.oid == oids::key_usage() {
                parsed.key_usage = KeyUsage::decode_value(&ext.value).ok();
            } else if &ext.oid == oids::subject_alt_name() {
                parsed.san = SubjectAltName::decode_value(&ext.value).ok();
            } else if &ext.oid == oids::authority_info_access() {
                parsed.aia = AuthorityInfoAccess::decode_value(&ext.value).ok();
            } else if &ext.oid == oids::ext_key_usage() {
                parsed.eku = ExtendedKeyUsage::decode_value(&ext.value).ok();
            }
        }
        parsed
    }
}

struct CertificateInner {
    tbs: TbsCertificate,
    /// Full certificate DER, the only copy of its bytes.
    der: Vec<u8>,
    /// `der[tbs_start..tbs_end]` is the TBSCertificate, the signed message.
    tbs_start: usize,
    tbs_end: usize,
    /// `der[signature_start..]` is the raw signature: the contents of the
    /// signature BIT STRING after its unused-bits octet, which end the DER.
    signature_start: usize,
    /// Outer signature algorithm.
    signature_algorithm: KeyAlgorithm,
    fingerprint: CertificateFingerprint,
    parsed: ParsedExtensions,
}

/// An X.509 v3 certificate (immutable, cheaply cloneable).
///
/// Equality and hashing use the SHA-256 fingerprint of the full DER, so two
/// `Certificate` values are equal exactly when they are bit-for-bit the
/// same certificate — the comparison the paper uses for duplicate
/// detection.
#[derive(Clone)]
pub struct Certificate(Arc<CertificateInner>);

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.0.fingerprint == other.0.fingerprint
    }
}

impl Eq for Certificate {}

impl std::hash::Hash for Certificate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.fingerprint.hash(state);
    }
}

impl Certificate {
    /// Assemble a certificate from a TBS, its DER encoding `tbs_der` (the
    /// bytes the builder signed, so the TBS is encoded once) and its
    /// signature. The outer SEQUENCE is written into one buffer sized for
    /// it, which becomes the certificate's DER. `signature` is not checked
    /// here (deliberately: corrupt signatures are a required test input).
    pub(crate) fn assemble(
        tbs: TbsCertificate,
        tbs_der: &[u8],
        signature: &Signature,
    ) -> Certificate {
        let sig_bytes = signature.to_bytes();
        // The outer header, the algorithm identifier and the BIT STRING's
        // header and unused-bits octet take fewer than 32 bytes.
        let mut enc = Encoder::with_capacity(tbs_der.len() + sig_bytes.len() + 32);
        enc.sequence(|cert| {
            cert.write_raw(tbs_der);
            cert.sequence(|alg| {
                alg.oid(tbs.signature_algorithm.signature_oid());
                alg.null();
            });
            cert.bit_string(&sig_bytes);
        });
        let signature_algorithm = tbs.signature_algorithm;
        Certificate::from_parts(
            tbs,
            signature_algorithm,
            enc.finish(),
            tbs_der.len(),
            sig_bytes.len(),
        )
    }

    /// Wrap `der`, the DER of a whole certificate: one SEQUENCE whose
    /// content opens with the TBS (`tbs_len` bytes) and ends with the
    /// signature (`signature_len` bytes).
    fn from_parts(
        tbs: TbsCertificate,
        signature_algorithm: KeyAlgorithm,
        der: Vec<u8>,
        tbs_len: usize,
        signature_len: usize,
    ) -> Certificate {
        // The outer header is the tag and one length octet, or the tag,
        // `0x80 | n` and n more length octets.
        let tbs_start = match der[1] {
            0..=0x7f => 2,
            long => 2 + usize::from(long & 0x7f),
        };
        let fingerprint = CertificateFingerprint(ccc_crypto::sha256(&der));
        let parsed = ParsedExtensions::from_list(&tbs.extensions);
        Certificate(Arc::new(CertificateInner {
            tbs,
            tbs_start,
            tbs_end: tbs_start + tbs_len,
            signature_start: der.len() - signature_len,
            der,
            signature_algorithm,
            fingerprint,
            parsed,
        }))
    }

    /// Parse a certificate from DER.
    pub fn from_der(der: &[u8]) -> Result<Certificate, X509Error> {
        let mut parser = Parser::new(der);
        let cert = Self::decode_one(&mut parser)?;
        parser.expect_done()?;
        Ok(cert)
    }

    /// Parse one certificate from a parser (allows concatenated streams).
    pub fn decode_one(parser: &mut Parser<'_>) -> Result<Certificate, X509Error> {
        let (outer_tag, outer_raw) = parser.read_any_raw()?;
        if outer_tag != Tag::SEQUENCE {
            return Err(X509Error::Der(ccc_asn1::Error::UnexpectedTag {
                expected: Tag::SEQUENCE,
                found: outer_tag,
            }));
        }
        // Re-walk the outer sequence content.
        let mut outer = Parser::new(outer_raw);
        let (_, content) = outer.read_any()?;
        let mut body = Parser::new(content);
        let (tbs_tag, tbs_der) = body.read_any_raw()?;
        if tbs_tag != Tag::SEQUENCE {
            return Err(X509Error::Profile("TBSCertificate must be a SEQUENCE"));
        }
        let tbs = Self::decode_tbs(tbs_der)?;
        let outer_sig_oid = body
            .sequence(|alg| {
                let oid = alg.oid()?;
                if !alg.is_done() {
                    alg.null()?;
                }
                Ok(oid)
            })
            .map_err(X509Error::from)?;
        let outer_alg = KeyAlgorithm::from_signature_oid(&outer_sig_oid)
            .ok_or_else(|| X509Error::UnsupportedAlgorithm(outer_sig_oid.to_string()))?;
        let (unused, sig_bytes) = body.bit_string().map_err(X509Error::from)?;
        if unused != 0 {
            return Err(X509Error::Profile("signature BIT STRING with unused bits"));
        }
        body.expect_done().map_err(X509Error::from)?;
        Ok(Certificate::from_parts(
            tbs,
            outer_alg,
            outer_raw.to_vec(),
            tbs_der.len(),
            sig_bytes.len(),
        ))
    }

    fn decode_tbs(tbs_der: &[u8]) -> Result<TbsCertificate, X509Error> {
        let mut p = Parser::new(tbs_der);
        let tbs = p.sequence(|tbs| {
            let version = tbs
                .optional_constructed(Tag::context_constructed(0), |v| v.integer_i64())?
                .unwrap_or(0);
            if version != 2 {
                return Err(ccc_asn1::Error::InvalidValue(
                    "only v3 certificates supported",
                ));
            }
            let serial = tbs.integer_unsigned()?.to_vec();
            let sig_oid = tbs.sequence(|alg| {
                let oid = alg.oid()?;
                if !alg.is_done() {
                    alg.null()?;
                }
                Ok(oid)
            })?;
            let issuer = DistinguishedName::decode(tbs)?;
            let validity = tbs.sequence(|val| {
                Ok(Validity {
                    not_before: val.time()?,
                    not_after: val.time()?,
                })
            })?;
            let subject = DistinguishedName::decode(tbs)?;
            // SPKI errors need the richer X509Error; stash the raw bytes.
            let (spki_tag, spki_raw) = tbs.read_any_raw()?;
            if spki_tag != Tag::SEQUENCE {
                return Err(ccc_asn1::Error::UnexpectedTag {
                    expected: Tag::SEQUENCE,
                    found: spki_tag,
                });
            }
            let extensions = tbs
                .optional_constructed(Tag::context_constructed(3), |wrapper| {
                    wrapper.sequence(|exts| {
                        let mut v = Vec::new();
                        while !exts.is_done() {
                            v.push(Extension::decode(exts)?);
                        }
                        Ok(v)
                    })
                })?
                .unwrap_or_default();
            Ok((
                serial, sig_oid, issuer, validity, subject, spki_raw, extensions,
            ))
        })?;
        p.expect_done()?;
        let (serial, sig_oid, issuer, validity, subject, spki_raw, extensions) = tbs;
        let signature_algorithm = KeyAlgorithm::from_signature_oid(&sig_oid)
            .ok_or_else(|| X509Error::UnsupportedAlgorithm(sig_oid.to_string()))?;
        let mut spki_parser = Parser::new(spki_raw);
        let spki = SubjectPublicKeyInfo::decode(&mut spki_parser)?;
        Ok(TbsCertificate {
            serial,
            signature_algorithm,
            issuer,
            validity,
            subject,
            spki,
            extensions,
        })
    }

    /// Full certificate DER.
    pub fn to_der(&self) -> &[u8] {
        &self.0.der
    }

    /// Exact TBS bytes (the signed message).
    pub fn tbs_der(&self) -> &[u8] {
        &self.0.der[self.0.tbs_start..self.0.tbs_end]
    }

    /// The TBS fields.
    pub fn tbs(&self) -> &TbsCertificate {
        &self.0.tbs
    }

    /// Outer signature algorithm.
    pub fn signature_algorithm(&self) -> KeyAlgorithm {
        self.0.signature_algorithm
    }

    /// SHA-256 fingerprint of the DER.
    pub fn fingerprint(&self) -> CertificateFingerprint {
        self.0.fingerprint
    }

    /// Subject DN.
    pub fn subject(&self) -> &DistinguishedName {
        &self.0.tbs.subject
    }

    /// Issuer DN.
    pub fn issuer(&self) -> &DistinguishedName {
        &self.0.tbs.issuer
    }

    /// Serial number magnitude.
    pub fn serial(&self) -> &[u8] {
        &self.0.tbs.serial
    }

    /// Validity window.
    pub fn validity(&self) -> Validity {
        self.0.tbs.validity
    }

    /// Subject public key info.
    pub fn spki(&self) -> &SubjectPublicKeyInfo {
        &self.0.tbs.spki
    }

    /// The subject public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.0.tbs.spki.key
    }

    /// Raw extension list.
    pub fn extensions(&self) -> &[Extension] {
        &self.0.tbs.extensions
    }

    /// Subject Key Identifier bytes, if the extension is present and
    /// parseable.
    pub fn skid(&self) -> Option<&[u8]> {
        self.0.parsed.skid.as_deref()
    }

    /// Authority Key Identifier, if present.
    pub fn akid(&self) -> Option<&AuthorityKeyIdentifier> {
        self.0.parsed.akid.as_ref()
    }

    /// AKID key id bytes, if present (shorthand).
    pub fn akid_key_id(&self) -> Option<&[u8]> {
        self.0
            .parsed
            .akid
            .as_ref()
            .and_then(|a| a.key_id.as_deref())
    }

    /// Basic constraints, if present.
    pub fn basic_constraints(&self) -> Option<BasicConstraints> {
        self.0.parsed.basic_constraints
    }

    /// Key usage, if present.
    pub fn key_usage(&self) -> Option<KeyUsage> {
        self.0.parsed.key_usage
    }

    /// Subject alternative name, if present.
    pub fn san(&self) -> Option<&SubjectAltName> {
        self.0.parsed.san.as_ref()
    }

    /// Authority information access, if present.
    pub fn aia(&self) -> Option<&AuthorityInfoAccess> {
        self.0.parsed.aia.as_ref()
    }

    /// First caIssuers URI from AIA, if any.
    pub fn aia_ca_issuers_uri(&self) -> Option<&str> {
        self.0.parsed.aia.as_ref().and_then(|a| a.ca_issuers_uri())
    }

    /// Extended key usage, if present.
    pub fn eku(&self) -> Option<&ExtendedKeyUsage> {
        self.0.parsed.eku.as_ref()
    }

    /// True when subject and issuer DN are identical (self-*issued*; the
    /// signature may or may not verify).
    pub fn is_self_issued(&self) -> bool {
        self.0.tbs.subject == self.0.tbs.issuer
    }

    /// True when the certificate is genuinely self-signed: self-issued and
    /// the signature verifies under its own key.
    pub fn is_self_signed(&self) -> bool {
        self.is_self_issued() && self.verify_signature_with(self.public_key())
    }

    /// Whether this certificate claims to be a CA (BasicConstraints cA).
    pub fn is_ca(&self) -> bool {
        self.basic_constraints().map(|bc| bc.ca).unwrap_or(false)
    }

    /// Verify this certificate's signature with a candidate issuer key.
    pub fn verify_signature_with(&self, issuer_key: &PublicKey) -> bool {
        let scalar_len = issuer_key.group().scalar_len;
        match Signature::from_bytes(&self.0.der[self.0.signature_start..], scalar_len) {
            Some(sig) => issuer_key.verify(self.tbs_der(), &sig),
            None => false,
        }
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("subject", &self.subject().to_string())
            .field("issuer", &self.issuer().to_string())
            .field("self_issued", &self.is_self_issued())
            .field("fp", &self.fingerprint().short())
            .finish()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Certificate[subject={}, issuer={}, fp={}]",
            self.subject(),
            self.issuer(),
            self.fingerprint().short()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(nb: i64, na: i64) -> Validity {
        Validity {
            not_before: Time::from_unix(nb),
            not_after: Time::from_unix(na),
        }
    }

    #[test]
    fn validity_boundary_instants_are_inside() {
        let v = window(1_000, 2_000);
        // RFC 5280 §4.1.2.5: "from notBefore through notAfter, inclusive".
        assert!(v.contains(Time::from_unix(1_000)), "notBefore instant");
        assert!(v.contains(Time::from_unix(2_000)), "notAfter instant");
        assert!(v.contains(Time::from_unix(1_500)));
        assert!(!v.contains(Time::from_unix(999)), "one second early");
        assert!(!v.contains(Time::from_unix(2_001)), "one second late");
    }

    #[test]
    fn validity_duration_counts_inclusive_seconds() {
        // A [t, t] window is valid for exactly the one instant t.
        let degenerate = window(5, 5);
        assert!(degenerate.contains(Time::from_unix(5)));
        assert_eq!(degenerate.duration_seconds(), 1);
        assert!(!degenerate.is_inverted());

        let v = window(0, 86_399);
        assert_eq!(v.duration_seconds(), 86_400, "a full day of seconds");
    }

    #[test]
    fn inverted_validity_window() {
        let v = window(2_000, 1_000);
        assert!(v.is_inverted());
        assert!(v.duration_seconds() <= 0);
        // No instant is inside an inverted window.
        for t in [999, 1_000, 1_500, 2_000, 2_001] {
            assert!(!v.contains(Time::from_unix(t)), "t={t}");
        }
    }
}
