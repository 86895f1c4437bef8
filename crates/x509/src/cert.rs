//! Certificate and TBSCertificate types with DER codec.

use crate::extensions::{
    AuthorityInfoAccess, AuthorityKeyIdentifier, BasicConstraints, ExtendedKeyUsage, KeyUsage,
    SubjectAltName,
};
use crate::name::DistinguishedName;
use crate::spki::{read_algorithm, write_algorithm, KeyAlgorithm, SubjectPublicKeyInfo};
use crate::X509Error;
use ccc_asn1::{oids, Encoder, Oid, Parser, Tag, Time};
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
pub(crate) struct TbsCertificate {
    /// Serial number (unsigned big-endian magnitude).
    pub(crate) serial: Vec<u8>,
    /// Signature algorithm the issuer will use (also echoed in the outer
    /// Certificate).
    pub(crate) signature_algorithm: KeyAlgorithm,
    /// Issuer distinguished name.
    pub(crate) issuer: DistinguishedName,
    /// Validity window.
    pub(crate) validity: Validity,
    /// Subject distinguished name.
    pub(crate) subject: DistinguishedName,
    /// Subject public key.
    pub(crate) spki: SubjectPublicKeyInfo,
    /// The certificate's only copy of its extensions.
    pub(crate) extensions: Extensions,
}

impl TbsCertificate {
    /// Encode to DER, into a buffer sized for a whole certificate.
    pub(crate) fn to_der(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(CERTIFICATE_CAPACITY);
        enc.sequence(|tbs| {
            // version [0] EXPLICIT INTEGER { v3(2) }
            tbs.explicit(0, |v| v.integer_i64(2));
            tbs.integer_unsigned(&self.serial);
            write_algorithm(tbs, self.signature_algorithm.signature_oid());
            self.issuer.encode(tbs);
            tbs.sequence(|val| {
                val.time(self.validity.not_before);
                val.time(self.validity.not_after);
            });
            self.subject.encode(tbs);
            self.spki.encode(tbs);
            self.extensions.encode(tbs);
        });
        enc.finish()
    }
}

/// The extensions chain construction reads: a certificate's only copy of
/// them. A built certificate holds the builder's values; a decoded one
/// holds what [`Extensions::read`] takes from its `[3]` block.
#[derive(Default, PartialEq)]
pub(crate) struct Extensions {
    pub(crate) san: Option<SubjectAltName>,
    pub(crate) basic_constraints: Option<BasicConstraints>,
    pub(crate) key_usage: Option<KeyUsage>,
    pub(crate) eku: Option<ExtendedKeyUsage>,
    /// Subject Key Identifier bytes.
    pub(crate) skid: Option<Vec<u8>>,
    pub(crate) akid: Option<AuthorityKeyIdentifier>,
    pub(crate) aia: Option<AuthorityInfoAccess>,
}

impl Extensions {
    /// Write the `[3]` block, each present extension in field order, or
    /// nothing when none is present. BasicConstraints and KeyUsage are
    /// marked critical.
    fn encode(&self, tbs: &mut Encoder) {
        if *self == Extensions::default() {
            return;
        }
        tbs.explicit(3, |wrapper| {
            wrapper.sequence(|list| {
                if let Some(san) = &self.san {
                    write_extension(list, oids::SUBJECT_ALT_NAME, false, |v| san.encode(v));
                }
                if let Some(bc) = &self.basic_constraints {
                    write_extension(list, oids::BASIC_CONSTRAINTS, true, |v| bc.encode(v));
                }
                if let Some(ku) = &self.key_usage {
                    write_extension(list, oids::KEY_USAGE, true, |v| ku.encode(v));
                }
                if let Some(eku) = &self.eku {
                    write_extension(list, oids::EXT_KEY_USAGE, false, |v| eku.encode(v));
                }
                if let Some(skid) = &self.skid {
                    write_extension(list, oids::SUBJECT_KEY_IDENTIFIER, false, |v| {
                        v.octet_string(skid)
                    });
                }
                if let Some(akid) = &self.akid {
                    write_extension(list, oids::AUTHORITY_KEY_IDENTIFIER, false, |v| {
                        akid.encode(v)
                    });
                }
                if let Some(aia) = &self.aia {
                    write_extension(list, oids::AUTHORITY_INFO_ACCESS, false, |v| aia.encode(v));
                }
            });
        });
    }

    /// Take one extension's value (the content of its extnValue OCTET
    /// STRING) into the view. A later occurrence replaces an earlier one.
    /// Lenient, as permissive clients are with junk extensions: an
    /// unparseable value reads as absent, except that an unparseable SKID
    /// leaves an earlier one in place, and an unknown OID is skipped.
    fn read(&mut self, oid: Oid<'_>, value: &[u8]) {
        match oid {
            oids::SUBJECT_KEY_IDENTIFIER => {
                let mut p = Parser::new(value);
                if let Ok(v) = p.octet_string() {
                    if p.is_done() {
                        self.skid = Some(v.to_vec());
                    }
                }
            }
            oids::AUTHORITY_KEY_IDENTIFIER => {
                self.akid = AuthorityKeyIdentifier::decode_value(value).ok()
            }
            oids::BASIC_CONSTRAINTS => {
                self.basic_constraints = BasicConstraints::decode_value(value).ok()
            }
            oids::KEY_USAGE => self.key_usage = KeyUsage::decode_value(value).ok(),
            oids::SUBJECT_ALT_NAME => self.san = SubjectAltName::decode_value(value).ok(),
            oids::AUTHORITY_INFO_ACCESS => self.aia = AuthorityInfoAccess::decode_value(value).ok(),
            oids::EXT_KEY_USAGE => self.eku = ExtendedKeyUsage::decode_value(value).ok(),
            _ => {}
        }
    }
}

/// Write one Extension SEQUENCE whose extnValue `value` writes.
fn write_extension(
    list: &mut Encoder,
    oid: Oid<'_>,
    critical: bool,
    value: impl FnOnce(&mut Encoder),
) {
    list.sequence(|ext| {
        ext.oid(oid);
        if critical {
            ext.boolean(true); // DEFAULT FALSE: only encode when true
        }
        ext.write_constructed(Tag::OCTET_STRING, value);
    });
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
    fingerprint: CertificateFingerprint,
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
            write_algorithm(cert, tbs.signature_algorithm.signature_oid());
            cert.bit_string(&sig_bytes);
        });
        Certificate::from_parts(tbs, enc.finish(), tbs_der.len(), sig_bytes.len())
    }

    /// Wrap `der`, the DER of a whole certificate: one SEQUENCE whose
    /// content opens with the TBS (`tbs_len` bytes) and ends with the
    /// signature (`signature_len` bytes).
    fn from_parts(
        tbs: TbsCertificate,
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
        Certificate(Arc::new(CertificateInner {
            tbs,
            tbs_start,
            tbs_end: tbs_start + tbs_len,
            signature_start: der.len() - signature_len,
            der,
            fingerprint,
        }))
    }

    /// Parse a certificate from DER: exactly one Certificate SEQUENCE.
    pub fn from_der(der: &[u8]) -> Result<Certificate, X509Error> {
        let mut parser = Parser::new(der);
        let (outer_tag, content) = parser.read_any()?;
        if outer_tag != Tag::SEQUENCE {
            return Err(X509Error::Der(ccc_asn1::Error::UnexpectedTag {
                expected: Tag::SEQUENCE,
                found: outer_tag,
            }));
        }
        let mut body = Parser::new(content);
        let (tbs_tag, tbs_der) = body.read_any_raw()?;
        if tbs_tag != Tag::SEQUENCE {
            return Err(X509Error::Profile("TBSCertificate must be a SEQUENCE"));
        }
        let tbs = Self::decode_tbs(tbs_der)?;
        let outer_sig_oid = read_algorithm(&mut body)?;
        // RFC 5280 §4.1.1.2: the outer algorithm must equal the TBS's.
        match KeyAlgorithm::from_signature_oid(outer_sig_oid) {
            None => return Err(X509Error::UnsupportedAlgorithm(outer_sig_oid.to_string())),
            Some(outer) if outer != tbs.signature_algorithm => {
                return Err(X509Error::Profile(
                    "outer signatureAlgorithm differs from the TBS signature",
                ));
            }
            Some(_) => {}
        }
        let (unused, sig_bytes) = body.bit_string()?;
        if unused != 0 {
            return Err(X509Error::Profile("signature BIT STRING with unused bits"));
        }
        body.expect_done()?;
        parser.expect_done()?;
        Ok(Certificate::from_parts(
            tbs,
            der.to_vec(),
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
            let sig_oid = read_algorithm(tbs)?;
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
            // Each Extension SEQUENCE must hold an OID, an optional
            // BOOLEAN and an OCTET STRING, and nothing after it.
            let extensions = tbs
                .optional_constructed(Tag::context_constructed(3), |wrapper| {
                    wrapper.sequence(|list| {
                        let mut extensions = Extensions::default();
                        while !list.is_done() {
                            list.sequence(|ext| {
                                let oid = ext.oid()?;
                                if !ext.is_done() && ext.peek_tag()? == Tag::BOOLEAN {
                                    ext.boolean()?;
                                }
                                extensions.read(oid, ext.octet_string()?);
                                Ok(())
                            })?;
                        }
                        Ok(extensions)
                    })
                })?
                .unwrap_or_default();
            Ok((
                serial, sig_oid, issuer, validity, subject, spki_raw, extensions,
            ))
        })?;
        p.expect_done()?;
        let (serial, sig_oid, issuer, validity, subject, spki_raw, extensions) = tbs;
        let signature_algorithm = KeyAlgorithm::from_signature_oid(sig_oid)
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

    /// The subject public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.0.tbs.spki.key
    }

    /// Subject Key Identifier bytes, if the extension is present and
    /// parseable.
    pub fn skid(&self) -> Option<&[u8]> {
        self.0.tbs.extensions.skid.as_deref()
    }

    /// Authority Key Identifier, if present.
    pub fn akid(&self) -> Option<&AuthorityKeyIdentifier> {
        self.0.tbs.extensions.akid.as_ref()
    }

    /// AKID key id bytes, if present (shorthand).
    pub fn akid_key_id(&self) -> Option<&[u8]> {
        self.akid().and_then(|a| a.key_id.as_deref())
    }

    /// Basic constraints, if present.
    pub fn basic_constraints(&self) -> Option<BasicConstraints> {
        self.0.tbs.extensions.basic_constraints
    }

    /// Key usage, if present.
    pub fn key_usage(&self) -> Option<KeyUsage> {
        self.0.tbs.extensions.key_usage
    }

    /// Subject alternative name, if present.
    pub fn san(&self) -> Option<&SubjectAltName> {
        self.0.tbs.extensions.san.as_ref()
    }

    /// Authority information access, if present.
    pub fn aia(&self) -> Option<&AuthorityInfoAccess> {
        self.0.tbs.extensions.aia.as_ref()
    }

    /// First caIssuers URI from AIA, if any.
    pub fn aia_ca_issuers_uri(&self) -> Option<&str> {
        self.aia().and_then(|a| a.ca_issuers_uri())
    }

    /// Extended key usage, if present.
    pub fn eku(&self) -> Option<&ExtendedKeyUsage> {
        self.0.tbs.extensions.eku.as_ref()
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
    use crate::builder::CertificateBuilder;
    use ccc_crypto::{Group, KeyPair};

    /// A leaf with all seven extensions the builder writes: SAN,
    /// BasicConstraints, KeyUsage, EKU, SKID, AKID and AIA.
    fn leaf() -> Certificate {
        let g = Group::simulation_256();
        let ca = KeyPair::from_seed(g, b"extensions/ca");
        let key = KeyPair::from_seed(g, b"extensions/leaf");
        CertificateBuilder::leaf_profile("extensions.sim")
            .aia_ca_issuers("http://aia.sim/ca.crt")
            .issued_by(&key.public, DistinguishedName::cn("Extensions CA"), &ca)
    }

    /// One Extension SEQUENCE.
    fn extension(oid: Oid<'_>, critical: bool, value: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.sequence(|ext| {
            ext.oid(oid);
            if critical {
                ext.boolean(true);
            }
            ext.octet_string(value);
        });
        enc.finish()
    }

    /// The Extension SEQUENCEs of `cert`'s `[3]` block, each with its OID.
    fn extensions_of(cert: &Certificate) -> Vec<(Oid<'_>, &[u8])> {
        let (_, body) = Parser::new(cert.to_der()).read_any().unwrap();
        let (_, tbs) = Parser::new(body).read_any().unwrap();
        let mut fields = Parser::new(tbs);
        let mut list = Parser::new(&[]);
        while !fields.is_done() {
            let (tag, field) = fields.read_any().unwrap();
            if tag == Tag::context_constructed(3) {
                list = Parser::new(Parser::new(field).read_any().unwrap().1);
            }
        }
        let mut out = Vec::new();
        while !list.is_done() {
            let (_, tlv) = list.read_any_raw().unwrap();
            let (_, ext) = Parser::new(tlv).read_any().unwrap();
            out.push((Parser::new(ext).oid().unwrap(), tlv));
        }
        out
    }

    /// `cert` with its extension list replaced by `extensions`, a run of
    /// Extension SEQUENCEs, decoded again; the signature is copied, not
    /// remade.
    fn with_extensions(cert: &Certificate, extensions: &[u8]) -> Result<Certificate, X509Error> {
        let (_, body) = Parser::new(cert.to_der()).read_any().unwrap();
        let mut body = Parser::new(body);
        let (_, tbs) = body.read_any_raw().unwrap();
        let (_, tbs) = Parser::new(tbs).read_any().unwrap();
        let mut fields = Parser::new(tbs);
        let mut enc = Encoder::new();
        enc.sequence(|c| {
            c.sequence(|t| {
                while !fields.is_done() {
                    let (tag, field) = fields.read_any_raw().unwrap();
                    if tag == Tag::context_constructed(3) {
                        t.explicit(3, |w| w.sequence(|list| list.write_raw(extensions)));
                    } else {
                        t.write_raw(field);
                    }
                }
            });
            while !body.is_done() {
                c.write_raw(body.read_any_raw().unwrap().1);
            }
        });
        Certificate::from_der(&enc.finish())
    }

    /// `cert`'s extension list with the one under `oid` replaced by
    /// `replacement`.
    fn replaced(cert: &Certificate, oid: Oid<'_>, replacement: &[u8]) -> Vec<u8> {
        let mut list = Vec::new();
        for (ext_oid, tlv) in extensions_of(cert) {
            list.extend_from_slice(if ext_oid == oid { replacement } else { tlv });
        }
        list
    }

    /// `cert`'s extension list followed by `extension`.
    fn appended(cert: &Certificate, extension: &[u8]) -> Vec<u8> {
        let mut list: Vec<u8> = extensions_of(cert)
            .into_iter()
            .flat_map(|(_, tlv)| tlv)
            .copied()
            .collect();
        list.extend_from_slice(extension);
        list
    }

    /// Every accessor but `san()`.
    #[allow(clippy::type_complexity)]
    fn view_but_san(
        c: &Certificate,
    ) -> (
        &DistinguishedName,
        &DistinguishedName,
        &[u8],
        Validity,
        &PublicKey,
        Option<&[u8]>,
        Option<&AuthorityKeyIdentifier>,
        Option<BasicConstraints>,
        Option<KeyUsage>,
        Option<&AuthorityInfoAccess>,
        Option<&ExtendedKeyUsage>,
    ) {
        (
            c.subject(),
            c.issuer(),
            c.serial(),
            c.validity(),
            c.public_key(),
            c.skid(),
            c.akid(),
            c.basic_constraints(),
            c.key_usage(),
            c.aia(),
            c.eku(),
        )
    }

    /// A value none of the seven extensions parses: NULL and a stray
    /// octet.
    const JUNK: &[u8] = &[0x05, 0x00, 0xff];

    #[test]
    fn unparseable_san_reads_as_absent() {
        let built = leaf();
        let (_, _, _, _, _, skid, akid, bc, ku, aia, eku) = view_but_san(&built);
        assert!(skid.is_some() && akid.is_some() && bc.is_some() && ku.is_some());
        assert!(aia.is_some() && eku.is_some() && built.san().is_some());
        let san = extension(oids::SUBJECT_ALT_NAME, false, JUNK);
        let list = replaced(&built, oids::SUBJECT_ALT_NAME, &san);
        let cert = with_extensions(&built, &list).expect("a junk value is not an error");
        assert_eq!(cert.san(), None);
        assert_eq!(view_but_san(&cert), view_but_san(&built));
    }

    #[test]
    fn unknown_extension_is_skipped() {
        let built = leaf();
        let unknown = extension(Oid::from_content(&[0x2a, 0x03, 0x04]).unwrap(), true, JUNK);
        let cert = with_extensions(&built, &appended(&built, &unknown)).unwrap();
        assert_eq!(view_but_san(&cert), view_but_san(&built));
        assert_eq!(cert.san(), built.san());
    }

    #[test]
    fn unparseable_later_akid_replaces_the_earlier_one() {
        let built = leaf();
        let akid = extension(oids::AUTHORITY_KEY_IDENTIFIER, false, JUNK);
        let cert = with_extensions(&built, &appended(&built, &akid)).unwrap();
        assert!(built.akid_key_id().is_some());
        assert_eq!(cert.akid(), None);
        assert_eq!(cert.akid_key_id(), None);
        assert_eq!(cert.skid(), built.skid());
    }

    #[test]
    fn unparseable_later_skid_keeps_the_earlier_one() {
        let built = leaf();
        let skid = |value: &[u8]| extension(oids::SUBJECT_KEY_IDENTIFIER, false, value);
        let cert = with_extensions(&built, &appended(&built, &skid(JUNK))).unwrap();
        assert!(built.skid().is_some());
        assert_eq!(cert.skid(), built.skid());

        // A parseable later SKID does replace the earlier one.
        let later = skid(&[0x04, 0x04, 7, 7, 7, 7]);
        let cert = with_extensions(&built, &appended(&built, &later)).unwrap();
        assert_eq!(cert.skid(), Some(&[7u8; 4][..]));

        // An OCTET STRING with anything after it does not parse.
        let trailing = skid(&[0x04, 0x01, 9, 0x05, 0x00]);
        let list = replaced(&built, oids::SUBJECT_KEY_IDENTIFIER, &trailing);
        assert_eq!(with_extensions(&built, &list).unwrap().skid(), None);
    }

    #[test]
    fn malformed_extension_sequence_rejects_the_certificate() {
        let built = leaf();
        let sequence = |content: &[u8]| {
            let mut enc = Encoder::new();
            enc.sequence(|ext| ext.write_raw(content));
            enc.finish()
        };
        // OID 1.2.3.4, then an empty OCTET STRING.
        let oid: &[u8] = &[0x06, 0x03, 0x2a, 0x03, 0x04];
        let well_formed = sequence(&[oid, &[0x04, 0x00]].concat());
        let oid_1234 = Oid::from_content(&oid[2..]).unwrap();
        assert_eq!(oid_1234.to_string(), "1.2.3.4");
        assert_eq!(well_formed, extension(oid_1234, false, &[]));
        assert!(with_extensions(&built, &appended(&built, &well_formed)).is_ok());
        for (what, content) in [
            ("no OCTET STRING", oid.to_vec()),
            (
                "an element after the OCTET STRING",
                [oid, &[0x04, 0x00, 0x05, 0x00]].concat(),
            ),
            ("no OID", vec![0x04, 0x00]),
            (
                "a non-canonical BOOLEAN",
                [oid, &[0x01, 0x01, 0x01, 0x04, 0x00]].concat(),
            ),
        ] {
            let ext = sequence(&content);
            for list in [
                appended(&built, &ext),
                replaced(&built, oids::SUBJECT_ALT_NAME, &ext),
            ] {
                assert!(with_extensions(&built, &list).is_err(), "{what}");
            }
        }
    }

    #[test]
    fn outer_algorithm_must_match_the_tbs() {
        let built = leaf();
        let mut der = built.to_der().to_vec();
        // The outer AlgorithmIdentifier follows the TBS, so it holds the
        // last copy of the signature OID; make it the RFC 3526 one.
        let sig = oids::SCHNORR_SIM256_SIG.as_bytes();
        let at = der.windows(sig.len()).rposition(|w| w == sig).unwrap();
        der[at + sig.len() - 1] = 0x02;
        assert_eq!(
            &der[at..at + sig.len()],
            oids::SCHNORR_RFC3526_SIG.as_bytes()
        );
        assert!(der
            .windows(built.tbs_der().len())
            .any(|w| w == built.tbs_der()));
        assert_eq!(
            Certificate::from_der(&der),
            Err(X509Error::Profile(
                "outer signatureAlgorithm differs from the TBS signature"
            ))
        );
    }

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
