//! Certificate builder — the in-tree equivalent of `rcgen`, extended with
//! the *misconfiguration knobs* the paper's test cases need (absent or
//! mismatched key identifiers, wrong KeyUsage, bad path lengths, corrupt
//! signatures, signing with the wrong key).

use crate::cert::{Certificate, Extensions, TbsCertificate, Validity};
use crate::extensions::{
    AuthorityInfoAccess, AuthorityKeyIdentifier, BasicConstraints, ExtendedKeyUsage, KeyUsage,
    SubjectAltName,
};
use crate::name::DistinguishedName;
use crate::spki::{KeyAlgorithm, SubjectPublicKeyInfo};
use ccc_asn1::{Encoder, Time};
use ccc_crypto::{KeyPair, PrivateKey, PublicKey};

/// How to populate the Subject Key Identifier extension.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum KidMode {
    /// Derive per RFC 5280 method 1: SHA-1 of the public key bytes.
    #[default]
    Auto,
    /// Omit the extension entirely.
    Absent,
    /// Use these exact bytes (for mismatch test cases).
    Custom(Vec<u8>),
}

impl KidMode {
    /// The identifier bytes to write, derived from `key` in `Auto` mode.
    fn key_id(self, key: &PublicKey) -> Option<Vec<u8>> {
        match self {
            KidMode::Auto => Some(key_identifier(key)),
            KidMode::Absent => None,
            KidMode::Custom(bytes) => Some(bytes),
        }
    }
}

/// Compute the canonical key identifier for a public key (SHA-1 of the key
/// material, RFC 5280 §4.2.1.2 method 1).
pub fn key_identifier(key: &PublicKey) -> Vec<u8> {
    ccc_crypto::sha1(key.as_bytes()).to_vec()
}

/// Fluent builder for (possibly deliberately malformed) certificates.
#[derive(Clone, Debug)]
pub struct CertificateBuilder {
    subject: DistinguishedName,
    validity: Validity,
    serial: Option<Vec<u8>>,
    san: Option<SubjectAltName>,
    basic_constraints: Option<BasicConstraints>,
    key_usage: Option<KeyUsage>,
    eku: Option<ExtendedKeyUsage>,
    skid_mode: KidMode,
    akid_mode: KidMode,
    aia: Option<AuthorityInfoAccess>,
    corrupt_signature: bool,
}

impl CertificateBuilder {
    /// Start a builder with a subject DN. Defaults: validity 2024-01-01 to
    /// 2026-01-01, issuer = subject (overridden when signing with
    /// [`Self::issued_by`]), automatic SKID/AKID, no other extensions.
    pub fn new(subject: DistinguishedName) -> CertificateBuilder {
        let not_before = Time::from_ymd(2024, 1, 1).expect("valid date");
        let not_after = Time::from_ymd(2026, 1, 1).expect("valid date");
        CertificateBuilder {
            subject,
            validity: Validity {
                not_before,
                not_after,
            },
            serial: None,
            san: None,
            basic_constraints: None,
            key_usage: None,
            eku: None,
            skid_mode: KidMode::Auto,
            akid_mode: KidMode::Auto,
            aia: None,
            corrupt_signature: false,
        }
    }

    /// Shorthand for a typical CA certificate profile (BasicConstraints
    /// cA=TRUE, KeyUsage keyCertSign|cRLSign).
    pub fn ca_profile(subject: DistinguishedName) -> CertificateBuilder {
        CertificateBuilder::new(subject)
            .basic_constraints(Some(BasicConstraints::ca()))
            .key_usage(Some(KeyUsage::ca()))
    }

    /// Shorthand for a typical TLS leaf profile for `domain`: SAN with the
    /// domain, CN set, end-entity constraints, serverAuth EKU.
    pub fn leaf_profile(domain: &str) -> CertificateBuilder {
        CertificateBuilder::new(DistinguishedName::cn(domain))
            .san(Some(SubjectAltName::dns(&[domain])))
            .basic_constraints(Some(BasicConstraints::end_entity()))
            .key_usage(Some(KeyUsage::tls_server()))
            .eku(Some(ExtendedKeyUsage::server_auth()))
    }

    /// Set the validity window.
    pub fn validity(mut self, not_before: Time, not_after: Time) -> Self {
        self.validity = Validity {
            not_before,
            not_after,
        };
        self
    }

    /// Set the serial number magnitude.
    pub fn serial(mut self, serial: Vec<u8>) -> Self {
        self.serial = Some(serial);
        self
    }

    /// Set (or clear) the SAN extension.
    pub fn san(mut self, san: Option<SubjectAltName>) -> Self {
        self.san = san;
        self
    }

    /// Set (or clear) BasicConstraints.
    pub fn basic_constraints(mut self, bc: Option<BasicConstraints>) -> Self {
        self.basic_constraints = bc;
        self
    }

    /// Set (or clear) KeyUsage.
    pub fn key_usage(mut self, ku: Option<KeyUsage>) -> Self {
        self.key_usage = ku;
        self
    }

    /// Set (or clear) ExtendedKeyUsage.
    pub fn eku(mut self, eku: Option<ExtendedKeyUsage>) -> Self {
        self.eku = eku;
        self
    }

    /// Control the SKID extension.
    pub fn skid(mut self, mode: KidMode) -> Self {
        self.skid_mode = mode;
        self
    }

    /// Control the AKID extension.
    pub fn akid(mut self, mode: KidMode) -> Self {
        self.akid_mode = mode;
        self
    }

    /// Add an AIA caIssuers URI.
    pub fn aia_ca_issuers(mut self, uri: impl Into<String>) -> Self {
        self.aia = Some(AuthorityInfoAccess::ca_issuers(uri));
        self
    }

    /// Set (or clear) the whole AIA extension.
    pub fn aia(mut self, aia: Option<AuthorityInfoAccess>) -> Self {
        self.aia = aia;
        self
    }

    /// Flip a bit in the signature after signing (produces a certificate
    /// whose KID/DN relations all match but whose signature is invalid).
    pub fn corrupt_signature(mut self, corrupt: bool) -> Self {
        self.corrupt_signature = corrupt;
        self
    }

    /// Build a self-signed certificate: subject == issuer, signed by
    /// `keypair` which is also the subject key.
    pub fn self_signed(self, keypair: &KeyPair) -> Certificate {
        let issuer = self.subject.clone();
        self.build(&keypair.public, issuer, &keypair.private, &keypair.public)
    }

    /// Build a certificate for `subject_key`, issued and signed by
    /// `issuer_keypair` under `issuer_dn`.
    pub fn issued_by(
        self,
        subject_key: &PublicKey,
        issuer_dn: DistinguishedName,
        issuer_keypair: &KeyPair,
    ) -> Certificate {
        self.build(
            subject_key,
            issuer_dn,
            &issuer_keypair.private,
            &issuer_keypair.public,
        )
    }

    /// Fully explicit build: sign with `signing_key`, while AKID (in Auto
    /// mode) is derived from `akid_source_key`. Splitting the two enables
    /// "KID says issuer X but signature is from key Y" test certificates.
    pub fn build(
        self,
        subject_key: &PublicKey,
        issuer_dn: DistinguishedName,
        signing_key: &PrivateKey,
        akid_source_key: &PublicKey,
    ) -> Certificate {
        let serial = self.serial.unwrap_or_else(|| {
            // Deterministic serial from the identifying fields: subject
            // and issuer DER, key and notBefore, written into one buffer.
            let key = subject_key.as_bytes();
            let mut material = Encoder::with_capacity(256 + key.len());
            self.subject.encode(&mut material);
            issuer_dn.encode(&mut material);
            let mut material = material.finish();
            material.extend_from_slice(key);
            material.extend_from_slice(&self.validity.not_before.unix().to_be_bytes());
            let digest = ccc_crypto::sha256(&material);
            let mut serial = digest[..16].to_vec();
            serial[0] &= 0x7f; // keep it positive without a pad byte
            if serial[0] == 0 {
                serial[0] = 1;
            }
            serial
        });

        let tbs = TbsCertificate {
            serial,
            // The signing key's algorithm, which the subject's need not be.
            signature_algorithm: KeyAlgorithm::from_group(signing_key.group().id),
            issuer: issuer_dn,
            validity: self.validity,
            subject: self.subject,
            spki: SubjectPublicKeyInfo::new(subject_key.clone()),
            extensions: Extensions {
                san: self.san,
                basic_constraints: self.basic_constraints,
                key_usage: self.key_usage,
                eku: self.eku,
                skid: self.skid_mode.key_id(subject_key),
                akid: self
                    .akid_mode
                    .key_id(akid_source_key)
                    .map(|key_id| AuthorityKeyIdentifier {
                        key_id: Some(key_id),
                    }),
                aia: self.aia,
            },
        };
        let tbs_der = tbs.to_der();
        let mut signature = signing_key.sign(&tbs_der);
        if self.corrupt_signature {
            signature.e[0] ^= 0x01;
        }
        Certificate::assemble(tbs, &tbs_der, &signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spki::read_algorithm;
    use ccc_asn1::Parser;
    use ccc_crypto::Group;

    fn group() -> &'static Group {
        Group::simulation_256()
    }

    #[test]
    fn self_signed_root_roundtrips_and_verifies() {
        let kp = KeyPair::from_seed(group(), b"root-1");
        let root = CertificateBuilder::ca_profile(DistinguishedName::cn_o("Sim Root", "Sim Trust"))
            .self_signed(&kp);
        assert!(root.is_self_issued());
        assert!(root.is_self_signed());
        assert!(root.is_ca());
        // DER round trip preserves identity.
        let reparsed = Certificate::from_der(root.to_der()).unwrap();
        assert_eq!(reparsed, root);
        assert_eq!(reparsed.subject(), root.subject());
        assert_eq!(reparsed.skid(), root.skid());
    }

    #[test]
    fn three_level_chain_verifies() {
        let root_kp = KeyPair::from_seed(group(), b"root-2");
        let int_kp = KeyPair::from_seed(group(), b"int-2");
        let leaf_kp = KeyPair::from_seed(group(), b"leaf-2");
        let root_dn = DistinguishedName::cn_o("Sim Root 2", "Sim Trust");
        let int_dn = DistinguishedName::cn_o("Sim Issuing CA 2", "Sim Trust");

        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let intermediate = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn.clone(),
            &root_kp,
        );
        let leaf = CertificateBuilder::leaf_profile("example.sim").issued_by(
            &leaf_kp.public,
            int_dn.clone(),
            &int_kp,
        );

        assert!(leaf.verify_signature_with(intermediate.public_key()));
        assert!(intermediate.verify_signature_with(root.public_key()));
        assert!(!leaf.verify_signature_with(root.public_key()));
        // KID chain: leaf AKID == intermediate SKID, etc.
        assert_eq!(leaf.akid_key_id().unwrap(), intermediate.skid().unwrap());
        assert_eq!(intermediate.akid_key_id().unwrap(), root.skid().unwrap());
        // DN chain.
        assert_eq!(leaf.issuer(), intermediate.subject());
        assert_eq!(intermediate.issuer(), root.subject());
    }

    #[test]
    fn kid_modes() {
        let root_kp = KeyPair::from_seed(group(), b"root-3");
        let leaf_kp = KeyPair::from_seed(group(), b"leaf-3");
        let root_dn = DistinguishedName::cn("Root 3");

        let absent = CertificateBuilder::leaf_profile("a.sim")
            .skid(KidMode::Absent)
            .akid(KidMode::Absent)
            .issued_by(&leaf_kp.public, root_dn.clone(), &root_kp);
        assert!(absent.skid().is_none());
        assert!(absent.akid().is_none());

        let custom = CertificateBuilder::leaf_profile("b.sim")
            .skid(KidMode::Custom(vec![9; 20]))
            .akid(KidMode::Custom(vec![7; 20]))
            .issued_by(&leaf_kp.public, root_dn.clone(), &root_kp);
        assert_eq!(custom.skid().unwrap(), &[9; 20][..]);
        assert_eq!(custom.akid_key_id().unwrap(), &[7; 20][..]);
        // Custom AKID != the real issuer key id.
        assert_ne!(
            custom.akid_key_id().unwrap(),
            key_identifier(&root_kp.public)
        );
        // But the signature still verifies (KID mismatch is metadata only).
        assert!(custom.verify_signature_with(&root_kp.public));
    }

    #[test]
    fn corrupt_signature_fails_verification() {
        let kp = KeyPair::from_seed(group(), b"root-4");
        let cert = CertificateBuilder::ca_profile(DistinguishedName::cn("Root 4"))
            .corrupt_signature(true)
            .self_signed(&kp);
        assert!(cert.is_self_issued());
        assert!(!cert.is_self_signed());
        assert!(!cert.verify_signature_with(&kp.public));
    }

    #[test]
    fn wrong_signer_with_matching_metadata() {
        // AKID points at the legitimate issuer, but the actual signature is
        // from an imposter key: DN and KID match, crypto does not.
        let real_kp = KeyPair::from_seed(group(), b"real-ca");
        let imposter_kp = KeyPair::from_seed(group(), b"imposter");
        let leaf_kp = KeyPair::from_seed(group(), b"leaf-5");
        let issuer_dn = DistinguishedName::cn("Real CA");

        let cert = CertificateBuilder::leaf_profile("victim.sim").build(
            &leaf_kp.public,
            issuer_dn,
            &imposter_kp.private,
            &real_kp.public, // AKID source
        );
        assert_eq!(cert.akid_key_id().unwrap(), key_identifier(&real_kp.public));
        assert!(!cert.verify_signature_with(&real_kp.public));
        assert!(cert.verify_signature_with(&imposter_kp.public));
    }

    #[test]
    fn leaf_profile_fields() {
        let kp = KeyPair::from_seed(group(), b"leaf-6");
        let ca_kp = KeyPair::from_seed(group(), b"ca-6");
        let leaf = CertificateBuilder::leaf_profile("www.example.sim").issued_by(
            &kp.public,
            DistinguishedName::cn("CA 6"),
            &ca_kp,
        );
        assert!(!leaf.is_ca());
        assert_eq!(
            leaf.san().unwrap().dns_names().collect::<Vec<_>>(),
            vec!["www.example.sim"]
        );
        assert!(leaf.eku().unwrap().allows_server_auth());
        assert!(leaf.key_usage().unwrap().digital_signature);
        assert!(!leaf.key_usage().unwrap().key_cert_sign);
        assert_eq!(leaf.subject().common_name(), Some("www.example.sim"));
    }

    #[test]
    fn serial_is_deterministic_and_custom_serial_respected() {
        let kp = KeyPair::from_seed(group(), b"root-7");
        let a = CertificateBuilder::ca_profile(DistinguishedName::cn("R7")).self_signed(&kp);
        let b = CertificateBuilder::ca_profile(DistinguishedName::cn("R7")).self_signed(&kp);
        assert_eq!(a, b, "same inputs must produce identical certificates");

        let c = CertificateBuilder::ca_profile(DistinguishedName::cn("R7"))
            .serial(vec![1, 2, 3])
            .self_signed(&kp);
        assert_eq!(c.serial(), &[1, 2, 3]);
        assert_ne!(a, c);
    }

    #[test]
    fn validity_is_respected() {
        let kp = KeyPair::from_seed(group(), b"root-8");
        let nb = Time::from_ymd(2020, 6, 1).unwrap();
        let na = Time::from_ymd(2021, 6, 1).unwrap();
        let cert = CertificateBuilder::ca_profile(DistinguishedName::cn("R8"))
            .validity(nb, na)
            .self_signed(&kp);
        assert_eq!(cert.validity().not_before, nb);
        assert_eq!(cert.validity().not_after, na);
        assert!(cert
            .validity()
            .contains(Time::from_ymd(2020, 12, 1).unwrap()));
        assert!(!cert
            .validity()
            .contains(Time::from_ymd(2022, 1, 1).unwrap()));
    }

    #[test]
    fn signature_is_labelled_with_the_signing_key_algorithm() {
        let issuer = KeyPair::from_seed(Group::rfc3526_1536(), b"ca-10");
        let subject = KeyPair::from_seed(group(), b"leaf-10");
        let cert = CertificateBuilder::leaf_profile("mixed.sim").issued_by(
            &subject.public,
            DistinguishedName::cn("CA 10"),
            &issuer,
        );
        // The TBS's signature algorithm follows its version and serial;
        // the outer one follows the TBS.
        let (_, body) = Parser::new(cert.to_der()).read_any().unwrap();
        let mut body = Parser::new(body);
        let (_, tbs) = body.read_any().unwrap();
        let mut tbs = Parser::new(tbs);
        tbs.read_any().unwrap();
        tbs.read_any().unwrap();
        let rfc3526 = KeyAlgorithm::SchnorrRfc3526.signature_oid();
        assert_eq!(read_algorithm(&mut tbs), Ok(rfc3526));
        assert_eq!(read_algorithm(&mut body), Ok(rfc3526));

        let decoded = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(decoded.public_key(), &subject.public);
        assert!(decoded.verify_signature_with(&issuer.public));
    }

    #[test]
    fn aia_uri_roundtrip() {
        let kp = KeyPair::from_seed(group(), b"root-9");
        let ca_kp = KeyPair::from_seed(group(), b"ca-9");
        let cert = CertificateBuilder::leaf_profile("aia.sim")
            .aia_ca_issuers("http://aia.sim/ca9.crt")
            .issued_by(&kp.public, DistinguishedName::cn("CA 9"), &ca_kp);
        let reparsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(
            reparsed.aia_ca_issuers_uri(),
            Some("http://aia.sim/ca9.crt")
        );
    }
}
