//! SubjectPublicKeyInfo for the synthetic Schnorr key algorithms.

use crate::X509Error;
use ccc_asn1::{oids, Encoder, Oid, Parser};
use ccc_crypto::schnorr::{Group, GroupId};
use ccc_crypto::PublicKey;

/// Supported public key algorithms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KeyAlgorithm {
    /// Schnorr over the 256-bit simulation group.
    SchnorrSim256,
    /// Schnorr over the RFC 3526 1536-bit group.
    SchnorrRfc3526,
}

impl KeyAlgorithm {
    /// The group backing this algorithm.
    pub fn group(self) -> &'static Group {
        match self {
            KeyAlgorithm::SchnorrSim256 => Group::simulation_256(),
            KeyAlgorithm::SchnorrRfc3526 => Group::rfc3526_1536(),
        }
    }

    /// From a group id.
    pub fn from_group(id: GroupId) -> KeyAlgorithm {
        match id {
            GroupId::Sim256 => KeyAlgorithm::SchnorrSim256,
            GroupId::Rfc3526_1536 => KeyAlgorithm::SchnorrRfc3526,
        }
    }

    /// Public key algorithm OID.
    pub fn key_oid(self) -> &'static Oid {
        match self {
            KeyAlgorithm::SchnorrSim256 => oids::schnorr_sim256_key(),
            KeyAlgorithm::SchnorrRfc3526 => oids::schnorr_rfc3526_key(),
        }
    }

    /// Signature algorithm OID (SHA-256 + Schnorr over the same group).
    pub fn signature_oid(self) -> &'static Oid {
        match self {
            KeyAlgorithm::SchnorrSim256 => oids::schnorr_sim256_sig(),
            KeyAlgorithm::SchnorrRfc3526 => oids::schnorr_rfc3526_sig(),
        }
    }

    /// Resolve a key algorithm from its OID.
    pub fn from_key_oid(oid: &Oid) -> Option<KeyAlgorithm> {
        if oid == oids::schnorr_sim256_key() {
            Some(KeyAlgorithm::SchnorrSim256)
        } else if oid == oids::schnorr_rfc3526_key() {
            Some(KeyAlgorithm::SchnorrRfc3526)
        } else {
            None
        }
    }

    /// Resolve a key algorithm from its signature OID.
    pub fn from_signature_oid(oid: &Oid) -> Option<KeyAlgorithm> {
        if oid == oids::schnorr_sim256_sig() {
            Some(KeyAlgorithm::SchnorrSim256)
        } else if oid == oids::schnorr_rfc3526_sig() {
            Some(KeyAlgorithm::SchnorrRfc3526)
        } else {
            None
        }
    }
}

/// A parsed SubjectPublicKeyInfo.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SubjectPublicKeyInfo {
    /// Key algorithm.
    pub algorithm: KeyAlgorithm,
    /// The public key.
    pub key: PublicKey,
}

impl SubjectPublicKeyInfo {
    /// Wrap a public key.
    pub fn new(key: PublicKey) -> SubjectPublicKeyInfo {
        SubjectPublicKeyInfo {
            algorithm: KeyAlgorithm::from_group(key.group_id()),
            key,
        }
    }

    /// Encode as the SPKI SEQUENCE.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|spki| {
            spki.sequence(|alg| {
                alg.oid(self.algorithm.key_oid());
                alg.null();
            });
            spki.bit_string(self.key.as_bytes());
        });
    }

    /// Decode from a parser positioned at the SPKI SEQUENCE.
    pub fn decode(parser: &mut Parser<'_>) -> Result<SubjectPublicKeyInfo, X509Error> {
        parser
            .sequence(|spki| {
                let algorithm = spki.sequence(|alg| {
                    let oid = alg.oid()?;
                    if !alg.is_done() {
                        alg.null()?;
                    }
                    Ok(oid)
                })?;
                let (unused, key_bytes) = spki.bit_string()?;
                if unused != 0 {
                    return Err(ccc_asn1::Error::InvalidValue("SPKI key with unused bits"));
                }
                Ok((algorithm, key_bytes.to_vec()))
            })
            .map_err(X509Error::from)
            .and_then(|(oid, key_bytes)| {
                let algorithm = KeyAlgorithm::from_key_oid(&oid)
                    .ok_or_else(|| X509Error::UnsupportedAlgorithm(oid.to_string()))?;
                let key = PublicKey::from_bytes(algorithm.group(), &key_bytes)
                    .ok_or(X509Error::InvalidKey)?;
                Ok(SubjectPublicKeyInfo { algorithm, key })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::KeyPair;

    #[test]
    fn roundtrip() {
        let kp = KeyPair::from_seed(Group::simulation_256(), b"spki-test");
        let spki = SubjectPublicKeyInfo::new(kp.public.clone());
        let mut enc = Encoder::new();
        spki.encode(&mut enc);
        let der = enc.finish();
        let mut p = Parser::new(&der);
        let decoded = SubjectPublicKeyInfo::decode(&mut p).unwrap();
        p.expect_done().unwrap();
        assert_eq!(decoded, spki);
        assert_eq!(decoded.algorithm, KeyAlgorithm::SchnorrSim256);
    }

    #[test]
    fn roundtrip_large_group() {
        let kp = KeyPair::from_seed(Group::rfc3526_1536(), b"spki-test-2");
        let spki = SubjectPublicKeyInfo::new(kp.public.clone());
        let mut enc = Encoder::new();
        spki.encode(&mut enc);
        let der = enc.finish();
        let mut p = Parser::new(&der);
        let decoded = SubjectPublicKeyInfo::decode(&mut p).unwrap();
        assert_eq!(decoded.algorithm, KeyAlgorithm::SchnorrRfc3526);
        assert_eq!(decoded.key, kp.public);
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let mut enc = Encoder::new();
        enc.sequence(|spki| {
            spki.sequence(|alg| {
                alg.oid(&ccc_asn1::Oid::new(&[1, 2, 840, 113549, 1, 1, 11]));
                alg.null();
            });
            spki.bit_string(&[0u8; 32]);
        });
        let der = enc.finish();
        let mut p = Parser::new(&der);
        match SubjectPublicKeyInfo::decode(&mut p) {
            Err(X509Error::UnsupportedAlgorithm(oid)) => {
                assert_eq!(oid, "1.2.840.113549.1.1.11");
            }
            other => panic!("expected UnsupportedAlgorithm, got {other:?}"),
        }
    }

    #[test]
    fn invalid_key_material_rejected() {
        let mut enc = Encoder::new();
        enc.sequence(|spki| {
            spki.sequence(|alg| {
                alg.oid(oids::schnorr_sim256_key());
                alg.null();
            });
            spki.bit_string(&[0u8; 32]); // y = 0: invalid
        });
        let der = enc.finish();
        let mut p = Parser::new(&der);
        assert_eq!(
            SubjectPublicKeyInfo::decode(&mut p).unwrap_err(),
            X509Error::InvalidKey
        );
    }

    #[test]
    fn signature_oid_mapping() {
        assert_eq!(
            KeyAlgorithm::from_signature_oid(oids::schnorr_sim256_sig()),
            Some(KeyAlgorithm::SchnorrSim256)
        );
        assert_eq!(
            KeyAlgorithm::from_signature_oid(oids::schnorr_sim256_key()),
            None
        );
    }
}
