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
    pub fn key_oid(self) -> Oid<'static> {
        match self {
            KeyAlgorithm::SchnorrSim256 => oids::SCHNORR_SIM256_KEY,
            KeyAlgorithm::SchnorrRfc3526 => oids::SCHNORR_RFC3526_KEY,
        }
    }

    /// Signature algorithm OID (SHA-256 + Schnorr over the same group).
    pub fn signature_oid(self) -> Oid<'static> {
        match self {
            KeyAlgorithm::SchnorrSim256 => oids::SCHNORR_SIM256_SIG,
            KeyAlgorithm::SchnorrRfc3526 => oids::SCHNORR_RFC3526_SIG,
        }
    }

    /// Resolve a key algorithm from its OID.
    pub fn from_key_oid(oid: Oid<'_>) -> Option<KeyAlgorithm> {
        match oid {
            oids::SCHNORR_SIM256_KEY => Some(KeyAlgorithm::SchnorrSim256),
            oids::SCHNORR_RFC3526_KEY => Some(KeyAlgorithm::SchnorrRfc3526),
            _ => None,
        }
    }

    /// Resolve a key algorithm from its signature OID.
    pub fn from_signature_oid(oid: Oid<'_>) -> Option<KeyAlgorithm> {
        match oid {
            oids::SCHNORR_SIM256_SIG => Some(KeyAlgorithm::SchnorrSim256),
            oids::SCHNORR_RFC3526_SIG => Some(KeyAlgorithm::SchnorrRfc3526),
            _ => None,
        }
    }
}

/// Write an AlgorithmIdentifier: `oid` with NULL parameters.
pub(crate) fn write_algorithm(enc: &mut Encoder, oid: Oid<'_>) {
    enc.sequence(|alg| {
        alg.oid(oid);
        alg.null();
    });
}

/// Read an AlgorithmIdentifier: its OID, then parameters that are absent
/// or NULL.
pub(crate) fn read_algorithm<'a>(parser: &mut Parser<'a>) -> ccc_asn1::Result<Oid<'a>> {
    parser.sequence(|alg| {
        let oid = alg.oid()?;
        if !alg.is_done() {
            alg.null()?;
        }
        Ok(oid)
    })
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
            write_algorithm(spki, self.algorithm.key_oid());
            spki.bit_string(self.key.as_bytes());
        });
    }

    /// Decode from a parser positioned at the SPKI SEQUENCE.
    pub fn decode(parser: &mut Parser<'_>) -> Result<SubjectPublicKeyInfo, X509Error> {
        parser
            .sequence(|spki| {
                let algorithm = read_algorithm(spki)?;
                let (unused, key_bytes) = spki.bit_string()?;
                if unused != 0 {
                    return Err(ccc_asn1::Error::InvalidValue("SPKI key with unused bits"));
                }
                Ok((algorithm, key_bytes))
            })
            .map_err(X509Error::from)
            .and_then(|(oid, key_bytes)| {
                let algorithm = KeyAlgorithm::from_key_oid(oid)
                    .ok_or_else(|| X509Error::UnsupportedAlgorithm(oid.to_string()))?;
                let key = PublicKey::from_bytes(algorithm.group(), key_bytes)
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
        // sha256WithRSAEncryption, 1.2.840.113549.1.1.11.
        let content = [0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x0b];
        enc.sequence(|spki| {
            write_algorithm(spki, Oid::from_content(&content).unwrap());
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
            write_algorithm(spki, oids::SCHNORR_SIM256_KEY);
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
            KeyAlgorithm::from_signature_oid(oids::SCHNORR_SIM256_SIG),
            Some(KeyAlgorithm::SchnorrSim256)
        );
        assert_eq!(
            KeyAlgorithm::from_signature_oid(oids::SCHNORR_SIM256_KEY),
            None
        );
    }
}
