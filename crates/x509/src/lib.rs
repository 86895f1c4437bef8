//! X.509 v3 certificates for the chain-chaos synthetic Web PKI.
//!
//! Implements the RFC 5280 certificate profile subset that matters for
//! certificate *chain construction*: distinguished names, validity,
//! SubjectPublicKeyInfo, and the chain-relevant extensions (Subject
//! Alternative Name, Subject/Authority Key Identifier, Authority Information
//! Access, Basic Constraints, Key Usage, Extended Key Usage). Certificates
//! round-trip through real DER via `ccc-asn1` and carry real Schnorr
//! signatures via `ccc-crypto`.
//!
//! The [`builder::CertificateBuilder`] is the rcgen-equivalent used by the
//! test-chain and corpus generators; it deliberately supports *malformed*
//! outputs (absent/mismatched key identifiers, wrong path lengths, corrupt
//! signatures) because the paper's test cases require them.

pub mod builder;
pub mod cert;
pub mod error;
pub mod extensions;
pub mod fphash;
pub mod name;
pub mod pem;
pub mod spki;

pub use builder::{key_identifier, CertificateBuilder, KidMode};
pub use cert::{Certificate, CertificateFingerprint, Validity};
pub use error::X509Error;
pub use extensions::{
    AccessDescription, AccessMethod, AuthorityInfoAccess, AuthorityKeyIdentifier, BasicConstraints,
    ExtendedKeyUsage, GeneralName, KeyUsage, SubjectAltName,
};
pub use fphash::{FingerprintBuildHasher, FingerprintMap, FingerprintSet};
pub use name::DistinguishedName;
pub use pem::PemError;
pub use spki::{KeyAlgorithm, SubjectPublicKeyInfo};
