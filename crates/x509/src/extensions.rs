//! X.509 v3 extensions relevant to chain construction.

use ccc_asn1::{oids, Encoder, Error, Oid, Parser, Result as DerResult, Tag};
use std::fmt;

/// BasicConstraints (RFC 5280 §4.2.1.9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BasicConstraints {
    /// Whether the subject is a CA.
    pub ca: bool,
    /// Maximum number of intermediate certificates that may follow this
    /// one in a valid path (only meaningful when `ca` is true).
    pub path_len: Option<u32>,
}

impl BasicConstraints {
    /// A CA with unlimited path length.
    pub fn ca() -> BasicConstraints {
        BasicConstraints {
            ca: true,
            path_len: None,
        }
    }

    /// A CA with a specific path length constraint.
    pub fn ca_with_path_len(path_len: u32) -> BasicConstraints {
        BasicConstraints {
            ca: true,
            path_len: Some(path_len),
        }
    }

    /// A non-CA (end entity).
    pub fn end_entity() -> BasicConstraints {
        BasicConstraints {
            ca: false,
            path_len: None,
        }
    }

    /// Write the inner DER value.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|s| {
            if self.ca {
                s.boolean(true); // cA DEFAULT FALSE
            }
            if let Some(n) = self.path_len {
                s.integer_i64(n as i64);
            }
        });
    }

    /// Decode inner DER value.
    pub fn decode_value(value: &[u8]) -> DerResult<BasicConstraints> {
        let mut p = Parser::new(value);
        let bc = p.sequence(|s| {
            let ca = if !s.is_done() && s.peek_tag()? == Tag::BOOLEAN {
                s.boolean()?
            } else {
                false
            };
            let path_len = if !s.is_done() && s.peek_tag()? == Tag::INTEGER {
                let v = s.integer_i64()?;
                if v < 0 {
                    return Err(Error::InvalidValue("negative pathLenConstraint"));
                }
                Some(v.min(u32::MAX as i64) as u32)
            } else {
                None
            };
            Ok(BasicConstraints { ca, path_len })
        })?;
        p.expect_done()?;
        Ok(bc)
    }
}

/// KeyUsage bits (RFC 5280 §4.2.1.3), named-bit order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct KeyUsage {
    /// Bit 0.
    pub digital_signature: bool,
    /// Bit 1 (contentCommitment / nonRepudiation).
    pub content_commitment: bool,
    /// Bit 2.
    pub key_encipherment: bool,
    /// Bit 3.
    pub data_encipherment: bool,
    /// Bit 4.
    pub key_agreement: bool,
    /// Bit 5 — the bit that matters for chain building: may sign certs.
    pub key_cert_sign: bool,
    /// Bit 6.
    pub crl_sign: bool,
}

impl KeyUsage {
    /// Typical CA usage: keyCertSign + cRLSign.
    pub fn ca() -> KeyUsage {
        KeyUsage {
            key_cert_sign: true,
            crl_sign: true,
            ..Default::default()
        }
    }

    /// Typical TLS server leaf usage.
    pub fn tls_server() -> KeyUsage {
        KeyUsage {
            digital_signature: true,
            key_encipherment: true,
            ..Default::default()
        }
    }

    /// A usage set that is *wrong* for an issuing CA (no keyCertSign) —
    /// used by the paper's KeyUsage-priority test case.
    pub fn no_cert_sign() -> KeyUsage {
        KeyUsage {
            digital_signature: true,
            ..Default::default()
        }
    }

    fn bits(&self) -> [bool; 7] {
        [
            self.digital_signature,
            self.content_commitment,
            self.key_encipherment,
            self.data_encipherment,
            self.key_agreement,
            self.key_cert_sign,
            self.crl_sign,
        ]
    }

    /// Write the inner DER value (named BIT STRING).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.bit_string_named(&self.bits());
    }

    /// Decode inner DER value.
    pub fn decode_value(value: &[u8]) -> DerResult<KeyUsage> {
        let mut p = Parser::new(value);
        let (unused, data) = p.bit_string()?;
        p.expect_done()?;
        let bit = |i: usize| -> bool {
            if i / 8 >= data.len() {
                return false;
            }
            // Respect unused bits in the final octet.
            if i / 8 == data.len() - 1 && (i % 8) >= 8 - unused as usize {
                return false;
            }
            data[i / 8] & (0x80 >> (i % 8)) != 0
        };
        Ok(KeyUsage {
            digital_signature: bit(0),
            content_commitment: bit(1),
            key_encipherment: bit(2),
            data_encipherment: bit(3),
            key_agreement: bit(4),
            key_cert_sign: bit(5),
            crl_sign: bit(6),
        })
    }
}

/// Extended key usage: a list of purpose OIDs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExtendedKeyUsage {
    /// Each purpose OID's content octets, in order: the one OID a decoded
    /// certificate keeps, so it owns them. Only [`Self::server_auth`] and
    /// [`Self::decode_value`] fill it, so each entry is a checked OID.
    purposes: Vec<Box<[u8]>>,
}

impl ExtendedKeyUsage {
    /// serverAuth only (typical TLS leaf).
    pub fn server_auth() -> ExtendedKeyUsage {
        ExtendedKeyUsage {
            purposes: vec![oids::KP_SERVER_AUTH.as_bytes().into()],
        }
    }

    /// Whether serverAuth is present.
    pub fn allows_server_auth(&self) -> bool {
        let server_auth = oids::KP_SERVER_AUTH.as_bytes();
        self.purposes.iter().any(|p| **p == *server_auth)
    }

    /// Write the inner DER value.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|s| {
            for p in &self.purposes {
                s.write_tlv(Tag::OID, p);
            }
        });
    }

    /// Decode inner DER value.
    pub fn decode_value(value: &[u8]) -> DerResult<ExtendedKeyUsage> {
        let mut p = Parser::new(value);
        let purposes = p.sequence(|s| {
            let mut v = Vec::new();
            while !s.is_done() {
                v.push(s.oid()?.as_bytes().into());
            }
            Ok(v)
        })?;
        p.expect_done()?;
        Ok(ExtendedKeyUsage { purposes })
    }
}

/// A GeneralName subset: DNS names and IP addresses (what the paper's leaf
/// classification needs), plus URIs (for AIA locations).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum GeneralName {
    /// dNSName (context tag 2).
    Dns(String),
    /// uniformResourceIdentifier (context tag 6).
    Uri(String),
    /// iPAddress (context tag 7): 4 (IPv4) or 16 (IPv6) raw bytes.
    Ip(Vec<u8>),
}

impl GeneralName {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            GeneralName::Dns(name) => enc.write_tlv(Tag::context(2), name.as_bytes()),
            GeneralName::Uri(uri) => enc.write_tlv(Tag::context(6), uri.as_bytes()),
            GeneralName::Ip(bytes) => enc.write_tlv(Tag::context(7), bytes),
        }
    }

    fn decode(parser: &mut Parser<'_>) -> DerResult<GeneralName> {
        let (tag, content) = parser.read_any()?;
        match (tag.class, tag.number) {
            (ccc_asn1::Class::ContextSpecific, 2) => Ok(GeneralName::Dns(
                std::str::from_utf8(content)
                    .map_err(|_| Error::InvalidValue("non-UTF8 dNSName"))?
                    .to_string(),
            )),
            (ccc_asn1::Class::ContextSpecific, 6) => Ok(GeneralName::Uri(
                std::str::from_utf8(content)
                    .map_err(|_| Error::InvalidValue("non-UTF8 URI"))?
                    .to_string(),
            )),
            (ccc_asn1::Class::ContextSpecific, 7) => {
                if content.len() != 4 && content.len() != 16 {
                    return Err(Error::InvalidValue("iPAddress must be 4 or 16 bytes"));
                }
                Ok(GeneralName::Ip(content.to_vec()))
            }
            _ => Err(Error::InvalidValue("unsupported GeneralName choice")),
        }
    }
}

impl fmt::Display for GeneralName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneralName::Dns(d) => write!(f, "DNS:{d}"),
            GeneralName::Uri(u) => write!(f, "URI:{u}"),
            GeneralName::Ip(b) if b.len() == 4 => {
                write!(f, "IP:{}.{}.{}.{}", b[0], b[1], b[2], b[3])
            }
            GeneralName::Ip(b) => {
                write!(f, "IP:")?;
                for (i, chunk) in b.chunks(2).enumerate() {
                    if i > 0 {
                        write!(f, ":")?;
                    }
                    write!(f, "{:02x}{:02x}", chunk[0], chunk.get(1).unwrap_or(&0))?;
                }
                Ok(())
            }
        }
    }
}

/// SubjectAltName: a list of general names.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SubjectAltName {
    /// Names in order.
    pub names: Vec<GeneralName>,
}

impl SubjectAltName {
    /// SAN with DNS entries.
    pub fn dns(names: &[&str]) -> SubjectAltName {
        SubjectAltName {
            names: names
                .iter()
                .map(|n| GeneralName::Dns(n.to_string()))
                .collect(),
        }
    }

    /// All DNS names.
    pub fn dns_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().filter_map(|n| match n {
            GeneralName::Dns(d) => Some(d.as_str()),
            _ => None,
        })
    }

    /// Write the inner DER value.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|s| {
            for n in &self.names {
                n.encode(s);
            }
        });
    }

    /// Decode inner DER value.
    pub fn decode_value(value: &[u8]) -> DerResult<SubjectAltName> {
        let mut p = Parser::new(value);
        let names = p.sequence(|s| {
            let mut v = Vec::new();
            while !s.is_done() {
                v.push(GeneralName::decode(s)?);
            }
            Ok(v)
        })?;
        p.expect_done()?;
        Ok(SubjectAltName { names })
    }
}

/// AuthorityKeyIdentifier (keyIdentifier form only, which is what Web PKI
/// CAs emit and what the paper's KID-matching rule uses).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AuthorityKeyIdentifier {
    /// The issuer's subject key identifier bytes, if present.
    pub key_id: Option<Vec<u8>>,
}

impl AuthorityKeyIdentifier {
    /// Write the inner DER value.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|s| {
            if let Some(kid) = &self.key_id {
                s.write_tlv(Tag::context(0), kid);
            }
        });
    }

    /// Decode inner DER value. Ignores the (rare) issuer+serial form fields.
    pub fn decode_value(value: &[u8]) -> DerResult<AuthorityKeyIdentifier> {
        let mut p = Parser::new(value);
        let akid = p.sequence(|s| {
            let mut key_id = None;
            while !s.is_done() {
                let (tag, content) = s.read_any()?;
                if tag.class == ccc_asn1::Class::ContextSpecific && tag.number == 0 {
                    key_id = Some(content.to_vec());
                }
                // [1]/[2] (authorityCertIssuer/SerialNumber) skipped.
            }
            Ok(AuthorityKeyIdentifier { key_id })
        })?;
        p.expect_done()?;
        Ok(akid)
    }
}

/// Access method for an AIA AccessDescription.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessMethod {
    /// id-ad-caIssuers: where to fetch the issuer certificate.
    CaIssuers,
    /// id-ad-ocsp.
    Ocsp,
}

impl AccessMethod {
    fn oid(self) -> Oid<'static> {
        match self {
            AccessMethod::CaIssuers => oids::AD_CA_ISSUERS,
            AccessMethod::Ocsp => oids::AD_OCSP,
        }
    }
}

/// One AIA AccessDescription.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AccessDescription {
    /// Access method.
    pub method: AccessMethod,
    /// Location URI.
    pub location: String,
}

/// AuthorityInformationAccess: a list of access descriptions.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AuthorityInfoAccess {
    /// Descriptions in order.
    pub descriptions: Vec<AccessDescription>,
}

impl AuthorityInfoAccess {
    /// An AIA with one caIssuers URI.
    pub fn ca_issuers(uri: impl Into<String>) -> AuthorityInfoAccess {
        AuthorityInfoAccess {
            descriptions: vec![AccessDescription {
                method: AccessMethod::CaIssuers,
                location: uri.into(),
            }],
        }
    }

    /// The first caIssuers URI, if any.
    pub fn ca_issuers_uri(&self) -> Option<&str> {
        self.descriptions
            .iter()
            .find(|d| d.method == AccessMethod::CaIssuers)
            .map(|d| d.location.as_str())
    }

    /// Write the inner DER value.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|s| {
            for d in &self.descriptions {
                s.sequence(|ad| {
                    ad.oid(d.method.oid());
                    ad.write_tlv(Tag::context(6), d.location.as_bytes());
                });
            }
        });
    }

    /// Decode inner DER value. Unknown access methods are skipped.
    pub fn decode_value(value: &[u8]) -> DerResult<AuthorityInfoAccess> {
        let mut p = Parser::new(value);
        let descriptions = p.sequence(|s| {
            let mut v = Vec::new();
            while !s.is_done() {
                s.sequence(|ad| {
                    let oid = ad.oid()?;
                    let (tag, content) = ad.read_any()?;
                    if tag.class != ccc_asn1::Class::ContextSpecific || tag.number != 6 {
                        // Non-URI location: tolerated and skipped.
                        return Ok(());
                    }
                    let location = std::str::from_utf8(content)
                        .map_err(|_| Error::InvalidValue("non-UTF8 AIA URI"))?
                        .to_string();
                    let method = match oid {
                        oids::AD_CA_ISSUERS => AccessMethod::CaIssuers,
                        oids::AD_OCSP => AccessMethod::Ocsp,
                        _ => return Ok(()),
                    };
                    v.push(AccessDescription { method, location });
                    Ok(())
                })?;
            }
            Ok(v)
        })?;
        p.expect_done()?;
        Ok(AuthorityInfoAccess { descriptions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DER that `encode` writes.
    fn der(encode: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut enc = Encoder::new();
        encode(&mut enc);
        enc.finish()
    }

    #[test]
    fn basic_constraints_roundtrip() {
        for bc in [
            BasicConstraints::ca(),
            BasicConstraints::ca_with_path_len(0),
            BasicConstraints::ca_with_path_len(3),
            BasicConstraints::end_entity(),
        ] {
            let v = der(|e| bc.encode(e));
            assert_eq!(BasicConstraints::decode_value(&v).unwrap(), bc);
        }
    }

    #[test]
    fn basic_constraints_empty_sequence_is_end_entity() {
        // SEQUENCE {} — cA defaults to FALSE.
        let v = vec![0x30, 0x00];
        let bc = BasicConstraints::decode_value(&v).unwrap();
        assert!(!bc.ca);
        assert_eq!(bc.path_len, None);
    }

    #[test]
    fn key_usage_roundtrip() {
        for ku in [
            KeyUsage::ca(),
            KeyUsage::tls_server(),
            KeyUsage::no_cert_sign(),
            KeyUsage::default(),
        ] {
            let v = der(|e| ku.encode(e));
            assert_eq!(KeyUsage::decode_value(&v).unwrap(), ku, "{ku:?}");
        }
    }

    #[test]
    fn key_usage_ca_has_cert_sign() {
        assert!(KeyUsage::ca().key_cert_sign);
        assert!(!KeyUsage::no_cert_sign().key_cert_sign);
    }

    #[test]
    fn san_roundtrip() {
        let san = SubjectAltName {
            names: vec![
                GeneralName::Dns("example.com".into()),
                GeneralName::Dns("*.example.com".into()),
                GeneralName::Ip(vec![192, 0, 2, 1]),
            ],
        };
        let v = der(|e| san.encode(e));
        assert_eq!(SubjectAltName::decode_value(&v).unwrap(), san);
        assert_eq!(
            san.dns_names().collect::<Vec<_>>(),
            vec!["example.com", "*.example.com"]
        );
    }

    #[test]
    fn san_rejects_bad_ip_len() {
        let san = SubjectAltName {
            names: vec![GeneralName::Ip(vec![1, 2, 3])],
        };
        let v = der(|e| san.encode(e));
        assert!(SubjectAltName::decode_value(&v).is_err());
    }

    #[test]
    fn akid_roundtrip() {
        let akid = AuthorityKeyIdentifier {
            key_id: Some(vec![1, 2, 3, 4]),
        };
        let v = der(|e| akid.encode(e));
        assert_eq!(AuthorityKeyIdentifier::decode_value(&v).unwrap(), akid);

        let empty = AuthorityKeyIdentifier { key_id: None };
        let v = der(|e| empty.encode(e));
        assert_eq!(AuthorityKeyIdentifier::decode_value(&v).unwrap(), empty);
    }

    #[test]
    fn aia_roundtrip() {
        let aia = AuthorityInfoAccess {
            descriptions: vec![
                AccessDescription {
                    method: AccessMethod::Ocsp,
                    location: "http://ocsp.sim/".into(),
                },
                AccessDescription {
                    method: AccessMethod::CaIssuers,
                    location: "http://aia.sim/issuer.crt".into(),
                },
            ],
        };
        let v = der(|e| aia.encode(e));
        let decoded = AuthorityInfoAccess::decode_value(&v).unwrap();
        assert_eq!(decoded, aia);
        assert_eq!(decoded.ca_issuers_uri(), Some("http://aia.sim/issuer.crt"));
    }

    #[test]
    fn eku_roundtrip() {
        let eku = ExtendedKeyUsage::server_auth();
        let v = der(|e| eku.encode(e));
        let decoded = ExtendedKeyUsage::decode_value(&v).unwrap();
        assert_eq!(decoded, eku);
        assert!(decoded.allows_server_auth());
    }

    #[test]
    fn general_name_display() {
        assert_eq!(GeneralName::Dns("a.b".into()).to_string(), "DNS:a.b");
        assert_eq!(
            GeneralName::Ip(vec![10, 0, 0, 1]).to_string(),
            "IP:10.0.0.1"
        );
        assert_eq!(
            GeneralName::Uri("http://x/".into()).to_string(),
            "URI:http://x/"
        );
    }
}
