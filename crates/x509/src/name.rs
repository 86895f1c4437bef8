//! X.501 distinguished names (the RDNSequence subset with one attribute per
//! RDN, which is what Web PKI certificates use in practice).

use ccc_asn1::{oids, Encoder, Error, Oid, Parser, Result as DerResult};
use std::fmt;

/// Attribute types supported in distinguished names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AttributeType {
    /// commonName (CN).
    CommonName,
    /// countryName (C).
    Country,
    /// organizationName (O).
    Organization,
    /// organizationalUnitName (OU).
    OrganizationalUnit,
}

impl AttributeType {
    /// The attribute's OID.
    pub fn oid(self) -> Oid<'static> {
        match self {
            AttributeType::CommonName => oids::COMMON_NAME,
            AttributeType::Country => oids::COUNTRY_NAME,
            AttributeType::Organization => oids::ORGANIZATION_NAME,
            AttributeType::OrganizationalUnit => oids::ORGANIZATIONAL_UNIT_NAME,
        }
    }

    /// Short display label ("CN", "C", "O", "OU").
    pub fn label(self) -> &'static str {
        match self {
            AttributeType::CommonName => "CN",
            AttributeType::Country => "C",
            AttributeType::Organization => "O",
            AttributeType::OrganizationalUnit => "OU",
        }
    }

    fn from_oid(oid: Oid<'_>) -> Option<AttributeType> {
        match oid {
            oids::COMMON_NAME => Some(AttributeType::CommonName),
            oids::COUNTRY_NAME => Some(AttributeType::Country),
            oids::ORGANIZATION_NAME => Some(AttributeType::Organization),
            oids::ORGANIZATIONAL_UNIT_NAME => Some(AttributeType::OrganizationalUnit),
            _ => None,
        }
    }
}

/// An ordered distinguished name: a list of (type, value) attributes.
///
/// Equality is byte-exact on type and value, matching how chain builders
/// compare `issuer` and `subject` fields (RFC 5280 name comparison is
/// case-insensitive in theory, but implementations overwhelmingly compare
/// the DER encodings — and so does the paper's issuance-relationship rule).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct DistinguishedName {
    attributes: Vec<(AttributeType, String)>,
}

impl DistinguishedName {
    /// The empty DN (legal: some real leaf certificates have empty
    /// subjects, carrying identity in SAN only).
    pub fn empty() -> DistinguishedName {
        DistinguishedName::default()
    }

    /// A DN with just a common name.
    pub fn cn(common_name: impl Into<String>) -> DistinguishedName {
        DistinguishedName {
            attributes: vec![(AttributeType::CommonName, common_name.into())],
        }
    }

    /// A DN with common name and organization (typical CA subject shape).
    pub fn cn_o(common_name: impl Into<String>, org: impl Into<String>) -> DistinguishedName {
        DistinguishedName {
            attributes: vec![
                (AttributeType::Country, "SC".to_string()),
                (AttributeType::Organization, org.into()),
                (AttributeType::CommonName, common_name.into()),
            ],
        }
    }

    /// Append an attribute.
    pub fn with(mut self, ty: AttributeType, value: impl Into<String>) -> DistinguishedName {
        self.attributes.push((ty, value.into()));
        self
    }

    /// All attributes in order.
    pub fn attributes(&self) -> &[(AttributeType, String)] {
        &self.attributes
    }

    /// The first commonName value, if any.
    pub fn common_name(&self) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(t, _)| *t == AttributeType::CommonName)
            .map(|(_, v)| v.as_str())
    }

    /// True when the DN has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Encode as an RDNSequence.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|rdn_seq| {
            for (ty, value) in &self.attributes {
                rdn_seq.set(|set| {
                    set.sequence(|attr| {
                        attr.oid(ty.oid());
                        attr.utf8_string(value);
                    });
                });
            }
        });
    }

    /// Decode an RDNSequence. Unknown attribute types are an error (the
    /// synthetic universe only emits the supported four).
    pub fn decode(parser: &mut Parser<'_>) -> DerResult<DistinguishedName> {
        let mut attributes = Vec::new();
        parser.sequence(|rdn_seq| {
            while !rdn_seq.is_done() {
                rdn_seq.set(|set| {
                    set.sequence(|attr| {
                        let oid = attr.oid()?;
                        let value = attr.any_string()?.to_string();
                        let ty = AttributeType::from_oid(oid)
                            .ok_or(Error::InvalidValue("unsupported DN attribute type"))?;
                        attributes.push((ty, value));
                        Ok(())
                    })
                })?;
            }
            Ok(())
        })?;
        Ok(DistinguishedName { attributes })
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attributes.is_empty() {
            return write!(f, "<empty>");
        }
        for (i, (ty, value)) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", ty.label(), value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_der(dn: &DistinguishedName) -> Vec<u8> {
        let mut enc = Encoder::new();
        dn.encode(&mut enc);
        enc.finish()
    }

    #[test]
    fn roundtrip() {
        let dn = DistinguishedName::cn_o("Example CA", "Example Trust Services")
            .with(AttributeType::OrganizationalUnit, "Issuing");
        let der = to_der(&dn);
        let mut p = Parser::new(&der);
        let decoded = DistinguishedName::decode(&mut p).unwrap();
        p.expect_done().unwrap();
        assert_eq!(decoded, dn);
    }

    #[test]
    fn empty_dn_roundtrip() {
        let dn = DistinguishedName::empty();
        let der = to_der(&dn);
        assert_eq!(der, vec![0x30, 0x00]);
        let mut p = Parser::new(&der);
        assert_eq!(DistinguishedName::decode(&mut p).unwrap(), dn);
    }

    #[test]
    fn display_format() {
        let dn = DistinguishedName::cn("example.com");
        assert_eq!(dn.to_string(), "CN=example.com");
        assert_eq!(DistinguishedName::empty().to_string(), "<empty>");
    }

    #[test]
    fn common_name_accessor() {
        let dn = DistinguishedName::cn_o("Root X1", "Test Org");
        assert_eq!(dn.common_name(), Some("Root X1"));
        assert_eq!(DistinguishedName::empty().common_name(), None);
    }

    #[test]
    fn equality_is_exact() {
        assert_ne!(
            DistinguishedName::cn("Example"),
            DistinguishedName::cn("example")
        );
        assert_ne!(
            DistinguishedName::cn("a"),
            DistinguishedName::cn_o("a", "b")
        );
    }
}
