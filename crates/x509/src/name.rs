//! X.501 distinguished names (the RDNSequence subset with one attribute per
//! RDN, which is what Web PKI certificates use in practice).

use ccc_asn1::{oids, Encoder, Error, Oid, Parser, Result as DerResult, Tag};
use std::fmt;

/// A distinguished name, held as the checked content octets of its
/// RDNSequence.
///
/// Each RDN is a SET holding one attribute: commonName (CN), countryName
/// (C), organizationName (O) or organizationalUnitName (OU), with a
/// UTF8String, PrintableString or IA5String value. A value is made only
/// by [`DistinguishedName::cn`], [`DistinguishedName::cn_o`] or
/// [`DistinguishedName::decode`], so holding one proves its octets were
/// checked. The empty name holds no octets.
///
/// Equality is byte equality, which is how chain builders compare
/// `issuer` and `subject` fields (RFC 5280 name comparison is
/// case-insensitive in theory, but implementations overwhelmingly compare
/// the DER encodings — and so does the paper's issuance-relationship
/// rule). DER lengths are minimal, so two names that read as the same
/// attributes differ only if some value's string tag does: a CN written
/// as a PrintableString is not equal to the same CN written as a
/// UTF8String. Every name this tool builds writes UTF8String.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct DistinguishedName {
    content: Vec<u8>,
}

impl DistinguishedName {
    /// The empty DN (legal: some real leaf certificates have empty
    /// subjects, carrying identity in SAN only).
    pub fn empty() -> DistinguishedName {
        DistinguishedName::default()
    }

    /// A DN with just a common name.
    pub fn cn(common_name: impl AsRef<str>) -> DistinguishedName {
        DistinguishedName::from_attributes(&[(oids::COMMON_NAME, common_name.as_ref())])
    }

    /// A DN with common name and organization (typical CA subject shape).
    pub fn cn_o(common_name: impl AsRef<str>, org: impl AsRef<str>) -> DistinguishedName {
        DistinguishedName::from_attributes(&[
            (oids::COUNTRY_NAME, "SC"),
            (oids::ORGANIZATION_NAME, org.as_ref()),
            (oids::COMMON_NAME, common_name.as_ref()),
        ])
    }

    /// One RDN per attribute, each value a UTF8String.
    fn from_attributes(attributes: &[(Oid<'static>, &str)]) -> DistinguishedName {
        // An attribute's three headers and its OID take at most 24 octets
        // for any value under 4 GiB.
        let capacity = attributes.iter().map(|(_, v)| v.len() + 24).sum();
        let mut enc = Encoder::with_capacity(capacity);
        for &(ty, value) in attributes {
            enc.set(|set| {
                set.sequence(|attr| {
                    attr.oid(ty);
                    attr.utf8_string(value);
                })
            });
        }
        DistinguishedName {
            content: enc.finish(),
        }
    }

    /// The (label, value) attributes in order.
    fn rdns(&self) -> impl Iterator<Item = (&'static str, &str)> {
        let mut rdns = Parser::new(&self.content);
        std::iter::from_fn(move || {
            (!rdns.is_done())
                .then(|| read_attribute(&mut rdns).expect("checked when the name was made"))
        })
    }

    /// The first commonName value, if any.
    pub fn common_name(&self) -> Option<&str> {
        self.rdns()
            .find(|&(label, _)| label == "CN")
            .map(|(_, value)| value)
    }

    /// True when the DN has no attributes.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// Encode as an RDNSequence.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.write_tlv(Tag::SEQUENCE, &self.content);
    }

    /// Decode an RDNSequence. Each RDN must be a SET holding one attribute
    /// SEQUENCE, and each attribute a supported type with a string value;
    /// other attribute types are an error (the synthetic universe only
    /// emits the supported four).
    pub fn decode(parser: &mut Parser<'_>) -> DerResult<DistinguishedName> {
        let content = parser.read_expected(Tag::SEQUENCE)?;
        let mut rdns = Parser::new(content);
        while !rdns.is_done() {
            read_attribute(&mut rdns)?;
        }
        Ok(DistinguishedName {
            content: content.to_vec(),
        })
    }
}

/// Read one RDN, a SET holding one attribute SEQUENCE, and return the
/// attribute's label and value. The type is checked after the value is
/// read, and both before anything after the value is.
fn read_attribute<'a>(rdns: &mut Parser<'a>) -> DerResult<(&'static str, &'a str)> {
    rdns.set(|set| {
        set.sequence(|attr| {
            let ty = attr.oid()?;
            let value = attr.any_string()?;
            let label = match ty {
                oids::COMMON_NAME => "CN",
                oids::COUNTRY_NAME => "C",
                oids::ORGANIZATION_NAME => "O",
                oids::ORGANIZATIONAL_UNIT_NAME => "OU",
                _ => return Err(Error::InvalidValue("unsupported DN attribute type")),
            };
            Ok((label, value))
        })
    })
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "<empty>");
        }
        for (i, (label, value)) in self.rdns().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{label}={value}")?;
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
        let dn = DistinguishedName::cn_o("Example CA", "Example Trust Services");
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
    fn decodes_and_displays_every_supported_attribute() {
        let mut enc = Encoder::new();
        enc.sequence(|seq| {
            for (ty, value) in [
                (oids::COUNTRY_NAME, "SC"),
                (oids::ORGANIZATION_NAME, "Example Trust Services"),
                (oids::ORGANIZATIONAL_UNIT_NAME, "Issuing"),
                (oids::COMMON_NAME, "Example CA"),
            ] {
                seq.set(|set| {
                    set.sequence(|attr| {
                        attr.oid(ty);
                        attr.utf8_string(value);
                    })
                });
            }
        });
        let der = enc.finish();
        let dn = DistinguishedName::decode(&mut Parser::new(&der)).unwrap();
        assert_eq!(
            dn.to_string(),
            "C=SC, O=Example Trust Services, OU=Issuing, CN=Example CA"
        );
        assert_eq!(dn.common_name(), Some("Example CA"));
        assert_eq!(to_der(&dn), der);
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

    #[test]
    fn string_tag_is_part_of_equality() {
        let cn_as = |tag| {
            let mut enc = Encoder::new();
            enc.sequence(|seq| seq.set(|set| attribute(set, oids::COMMON_NAME, tag, b"Example")));
            let der = enc.finish();
            DistinguishedName::decode(&mut Parser::new(&der)).unwrap()
        };
        let (printable, utf8) = (cn_as(Tag::PRINTABLE_STRING), cn_as(Tag::UTF8_STRING));
        assert_eq!(printable.to_string(), utf8.to_string());
        assert_ne!(printable, utf8);
        assert_eq!(utf8, DistinguishedName::cn("Example"));
    }

    /// The decoder that read an RDNSequence into (type, value) pairs when
    /// names were held as pairs, with each type as its label: the reference
    /// `decode`, `Display` and `common_name` are checked against.
    fn reference_pairs(parser: &mut Parser<'_>) -> DerResult<Vec<(&'static str, String)>> {
        let mut attributes = Vec::new();
        parser.sequence(|rdn_seq| {
            while !rdn_seq.is_done() {
                rdn_seq.set(|set| {
                    set.sequence(|attr| {
                        let oid = attr.oid()?;
                        let value = attr.any_string()?.to_string();
                        let label = match oid {
                            oids::COMMON_NAME => "CN",
                            oids::COUNTRY_NAME => "C",
                            oids::ORGANIZATION_NAME => "O",
                            oids::ORGANIZATIONAL_UNIT_NAME => "OU",
                            _ => return Err(Error::InvalidValue("unsupported DN attribute type")),
                        };
                        attributes.push((label, value));
                        Ok(())
                    })
                })?;
            }
            Ok(())
        })?;
        Ok(attributes)
    }

    fn reference_display(pairs: &[(&str, String)]) -> String {
        if pairs.is_empty() {
            return "<empty>".to_string();
        }
        let pairs: Vec<String> = pairs.iter().map(|(l, v)| format!("{l}={v}")).collect();
        pairs.join(", ")
    }

    fn attribute(enc: &mut Encoder, ty: Oid<'_>, tag: Tag, value: &[u8]) {
        enc.sequence(|attr| {
            attr.oid(ty);
            attr.write_tlv(tag, value);
        });
    }

    /// Append one RDN drawn from `draw`. Its remainder mod 10 picks the
    /// shape: a supported attribute (0 to 4), serialNumber, an INTEGER value,
    /// invalid UTF-8, two attributes in one SET, or an attribute SEQUENCE
    /// with no SET around it. Higher bits pick the type among CN, C, O and
    /// OU, the string tag among UTF8String, PrintableString and IA5String,
    /// and a value of 0 to 140 bytes, so that lengths of 128 and more take
    /// the long form.
    fn push_rdn(enc: &mut Encoder, draw: u32) {
        let serial_number = Oid::from_content(&[0x55, 0x04, 0x05]).unwrap();
        let types = [
            oids::COMMON_NAME,
            oids::COUNTRY_NAME,
            oids::ORGANIZATION_NAME,
            oids::ORGANIZATIONAL_UNIT_NAME,
        ];
        let tags = [Tag::UTF8_STRING, Tag::PRINTABLE_STRING, Tag::IA5_STRING];
        let ty = types[(draw >> 3) as usize % 4];
        let tag = tags[(draw >> 5) as usize % 3];
        let value: Vec<u8> = (0..(draw >> 7) as usize % 141)
            .map(|i| b'a' + ((draw >> 16) as usize + i) as u8 % 26)
            .collect();
        match draw % 10 {
            0..=4 => enc.set(|set| attribute(set, ty, tag, &value)),
            5 => enc.set(|set| attribute(set, serial_number, tag, &value)),
            6 => enc.set(|set| attribute(set, ty, Tag::INTEGER, &[0x01])),
            7 => enc.set(|set| attribute(set, ty, tag, &[b'x', 0xff])),
            8 => enc.set(|set| {
                attribute(set, ty, tag, &value);
                attribute(set, oids::COMMON_NAME, tag, b"second");
            }),
            _ => attribute(enc, ty, tag, &value),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        #[test]
        fn decoder_agrees_with_the_pair_reference(
            rdns in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..5),
            damage in 0u8..4,
            edits in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..5)
        ) {
            let mut enc = Encoder::new();
            enc.sequence(|seq| rdns.iter().for_each(|&draw| push_rdn(seq, draw)));
            let mut der = enc.finish();
            // Half the cases truncate the encoding or overwrite one to
            // four of its octets.
            match damage {
                2 => der.truncate(edits[0] as usize % der.len()),
                3 => {
                    for &edit in &edits {
                        let at = (edit >> 8) as usize % der.len();
                        der[at] = edit as u8;
                    }
                }
                _ => {}
            }
            let (mut parser, mut reference) = (Parser::new(&der), Parser::new(&der));
            match (DistinguishedName::decode(&mut parser), reference_pairs(&mut reference)) {
                (Ok(dn), Ok(pairs)) => {
                    proptest::prop_assert_eq!(parser.remaining(), reference.remaining());
                    proptest::prop_assert_eq!(dn.to_string(), reference_display(&pairs));
                    let cn = pairs.iter().find(|(l, _)| *l == "CN").map(|(_, v)| v.as_str());
                    proptest::prop_assert_eq!(dn.common_name(), cn);
                    let read = &der[..der.len() - parser.remaining()];
                    proptest::prop_assert_eq!(to_der(&dn), read);
                }
                (Err(got), Err(want)) => proptest::prop_assert_eq!(got, want),
                (got, want) => {
                    proptest::prop_assert!(false, "decoder {:?}, reference {:?}", got, want)
                }
            }
        }
    }
}
