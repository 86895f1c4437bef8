//! OBJECT IDENTIFIER values, held as their DER content octets, and the
//! OIDs chain-chaos uses.

use crate::{Error, Result};
use std::fmt;

/// An OBJECT IDENTIFIER, held as its DER content octets.
///
/// DER gives each OID exactly one encoding, so two OIDs are equal exactly
/// when their octets are, and the constants in [`oids`] work as `match`
/// patterns. A value is made only from octets [`Oid::from_content`]
/// accepted or from one of those constants, so holding one proves its
/// octets were checked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Oid<'a>(&'a [u8]);

impl<'a> Oid<'a> {
    /// Check content octets and borrow them as an OID. Each arc is written
    /// base 128, most significant group first, with the high bit set on
    /// every octet but its last. Rejects, in the order the octets are
    /// read: empty content, an arc whose first octet is `0x80`
    /// (non-minimal), an arc wider than 64 bits, and a last arc whose final
    /// octet has its high bit set (truncated).
    pub fn from_content(content: &'a [u8]) -> Result<Oid<'a>> {
        if content.is_empty() {
            return Err(Error::InvalidValue("empty OID"));
        }
        // The arc read so far, and whether the next octet starts an arc.
        let (mut value, mut starts_arc) = (0u64, true);
        for &b in content {
            if starts_arc && b == 0x80 {
                return Err(Error::InvalidValue("non-minimal OID arc"));
            }
            // Shifting drops the top seven bits, so an arc wider than
            // 64 bits must be caught before they are lost.
            if value > u64::MAX >> 7 {
                return Err(Error::InvalidValue("OID arc overflow"));
            }
            value = (value << 7) | u64::from(b & 0x7f);
            starts_arc = b & 0x80 == 0;
            if starts_arc {
                value = 0;
            }
        }
        if !starts_arc {
            return Err(Error::InvalidValue("truncated OID arc"));
        }
        Ok(Oid(content))
    }

    /// The content octets.
    pub const fn as_bytes(self) -> &'a [u8] {
        self.0
    }
}

/// Dotted decimal. The first base-128 value holds the first two arcs as
/// `40·a + b`, where `a` is at most 2.
impl fmt::Display for Oid<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut value, mut first) = (0u64, true);
        for &b in self.0 {
            value = (value << 7) | u64::from(b & 0x7f);
            if b & 0x80 != 0 {
                continue;
            }
            if first {
                let a = (value / 40).min(2);
                write!(f, "{a}.{}", value - 40 * a)?;
                first = false;
            } else {
                write!(f, ".{value}")?;
            }
            value = 0;
        }
        Ok(())
    }
}

/// Well-known OIDs used by the X.509 layer.
pub mod oids {
    use super::Oid;

    /// id-at-commonName (2.5.4.3).
    pub const COMMON_NAME: Oid<'static> = Oid(&[0x55, 0x04, 0x03]);
    /// id-at-countryName (2.5.4.6).
    pub const COUNTRY_NAME: Oid<'static> = Oid(&[0x55, 0x04, 0x06]);
    /// id-at-organizationName (2.5.4.10).
    pub const ORGANIZATION_NAME: Oid<'static> = Oid(&[0x55, 0x04, 0x0a]);
    /// id-at-organizationalUnitName (2.5.4.11).
    pub const ORGANIZATIONAL_UNIT_NAME: Oid<'static> = Oid(&[0x55, 0x04, 0x0b]);

    /// id-ce-subjectKeyIdentifier (2.5.29.14).
    pub const SUBJECT_KEY_IDENTIFIER: Oid<'static> = Oid(&[0x55, 0x1d, 0x0e]);
    /// id-ce-keyUsage (2.5.29.15).
    pub const KEY_USAGE: Oid<'static> = Oid(&[0x55, 0x1d, 0x0f]);
    /// id-ce-subjectAltName (2.5.29.17).
    pub const SUBJECT_ALT_NAME: Oid<'static> = Oid(&[0x55, 0x1d, 0x11]);
    /// id-ce-basicConstraints (2.5.29.19).
    pub const BASIC_CONSTRAINTS: Oid<'static> = Oid(&[0x55, 0x1d, 0x13]);
    /// id-ce-authorityKeyIdentifier (2.5.29.35).
    pub const AUTHORITY_KEY_IDENTIFIER: Oid<'static> = Oid(&[0x55, 0x1d, 0x23]);
    /// id-ce-extKeyUsage (2.5.29.37).
    pub const EXT_KEY_USAGE: Oid<'static> = Oid(&[0x55, 0x1d, 0x25]);

    /// id-pe-authorityInfoAccess (1.3.6.1.5.5.7.1.1).
    pub const AUTHORITY_INFO_ACCESS: Oid<'static> =
        Oid(&[0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x01, 0x01]);
    /// id-ad-ocsp (1.3.6.1.5.5.7.48.1).
    pub const AD_OCSP: Oid<'static> = Oid(&[0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x30, 0x01]);
    /// id-ad-caIssuers (1.3.6.1.5.5.7.48.2).
    pub const AD_CA_ISSUERS: Oid<'static> = Oid(&[0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x30, 0x02]);
    /// id-kp-serverAuth (1.3.6.1.5.5.7.3.1).
    pub const KP_SERVER_AUTH: Oid<'static> = Oid(&[0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x03, 0x01]);

    // chain-chaos private arc (1.3.6.1.4.1.59999.*) for the synthetic
    // Schnorr algorithm identifiers; 59999 is an unassigned-looking PEN used
    // only inside this simulation, written `83 d4 5f`.
    /// Schnorr public key over the 256-bit simulation group
    /// (1.3.6.1.4.1.59999.1.1).
    pub const SCHNORR_SIM256_KEY: Oid<'static> =
        Oid(&[0x2b, 0x06, 0x01, 0x04, 0x01, 0x83, 0xd4, 0x5f, 0x01, 0x01]);
    /// Schnorr public key over the RFC 3526 1536-bit group
    /// (1.3.6.1.4.1.59999.1.2).
    pub const SCHNORR_RFC3526_KEY: Oid<'static> =
        Oid(&[0x2b, 0x06, 0x01, 0x04, 0x01, 0x83, 0xd4, 0x5f, 0x01, 0x02]);
    /// SHA-256-Schnorr signature algorithm, sim-256 group
    /// (1.3.6.1.4.1.59999.2.1).
    pub const SCHNORR_SIM256_SIG: Oid<'static> =
        Oid(&[0x2b, 0x06, 0x01, 0x04, 0x01, 0x83, 0xd4, 0x5f, 0x02, 0x01]);
    /// SHA-256-Schnorr signature algorithm, RFC 3526 group
    /// (1.3.6.1.4.1.59999.2.2).
    pub const SCHNORR_RFC3526_SIG: Oid<'static> =
        Oid(&[0x2b, 0x06, 0x01, 0x04, 0x01, 0x83, 0xd4, 0x5f, 0x02, 0x02]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, Parser};

    fn encode(oid: Oid<'_>) -> Vec<u8> {
        let mut e = Encoder::new();
        e.oid(oid);
        e.finish()
    }

    #[test]
    fn encode_known_oid() {
        // 1.2.840.113549 → 2a 86 48 86 f7 0d
        let content = [0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d];
        let oid = Oid::from_content(&content).unwrap();
        assert_eq!(oid.to_string(), "1.2.840.113549");
        assert_eq!(encode(oid), [&[0x06, 0x06][..], &content].concat());
    }

    #[test]
    fn roundtrip() {
        for (content, dotted) in [
            (&[0x55, 0x04, 0x03][..], "2.5.4.3"),
            (
                &[0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x01, 0x01],
                "1.3.6.1.5.5.7.1.1",
            ),
            (&[0x55, 0x1d, 0x23], "2.5.29.35"),
            (
                &[0x2b, 0x06, 0x01, 0x04, 0x01, 0x83, 0xd4, 0x5f, 0x02, 0x01],
                "1.3.6.1.4.1.59999.2.1",
            ),
            // First arc 2 allows a second arc of 40 or more: 80 + 999.
            (&[0x88, 0x37, 0x03], "2.999.3"),
        ] {
            let der = encode(Oid::from_content(content).unwrap());
            let dec = Parser::new(&der).oid().unwrap();
            assert_eq!(dec.as_bytes(), content);
            assert_eq!(dec.to_string(), dotted);
        }
    }

    #[test]
    fn constants_are_their_documented_oids() {
        for (oid, dotted) in [
            (oids::COMMON_NAME, "2.5.4.3"),
            (oids::COUNTRY_NAME, "2.5.4.6"),
            (oids::ORGANIZATION_NAME, "2.5.4.10"),
            (oids::ORGANIZATIONAL_UNIT_NAME, "2.5.4.11"),
            (oids::SUBJECT_KEY_IDENTIFIER, "2.5.29.14"),
            (oids::KEY_USAGE, "2.5.29.15"),
            (oids::SUBJECT_ALT_NAME, "2.5.29.17"),
            (oids::BASIC_CONSTRAINTS, "2.5.29.19"),
            (oids::AUTHORITY_KEY_IDENTIFIER, "2.5.29.35"),
            (oids::EXT_KEY_USAGE, "2.5.29.37"),
            (oids::AUTHORITY_INFO_ACCESS, "1.3.6.1.5.5.7.1.1"),
            (oids::AD_OCSP, "1.3.6.1.5.5.7.48.1"),
            (oids::AD_CA_ISSUERS, "1.3.6.1.5.5.7.48.2"),
            (oids::KP_SERVER_AUTH, "1.3.6.1.5.5.7.3.1"),
            (oids::SCHNORR_SIM256_KEY, "1.3.6.1.4.1.59999.1.1"),
            (oids::SCHNORR_RFC3526_KEY, "1.3.6.1.4.1.59999.1.2"),
            (oids::SCHNORR_SIM256_SIG, "1.3.6.1.4.1.59999.2.1"),
            (oids::SCHNORR_RFC3526_SIG, "1.3.6.1.4.1.59999.2.2"),
        ] {
            assert_eq!(Oid::from_content(oid.as_bytes()), Ok(oid), "{dotted}");
            assert_eq!(
                dotted_arcs(&reference_arcs(oid.as_bytes()).unwrap()),
                dotted
            );
            assert_eq!(oid.to_string(), dotted);
        }
    }

    #[test]
    fn decode_rejects_empty_and_nonminimal() {
        let invalid = |what| Err(Error::InvalidValue(what));
        assert_eq!(Oid::from_content(&[]), invalid("empty OID"));
        // Leading 0x80 in an arc is non-minimal.
        assert_eq!(
            Oid::from_content(&[0x2a, 0x80, 0x01]),
            invalid("non-minimal OID arc")
        );
        // Truncated continuation.
        assert_eq!(
            Oid::from_content(&[0x2a, 0x86]),
            invalid("truncated OID arc")
        );
        // 2.5.29.(2^77 + 14), which once wrapped to
        // id-ce-subjectKeyIdentifier.
        let mut wide = vec![0x55, 0x1d, 0x81];
        wide.extend_from_slice(&[0x80; 10]);
        wide.push(0x0e);
        assert_eq!(Oid::from_content(&wide), invalid("OID arc overflow"));
        // A first subidentifier of 2^77 + 14, which once wrapped to 0.14.
        assert_eq!(Oid::from_content(&wide[2..]), invalid("OID arc overflow"));
        // An arc of u64::MAX fits.
        let mut max = vec![0x2a, 0x81];
        max.extend_from_slice(&[0xff; 8]);
        max.push(0x7f);
        let oid = Oid::from_content(&max).unwrap();
        assert_eq!(oid.to_string(), format!("1.2.{}", u64::MAX));
    }

    /// The decoder that turned content octets into arcs when OIDs were
    /// held as arcs: the reference `from_content` and `Display` are
    /// checked against.
    fn reference_arcs(content: &[u8]) -> Result<Vec<u64>> {
        if content.is_empty() {
            return Err(Error::InvalidValue("empty OID"));
        }
        let mut arcs = Vec::new();
        let mut iter = content.iter().copied().peekable();
        let mut first = true;
        while iter.peek().is_some() {
            let mut value: u64 = 0;
            let mut any = false;
            loop {
                let b = iter
                    .next()
                    .ok_or(Error::InvalidValue("truncated OID arc"))?;
                if !any && b == 0x80 {
                    return Err(Error::InvalidValue("non-minimal OID arc"));
                }
                any = true;
                if value > u64::MAX >> 7 {
                    return Err(Error::InvalidValue("OID arc overflow"));
                }
                value = (value << 7) | u64::from(b & 0x7f);
                if b & 0x80 == 0 {
                    break;
                }
            }
            if first {
                let (a, b) = if value < 40 {
                    (0, value)
                } else if value < 80 {
                    (1, value - 40)
                } else {
                    (2, value - 80)
                };
                arcs.push(a);
                arcs.push(b);
                first = false;
            } else {
                arcs.push(value);
            }
        }
        Ok(arcs)
    }

    fn dotted_arcs(arcs: &[u64]) -> String {
        let arcs: Vec<String> = arcs.iter().map(u64::to_string).collect();
        arcs.join(".")
    }

    /// One content octet from a draw below 512: half the draws give an
    /// octet from the whole range, half one of the octets that start,
    /// continue or end an arc at its edges, so that continuation runs and
    /// arcs wider than 64 bits occur.
    fn octet(draw: u16) -> u8 {
        match draw {
            0..=255 => draw as u8,
            _ => [0x80, 0x81, 0xff, 0x7f][usize::from(draw % 4)],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        #[test]
        fn decoder_agrees_with_the_arc_reference(
            draws in proptest::collection::vec(0u16..512, 0..25)
        ) {
            let content: Vec<u8> = draws.iter().copied().map(octet).collect();
            match (Oid::from_content(&content), reference_arcs(&content)) {
                (Ok(oid), Ok(arcs)) => {
                    proptest::prop_assert_eq!(oid.to_string(), dotted_arcs(&arcs))
                }
                (Err(got), Err(want)) => proptest::prop_assert_eq!(got, want),
                (got, want) => {
                    proptest::prop_assert!(false, "decoder {:?}, reference {:?}", got, want)
                }
            }
        }
    }
}
