//! OBJECT IDENTIFIER values and the OID registry used by chain-chaos.

use crate::{Error, Result};
use std::fmt;

/// An object identifier (sequence of arcs).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Oid(Vec<u64>);

impl Oid {
    /// Build from arcs. Panics if fewer than two arcs or the first two arcs
    /// are out of range (first must be 0..=2; second < 40 when first < 2).
    pub fn new(arcs: &[u64]) -> Oid {
        assert!(arcs.len() >= 2, "OID needs at least two arcs");
        assert!(arcs[0] <= 2, "first OID arc must be 0, 1 or 2");
        if arcs[0] < 2 {
            assert!(arcs[1] < 40, "second OID arc must be < 40 for roots 0/1");
        }
        Oid(arcs.to_vec())
    }

    /// The arcs.
    pub fn arcs(&self) -> &[u64] {
        &self.0
    }

    /// Decode from content octets.
    pub fn decode_content(content: &[u8]) -> Result<Oid> {
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
                // Shifting drops the top seven bits, so an arc wider than
                // 64 bits must be caught before they are lost.
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
        Ok(Oid(arcs))
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

/// Well-known OIDs used by the X.509 layer.
pub mod oids {
    use super::Oid;
    use std::sync::OnceLock;

    macro_rules! oid_const {
        ($(#[$doc:meta])* $name:ident, $($arc:literal),+) => {
            $(#[$doc])*
            pub fn $name() -> &'static Oid {
                static O: OnceLock<Oid> = OnceLock::new();
                O.get_or_init(|| Oid::new(&[$($arc),+]))
            }
        };
    }

    oid_const!(/// id-at-commonName (2.5.4.3).
        common_name, 2, 5, 4, 3);
    oid_const!(/// id-at-countryName (2.5.4.6).
        country_name, 2, 5, 4, 6);
    oid_const!(/// id-at-organizationName (2.5.4.10).
        organization_name, 2, 5, 4, 10);
    oid_const!(/// id-at-organizationalUnitName (2.5.4.11).
        organizational_unit_name, 2, 5, 4, 11);

    oid_const!(/// id-ce-subjectKeyIdentifier (2.5.29.14).
        subject_key_identifier, 2, 5, 29, 14);
    oid_const!(/// id-ce-keyUsage (2.5.29.15).
        key_usage, 2, 5, 29, 15);
    oid_const!(/// id-ce-subjectAltName (2.5.29.17).
        subject_alt_name, 2, 5, 29, 17);
    oid_const!(/// id-ce-basicConstraints (2.5.29.19).
        basic_constraints, 2, 5, 29, 19);
    oid_const!(/// id-ce-authorityKeyIdentifier (2.5.29.35).
        authority_key_identifier, 2, 5, 29, 35);
    oid_const!(/// id-ce-extKeyUsage (2.5.29.37).
        ext_key_usage, 2, 5, 29, 37);

    oid_const!(/// id-pe-authorityInfoAccess (1.3.6.1.5.5.7.1.1).
        authority_info_access, 1, 3, 6, 1, 5, 5, 7, 1, 1);
    oid_const!(/// id-ad-ocsp (1.3.6.1.5.5.7.48.1).
        ad_ocsp, 1, 3, 6, 1, 5, 5, 7, 48, 1);
    oid_const!(/// id-ad-caIssuers (1.3.6.1.5.5.7.48.2).
        ad_ca_issuers, 1, 3, 6, 1, 5, 5, 7, 48, 2);
    oid_const!(/// id-kp-serverAuth (1.3.6.1.5.5.7.3.1).
        kp_server_auth, 1, 3, 6, 1, 5, 5, 7, 3, 1);
    oid_const!(/// id-kp-clientAuth (1.3.6.1.5.5.7.3.2).
        kp_client_auth, 1, 3, 6, 1, 5, 5, 7, 3, 2);

    // chain-chaos private arc (1.3.6.1.4.1.59999.*) for the synthetic
    // Schnorr algorithm identifiers; 59999 is an unassigned-looking PEN used
    // only inside this simulation.
    oid_const!(/// Schnorr public key over the 256-bit simulation group.
        schnorr_sim256_key, 1, 3, 6, 1, 4, 1, 59999, 1, 1);
    oid_const!(/// Schnorr public key over the RFC 3526 1536-bit group.
        schnorr_rfc3526_key, 1, 3, 6, 1, 4, 1, 59999, 1, 2);
    oid_const!(/// SHA-256-Schnorr signature algorithm (sim-256 group).
        schnorr_sim256_sig, 1, 3, 6, 1, 4, 1, 59999, 2, 1);
    oid_const!(/// SHA-256-Schnorr signature algorithm (RFC 3526 group).
        schnorr_rfc3526_sig, 1, 3, 6, 1, 4, 1, 59999, 2, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, Parser};

    fn encode(oid: &Oid) -> Vec<u8> {
        let mut e = Encoder::new();
        e.oid(oid);
        e.finish()
    }

    #[test]
    fn encode_known_oid() {
        // 1.2.840.113549 → 2a 86 48 86 f7 0d
        assert_eq!(
            encode(&Oid::new(&[1, 2, 840, 113549])),
            vec![0x06, 0x06, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d]
        );
    }

    #[test]
    fn roundtrip() {
        for arcs in [
            vec![2u64, 5, 4, 3],
            vec![1, 3, 6, 1, 5, 5, 7, 1, 1],
            vec![2, 5, 29, 35],
            vec![1, 3, 6, 1, 4, 1, 59999, 2, 1],
            vec![2, 999, 3], // first arc 2 allows second >= 40
        ] {
            let der = encode(&Oid::new(&arcs));
            let dec = Parser::new(&der).oid().unwrap();
            assert_eq!(dec.arcs(), arcs.as_slice());
        }
    }

    #[test]
    fn display() {
        assert_eq!(Oid::new(&[2, 5, 29, 14]).to_string(), "2.5.29.14");
    }

    #[test]
    fn decode_rejects_empty_and_nonminimal() {
        assert!(Oid::decode_content(&[]).is_err());
        // Leading 0x80 in an arc is non-minimal.
        assert!(Oid::decode_content(&[0x2a, 0x80, 0x01]).is_err());
        // Truncated continuation.
        assert!(Oid::decode_content(&[0x2a, 0x86]).is_err());
        // 2.5.29.(2^77 + 14), which wrapped to id-ce-subjectKeyIdentifier.
        let mut wide = vec![0x55, 0x1d, 0x81];
        wide.extend_from_slice(&[0x80; 10]);
        wide.push(0x0e);
        assert!(Oid::decode_content(&wide).is_err());
        // A first subidentifier of 2^77 + 14, which wrapped to 0.14.
        assert!(Oid::decode_content(&wide[2..]).is_err());
        // An arc of u64::MAX fits.
        let mut max = vec![0x2a, 0x81];
        max.extend_from_slice(&[0xff; 8]);
        max.push(0x7f);
        let oid = Oid::decode_content(&max).unwrap();
        assert_eq!(oid.arcs(), &[1, 2, u64::MAX]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_single_arc() {
        let _ = Oid::new(&[1]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_bad_second_arc() {
        let _ = Oid::new(&[0, 40]);
    }
}
