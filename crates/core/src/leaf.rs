//! Leaf certificate placement classification (paper §3.1 / Table 3).

use ccc_x509::{Certificate, GeneralName};

/// Placement classes from the paper's Table 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LeafPlacement {
    /// First certificate's CN/SAN matches the queried domain.
    CorrectlyPlacedMatched,
    /// First certificate is domain/IP-shaped but does not match.
    CorrectlyPlacedMismatched,
    /// A later certificate matches the domain.
    IncorrectlyPlacedMatched,
    /// A later certificate is domain/IP-shaped (none matches).
    IncorrectlyPlacedMismatched,
    /// No certificate is even domain/IP-shaped (test certs, empty CNs…).
    Other,
}

impl LeafPlacement {
    /// Every class, in Table 3 row order.
    pub const ALL: [LeafPlacement; 5] = [
        LeafPlacement::CorrectlyPlacedMatched,
        LeafPlacement::CorrectlyPlacedMismatched,
        LeafPlacement::IncorrectlyPlacedMatched,
        LeafPlacement::IncorrectlyPlacedMismatched,
        LeafPlacement::Other,
    ];

    /// Paper table row label.
    pub fn label(&self) -> &'static str {
        match self {
            LeafPlacement::CorrectlyPlacedMatched => "Correctly Placed and Matched",
            LeafPlacement::CorrectlyPlacedMismatched => "Correctly Placed but Mismatched",
            LeafPlacement::IncorrectlyPlacedMatched => "Incorrectly Placed but Matched",
            LeafPlacement::IncorrectlyPlacedMismatched => "Incorrectly Placed and Mismatched",
            LeafPlacement::Other => "Other",
        }
    }

    /// Whether this class counts as leaf-placement compliant.
    pub fn is_compliant(&self) -> bool {
        matches!(
            self,
            LeafPlacement::CorrectlyPlacedMatched | LeafPlacement::CorrectlyPlacedMismatched
        )
    }
}

/// Whether `test` holds for any identity string of a certificate: its CN,
/// then its SAN DNS names and IPv4 addresses, in order.
fn any_identity(cert: &Certificate, mut test: impl FnMut(&str) -> bool) -> bool {
    if cert.subject().common_name().is_some_and(&mut test) {
        return true;
    }
    cert.san().is_some_and(|san| {
        san.names.iter().any(|name| match name {
            GeneralName::Dns(d) => test(d),
            GeneralName::Ip(b) if b.len() == 4 => {
                test(&format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3]))
            }
            GeneralName::Ip(_) | GeneralName::Uri(_) => false,
        })
    })
}

/// Case-insensitive hostname match with single-label wildcard support
/// (`*.example.com` matches `www.example.com` but not `example.com` or
/// `a.b.example.com`). Only ASCII letters fold.
pub fn hostname_matches(pattern: &str, domain: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match domain.split_once('.') {
            Some((first_label, rest)) => {
                !first_label.is_empty() && rest.eq_ignore_ascii_case(suffix)
            }
            None => false,
        }
    } else {
        pattern.eq_ignore_ascii_case(domain)
    }
}

/// Heuristic: does `s` look like a DNS domain name? (letters/digits/
/// hyphens, at least one dot, no spaces, labels non-empty; a leading `*.`
/// wildcard is allowed.)
pub fn is_domain_like(s: &str) -> bool {
    let s = s.strip_prefix("*.").unwrap_or(s);
    if s.is_empty() || !s.contains('.') {
        return false;
    }
    s.split('.').all(|label| {
        !label.is_empty()
            && label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

/// Heuristic: is `s` a dotted-decimal IPv4 address? Four labels, each of
/// 1–3 ASCII digits with a value of at most 255 and no leading zero unless
/// the label is `0`: the form `inet_pton` accepts, so neither `+1` nor
/// `001` is an octet.
pub fn is_ip_like(s: &str) -> bool {
    let mut labels = 0;
    s.split('.').all(|label| {
        labels += 1;
        let digits = label.as_bytes();
        labels <= 4
            && (1..=3).contains(&digits.len())
            && (digits[0] != b'0' || digits.len() == 1)
            && digits.iter().all(u8::is_ascii_digit)
            && digits.iter().fold(0, |v, d| v * 10 + u32::from(d - b'0')) <= 255
    }) && labels == 4
}

/// Does this certificate cover `domain`? SAN DNS entries are authoritative
/// when present; otherwise the CN is consulted (legacy behaviour).
pub fn cert_covers_domain(cert: &Certificate, domain: &str) -> bool {
    if let Some(san) = cert.san() {
        if san.names.iter().any(|n| matches!(n, GeneralName::Dns(_))) {
            return san
                .dns_names()
                .any(|pattern| hostname_matches(pattern, domain));
        }
    }
    cert.subject()
        .common_name()
        .map(|cn| hostname_matches(cn, domain))
        .unwrap_or(false)
}

fn cert_matches_domain(cert: &Certificate, domain: &str) -> bool {
    any_identity(cert, |id| hostname_matches(id, domain))
}

fn cert_is_host_shaped(cert: &Certificate) -> bool {
    any_identity(cert, |id| is_domain_like(id) || is_ip_like(id))
}

/// Classify the leaf placement of a served list for `domain` (Table 3).
pub fn classify_leaf_placement(domain: &str, served: &[Certificate]) -> LeafPlacement {
    let Some(first) = served.first() else {
        return LeafPlacement::Other;
    };
    if cert_matches_domain(first, domain) {
        return LeafPlacement::CorrectlyPlacedMatched;
    }
    if cert_is_host_shaped(first) {
        return LeafPlacement::CorrectlyPlacedMismatched;
    }
    // First cert is not host-shaped: look deeper in the list.
    let rest = &served[1..];
    if rest.iter().any(|c| cert_matches_domain(c, domain)) {
        return LeafPlacement::IncorrectlyPlacedMatched;
    }
    if rest.iter().any(cert_is_host_shaped) {
        return LeafPlacement::IncorrectlyPlacedMismatched;
    }
    LeafPlacement::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName, SubjectAltName};

    fn leaf_for(domain: &str, seed: &[u8]) -> Certificate {
        let g = Group::simulation_256();
        let kp = KeyPair::from_seed(g, seed);
        CertificateBuilder::leaf_profile(domain).self_signed(&kp)
    }

    fn weird_cert(cn: &str, seed: &[u8]) -> Certificate {
        let g = Group::simulation_256();
        let kp = KeyPair::from_seed(g, seed);
        CertificateBuilder::new(DistinguishedName::cn(cn)).self_signed(&kp)
    }

    #[test]
    fn hostname_matching() {
        assert!(hostname_matches("example.com", "example.com"));
        assert!(hostname_matches("EXAMPLE.com", "example.COM"));
        assert!(hostname_matches("*.example.com", "www.example.com"));
        assert!(!hostname_matches("*.example.com", "example.com"));
        assert!(!hostname_matches("*.example.com", "a.b.example.com"));
        assert!(!hostname_matches("other.com", "example.com"));
        assert!(hostname_matches("*.EXAMPLE.com", "WWW.example.COM"));
        // Only ASCII folds: É and é stay different.
        assert!(!hostname_matches("É.sim", "é.sim"));
    }

    #[test]
    fn shape_heuristics() {
        assert!(is_domain_like("example.com"));
        assert!(is_domain_like("*.example.co.uk"));
        assert!(!is_domain_like("localhost"));
        assert!(!is_domain_like("Plesk"));
        assert!(!is_domain_like("SophosApplianceCertificate_abc")); // no dot
        assert!(!is_domain_like(""));
        assert!(is_ip_like("192.0.2.1"));
        assert!(is_ip_like("0.0.0.0"));
        assert!(is_ip_like("255.255.255.255"));
        assert!(!is_ip_like("192.0.2.999"));
        assert!(!is_ip_like("example.com"));
        // Only the form inet_pton accepts: no sign, no leading zero, four
        // non-empty labels of at most 255.
        for not_ipv4 in [
            "+1.+2.+3.+4",
            "001.02.3.4",
            "1.2.3.04",
            "256.1.1.1",
            "1.2.3",
            "1.2.3.4.5",
            "1..3.4",
        ] {
            assert!(!is_ip_like(not_ipv4), "{not_ipv4}");
        }
    }

    #[test]
    fn signed_octets_are_not_host_shaped() {
        // `+1` parses as a u8, but a CN of signed labels is neither a
        // hostname nor an address.
        let served = vec![weird_cert("+1.+2.+3.+4", b"lp-10")];
        assert_eq!(
            classify_leaf_placement("query.sim", &served),
            LeafPlacement::Other
        );
    }

    #[test]
    fn correctly_placed_matched() {
        let served = vec![leaf_for("good.sim", b"lp-1")];
        assert_eq!(
            classify_leaf_placement("good.sim", &served),
            LeafPlacement::CorrectlyPlacedMatched
        );
    }

    #[test]
    fn ipv4_san_matches_its_address() {
        let kp = KeyPair::from_seed(Group::simulation_256(), b"lp-ip");
        let ip = SubjectAltName {
            names: vec![GeneralName::Ip(vec![192, 0, 2, 1])],
        };
        let served = vec![CertificateBuilder::new(DistinguishedName::empty())
            .san(Some(ip))
            .self_signed(&kp)];
        assert_eq!(
            classify_leaf_placement("192.0.2.1", &served),
            LeafPlacement::CorrectlyPlacedMatched
        );
    }

    #[test]
    fn wildcard_match_counts() {
        let served = vec![leaf_for("*.wild.sim", b"lp-2")];
        assert_eq!(
            classify_leaf_placement("www.wild.sim", &served),
            LeafPlacement::CorrectlyPlacedMatched
        );
    }

    #[test]
    fn correctly_placed_mismatched() {
        let served = vec![leaf_for("other.sim", b"lp-3")];
        assert_eq!(
            classify_leaf_placement("query.sim", &served),
            LeafPlacement::CorrectlyPlacedMismatched
        );
    }

    #[test]
    fn incorrectly_placed_matched() {
        // mot.gov.ps pattern: appliance cert first, matching cert later.
        let served = vec![
            weird_cert("SophosAppliance", b"lp-4"),
            leaf_for("mot.gov.sim", b"lp-5"),
        ];
        assert_eq!(
            classify_leaf_placement("mot.gov.sim", &served),
            LeafPlacement::IncorrectlyPlacedMatched
        );
    }

    #[test]
    fn incorrectly_placed_mismatched() {
        let served = vec![
            weird_cert("Appliance", b"lp-6"),
            leaf_for("elsewhere.sim", b"lp-7"),
        ];
        assert_eq!(
            classify_leaf_placement("query.sim", &served),
            LeafPlacement::IncorrectlyPlacedMismatched
        );
    }

    #[test]
    fn other_category() {
        let served = vec![
            weird_cert("Plesk", b"lp-8"),
            weird_cert("localhost", b"lp-9"),
        ];
        assert_eq!(
            classify_leaf_placement("query.sim", &served),
            LeafPlacement::Other
        );
        assert_eq!(
            classify_leaf_placement("query.sim", &[]),
            LeafPlacement::Other
        );
    }

    #[test]
    fn compliance_flags() {
        assert!(LeafPlacement::CorrectlyPlacedMatched.is_compliant());
        assert!(LeafPlacement::CorrectlyPlacedMismatched.is_compliant());
        assert!(!LeafPlacement::IncorrectlyPlacedMatched.is_compliant());
        assert!(!LeafPlacement::Other.is_compliant());
    }
}
