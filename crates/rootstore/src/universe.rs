//! Deterministic synthetic CA universe.
//!
//! Substitutes for the real Web PKI CA population. Every experiment in
//! chain-chaos issues its certificates out of a [`CaUniverse`]: a set of
//! root CAs (trusted and untrusted), each with issuing intermediates
//! (including no-AKID variants and cross-signed twins), all published at
//! simulated AIA URIs.

use crate::program::RootProgram;
use ccc_asn1::Time;
use ccc_crypto::{Drbg, Group, KeyPair};
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName, KidMode};
use std::collections::HashMap;

/// Specification of one CA organization in the universe.
#[derive(Clone, Debug)]
pub struct CaSpec {
    /// Organization name, e.g. "Let's Encrypt Sim".
    pub name: String,
    /// Whether the root participates in any root program at all.
    pub trusted: bool,
    /// Programs that do NOT include this root (even when `trusted`).
    pub excluded_from: Vec<RootProgram>,
    /// Number of issuing intermediates under this root.
    pub intermediates: usize,
}

impl CaSpec {
    /// A trusted CA present in all programs.
    pub fn trusted(name: &str, intermediates: usize) -> CaSpec {
        CaSpec {
            name: name.to_string(),
            trusted: true,
            excluded_from: Vec::new(),
            intermediates,
        }
    }

    /// A trusted CA missing from some programs.
    pub fn partially_trusted(
        name: &str,
        intermediates: usize,
        excluded_from: Vec<RootProgram>,
    ) -> CaSpec {
        CaSpec {
            name: name.to_string(),
            trusted: true,
            excluded_from,
            intermediates,
        }
    }

    /// An untrusted (private / government-internal) root.
    pub fn untrusted(name: &str, intermediates: usize) -> CaSpec {
        CaSpec {
            name: name.to_string(),
            trusted: false,
            excluded_from: Vec::new(),
            intermediates,
        }
    }
}

/// A cross-signing relationship: the subject intermediate also receives a
/// certificate from a different root (same subject DN and key, different
/// issuer) — the mechanism behind the paper's "multiple paths" chains.
#[derive(Clone, Debug)]
pub struct CrossSignSpec {
    /// Index of the CA owning the subject intermediate.
    pub subject_ca: usize,
    /// Index of the intermediate within that CA.
    pub subject_intermediate: usize,
    /// Index of the CA whose root signs the cross certificate.
    pub issuer_ca: usize,
    /// Produce an *expired* cross certificate (the paper found 29 chains
    /// carrying expired cross-signed certs).
    pub expired: bool,
}

/// Universe generation parameters.
#[derive(Clone, Debug)]
pub struct UniverseSpec {
    /// Master seed; all keys and certificates derive from it.
    pub seed: u64,
    /// CA organizations.
    pub cas: Vec<CaSpec>,
    /// Cross-signing relationships.
    pub cross_signs: Vec<CrossSignSpec>,
}

impl UniverseSpec {
    /// The default universe used by the paper-reproduction experiments:
    /// eight CA organizations matching the paper's Table 11 population
    /// (Let's Encrypt, DigiCert, Sectigo, ZeroSSL, GoGetSSL, TAIWAN-CA,
    /// cyber_Folks, Trustico), three partially-excluded roots that drive
    /// the Table 8 store differences, and two untrusted roots for the
    /// irrelevant-certificate and backtracking scenarios.
    pub fn default_population(seed: u64) -> UniverseSpec {
        use RootProgram::*;
        UniverseSpec {
            seed,
            cas: vec![
                CaSpec::trusted("Let's Encrypt Sim", 3),
                CaSpec::trusted("DigiCert Sim", 3),
                CaSpec::trusted("Sectigo Sim", 3),
                CaSpec::trusted("ZeroSSL Sim", 2),
                CaSpec::trusted("GoGetSSL Sim", 2),
                CaSpec::trusted("TAIWAN-CA Sim", 2),
                CaSpec::trusted("cyber_Folks Sim", 2),
                CaSpec::trusted("Trustico Sim", 2),
                // The long tail of other commercial CAs (the corpus "Other
                // CAs" bucket).
                CaSpec::trusted("Commercial CA A Sim", 2),
                CaSpec::trusted("Commercial CA B Sim", 2),
                // Roots driving Table 8 per-store differences.
                CaSpec::partially_trusted("Regional Root Sim MZ", 1, vec![Mozilla, Chrome]),
                CaSpec::partially_trusted("Regional Root Sim MS", 1, vec![Microsoft]),
                CaSpec::partially_trusted("Regional Root Sim AP", 1, vec![Apple]),
                // Untrusted roots (government/internal).
                CaSpec::untrusted("Sim Gov Root", 2),
                CaSpec::untrusted("Sim Hidden Root", 1),
            ],
            cross_signs: vec![
                // Sectigo-style cross sign: GoGetSSL intermediate also
                // signed by DigiCert root.
                CrossSignSpec {
                    subject_ca: 2,
                    subject_intermediate: 0,
                    issuer_ca: 1,
                    expired: false,
                },
                CrossSignSpec {
                    subject_ca: 0,
                    subject_intermediate: 1,
                    issuer_ca: 2,
                    expired: false,
                },
                // An expired cross sign.
                CrossSignSpec {
                    subject_ca: 1,
                    subject_intermediate: 1,
                    issuer_ca: 0,
                    expired: true,
                },
                // Long-tail CA cross sign (drives the corpus "Other CAs"
                // multi-path population).
                CrossSignSpec {
                    subject_ca: 8,
                    subject_intermediate: 0,
                    issuer_ca: 9,
                    expired: false,
                },
            ],
        }
    }
}

/// An issuing (intermediate) CA.
#[derive(Clone, Debug)]
pub struct IssuingCa {
    /// CN of the intermediate.
    pub name: String,
    /// Key pair (needed to issue leaves).
    pub keypair: KeyPair,
    /// Certificate issued by the parent root, with AKID and AIA present.
    pub cert: Certificate,
    /// Variant of `cert` with the AKID extension absent (same subject and
    /// key): deployed by a fraction of servers, it makes the terminal
    /// intermediate unmatchable against root-store SKIDs without AIA —
    /// the mechanism behind the paper's Table 8 no-AIA incompleteness.
    pub cert_no_akid: Certificate,
    /// URI where `cert` is published for AIA completion.
    pub aia_uri: String,
    /// Index of the parent root within the universe.
    pub root_index: usize,
}

/// A root CA with its intermediates.
#[derive(Clone, Debug)]
pub struct RootCa {
    /// Organization name.
    pub name: String,
    /// Root key pair.
    pub keypair: KeyPair,
    /// Self-signed root certificate.
    pub cert: Certificate,
    /// Whether this root participates in root programs.
    pub trusted: bool,
    /// Programs excluding this root.
    pub excluded_from: Vec<RootProgram>,
    /// Issuing intermediates.
    pub intermediates: Vec<IssuingCa>,
    /// URI where the root certificate is published.
    pub aia_uri: String,
}

/// A realized cross-signing relationship.
#[derive(Clone, Debug)]
pub struct CrossSignedPair {
    /// (root index, intermediate index) of the subject CA.
    pub subject: (usize, usize),
    /// The cross certificate: same subject DN/key as the subject
    /// intermediate, issued by `issuer_root`'s key.
    pub cross_cert: Certificate,
    /// Root index of the cross issuer.
    pub issuer_root: usize,
    /// Whether the cross certificate is expired.
    pub expired: bool,
    /// URI where the cross certificate is published.
    pub aia_uri: String,
}

/// The generated CA universe.
#[derive(Clone, Debug)]
pub struct CaUniverse {
    /// Root CAs in spec order.
    pub roots: Vec<RootCa>,
    /// Cross-signed pairs.
    pub cross_signed: Vec<CrossSignedPair>,
    seed: u64,
}

impl CaUniverse {
    /// Generate a universe from a spec. Deterministic in `spec.seed`.
    pub fn generate(spec: &UniverseSpec) -> CaUniverse {
        let group = Group::simulation_256();
        let drbg = Drbg::from_u64(spec.seed).fork("ca-universe");
        let root_not_before = Time::from_ymd(2012, 1, 1).expect("valid");
        let root_not_after = Time::from_ymd(2042, 1, 1).expect("valid");
        let int_not_before = Time::from_ymd(2020, 3, 1).expect("valid");
        let int_not_after = Time::from_ymd(2034, 3, 1).expect("valid");

        let mut roots = Vec::with_capacity(spec.cas.len());
        for (ci, ca) in spec.cas.iter().enumerate() {
            let slug = slugify(&ca.name);
            let root_drbg = drbg.fork(&format!("root/{ci}/{slug}"));
            let keypair = KeyPair::from_seed(group, &root_drbg.fork("key").bytes_static());
            let root_dn =
                DistinguishedName::cn_o(format!("{} Root CA", ca.name), ca.name.clone());
            let cert = CertificateBuilder::ca_profile(root_dn.clone())
                .validity(root_not_before, root_not_after)
                .akid(KidMode::Absent) // typical real-world roots omit AKID
                .self_signed(&keypair);
            let aia_uri = format!("http://aia.sim/{slug}/root.crt");

            let mut intermediates = Vec::with_capacity(ca.intermediates);
            for ii in 0..ca.intermediates {
                let int_drbg = root_drbg.fork(&format!("int/{ii}"));
                let int_kp = KeyPair::from_seed(group, &int_drbg.fork("key").bytes_static());
                let int_name = format!("{} Issuing CA {}", ca.name, ii + 1);
                let int_dn = DistinguishedName::cn_o(int_name.clone(), ca.name.clone());
                let int_aia = format!("http://aia.sim/{slug}/issuing-{}.crt", ii + 1);
                let base = CertificateBuilder::ca_profile(int_dn.clone())
                    .validity(int_not_before, int_not_after)
                    .aia_ca_issuers(aia_uri.clone());
                let cert = base
                    .clone()
                    .issued_by(&int_kp.public, root_dn.clone(), &keypair);
                let cert_no_akid = base
                    .akid(KidMode::Absent)
                    .issued_by(&int_kp.public, root_dn.clone(), &keypair);
                intermediates.push(IssuingCa {
                    name: int_name,
                    keypair: int_kp,
                    cert,
                    cert_no_akid,
                    aia_uri: int_aia,
                    root_index: ci,
                });
            }
            roots.push(RootCa {
                name: ca.name.clone(),
                keypair,
                cert,
                trusted: ca.trusted,
                excluded_from: ca.excluded_from.clone(),
                intermediates,
                aia_uri,
            });
        }

        let mut cross_signed = Vec::with_capacity(spec.cross_signs.len());
        for cs in &spec.cross_signs {
            let subject_int = &roots[cs.subject_ca].intermediates[cs.subject_intermediate];
            let issuer = &roots[cs.issuer_ca];
            let subject_dn = subject_int.cert.subject().clone();
            let (nb, na) = if cs.expired {
                (
                    Time::from_ymd(2016, 1, 1).expect("valid"),
                    Time::from_ymd(2021, 1, 1).expect("valid"),
                )
            } else {
                (int_not_before, int_not_after)
            };
            let cross_cert = CertificateBuilder::ca_profile(subject_dn)
                .validity(nb, na)
                .aia_ca_issuers(issuer.aia_uri.clone())
                .issued_by(
                    &subject_int.keypair.public,
                    roots[cs.issuer_ca].cert.subject().clone(),
                    &issuer.keypair,
                );
            let aia_uri = format!(
                "http://aia.sim/{}/cross-{}-{}.crt",
                slugify(&roots[cs.subject_ca].name),
                cs.subject_intermediate,
                slugify(&roots[cs.issuer_ca].name)
            );
            cross_signed.push(CrossSignedPair {
                subject: (cs.subject_ca, cs.subject_intermediate),
                cross_cert,
                issuer_root: cs.issuer_ca,
                expired: cs.expired,
                aia_uri,
            });
        }

        CaUniverse {
            roots,
            cross_signed,
            seed: spec.seed,
        }
    }

    /// Convenience: generate the default population.
    pub fn default_with_seed(seed: u64) -> CaUniverse {
        CaUniverse::generate(&UniverseSpec::default_population(seed))
    }

    /// The master seed this universe was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All trusted root certificates.
    pub fn trusted_roots(&self) -> impl Iterator<Item = &RootCa> {
        self.roots.iter().filter(|r| r.trusted)
    }

    /// Every published certificate, keyed by AIA URI — the content of the
    /// simulated AIA repository.
    pub fn aia_publications(&self) -> HashMap<String, Certificate> {
        let mut map = HashMap::new();
        for root in &self.roots {
            map.insert(root.aia_uri.clone(), root.cert.clone());
            for int in &root.intermediates {
                map.insert(int.aia_uri.clone(), int.cert.clone());
            }
        }
        for cs in &self.cross_signed {
            map.insert(cs.aia_uri.clone(), cs.cross_cert.clone());
        }
        map
    }
}

fn slugify(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// Helper: a fixed-size byte seed from a DRBG (32 bytes).
trait DrbgSeedExt {
    fn bytes_static(&self) -> Vec<u8>;
}

impl DrbgSeedExt for Drbg {
    fn bytes_static(&self) -> Vec<u8> {
        self.clone().bytes(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> CaUniverse {
        CaUniverse::default_with_seed(7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = universe();
        let b = universe();
        assert_eq!(a.roots.len(), b.roots.len());
        for (ra, rb) in a.roots.iter().zip(&b.roots) {
            assert_eq!(ra.cert, rb.cert);
            for (ia, ib) in ra.intermediates.iter().zip(&rb.intermediates) {
                assert_eq!(ia.cert, ib.cert);
                assert_eq!(ia.cert_no_akid, ib.cert_no_akid);
            }
        }
    }

    #[test]
    fn roots_are_self_signed_cas() {
        for root in universe().roots {
            assert!(root.cert.is_self_signed(), "{}", root.name);
            assert!(root.cert.is_ca());
            assert!(root.cert.skid().is_some());
            assert!(root.cert.akid().is_none());
        }
    }

    #[test]
    fn intermediates_verify_under_their_roots() {
        let u = universe();
        for root in &u.roots {
            for int in &root.intermediates {
                assert!(int.cert.verify_signature_with(root.cert.public_key()));
                assert!(int.cert_no_akid.verify_signature_with(root.cert.public_key()));
                assert_eq!(int.cert.issuer(), root.cert.subject());
                assert_eq!(
                    int.cert.akid_key_id().unwrap(),
                    root.cert.skid().unwrap(),
                    "AKID chain for {}",
                    int.name
                );
                assert!(int.cert_no_akid.akid().is_none());
                // Same key in both variants.
                assert_eq!(int.cert.public_key(), int.cert_no_akid.public_key());
                // AIA points at the root's publication.
                assert_eq!(int.cert.aia_ca_issuers_uri(), Some(root.aia_uri.as_str()));
            }
        }
    }

    #[test]
    fn cross_signs_share_subject_and_key() {
        let u = universe();
        assert_eq!(u.cross_signed.len(), 4);
        for cs in &u.cross_signed {
            let (ri, ii) = cs.subject;
            let original = &u.roots[ri].intermediates[ii];
            assert_eq!(cs.cross_cert.subject(), original.cert.subject());
            assert_eq!(cs.cross_cert.public_key(), original.cert.public_key());
            assert_ne!(cs.cross_cert.issuer(), original.cert.issuer());
            let issuer_root = &u.roots[cs.issuer_root];
            assert!(cs.cross_cert.verify_signature_with(issuer_root.cert.public_key()));
        }
        assert!(u.cross_signed.iter().any(|cs| cs.expired));
    }

    #[test]
    fn aia_repository_contains_all_publications() {
        let u = universe();
        let repo = u.aia_publications();
        let expected = u.roots.len()
            + u.roots.iter().map(|r| r.intermediates.len()).sum::<usize>()
            + u.cross_signed.len();
        assert_eq!(repo.len(), expected);
        for root in &u.roots {
            assert_eq!(repo.get(&root.aia_uri), Some(&root.cert));
        }
    }

    #[test]
    fn trusted_and_untrusted_partition() {
        let u = universe();
        let trusted = u.trusted_roots().count();
        assert_eq!(trusted, 13);
        assert_eq!(u.roots.len() - trusted, 2);
    }

    #[test]
    fn slugify_behaviour() {
        assert_eq!(slugify("Let's Encrypt Sim"), "let-s-encrypt-sim");
        assert_eq!(slugify("cyber_Folks Sim"), "cyber-folks-sim");
    }
}
