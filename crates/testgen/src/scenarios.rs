//! The paper's concrete case-study topologies.
//!
//! - Figure 2 (a–d): the four server-side topology examples;
//! - Figure 3: the assiste6.serpro.gov.br long-list case that trips
//!   GnuTLS's 16-certificate input limit (I-2);
//! - Figure 4: the moex.gov.tw multi-path case with an untrusted root
//!   that defeats non-backtracking clients (I-3);
//! - Figure 5: the DigiCert same-subject/same-KID candidate pair behind
//!   the validity-priority recommendation (§6.2).

use ccc_asn1::Time;
use ccc_crypto::{Group, KeyPair};
use ccc_netsim::AiaRepository;
use ccc_rootstore::RootStore;
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName};

/// A named served-list scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short name ("figure2a", "figure4", …).
    pub name: &'static str,
    /// What the scenario demonstrates.
    pub description: &'static str,
    /// The domain the chain claims to serve.
    pub domain: String,
    /// The served certificate list.
    pub served: Vec<Certificate>,
}

/// Shared environment for the scenario set.
#[derive(Debug)]
pub struct ScenarioSet {
    /// Trust store with the trusted roots.
    pub store: RootStore,
    /// AIA repository (scenarios publish nothing by default).
    pub aia: AiaRepository,
    /// Simulated clock.
    pub now: Time,
    trusted_root: Certificate,
    trusted_root_kp: KeyPair,
    trusted_root_dn: DistinguishedName,
    gov_root: Certificate,
    gov_root_kp: KeyPair,
    gov_root_dn: DistinguishedName,
}

impl ScenarioSet {
    /// Build the environment (deterministic in `seed`).
    pub fn new(seed: u64) -> ScenarioSet {
        let g = Group::simulation_256();
        let mk = |label: &str| KeyPair::from_seed(g, format!("scenario/{seed}/{label}").as_bytes());
        let trusted_root_kp = mk("trusted-root");
        let trusted_root_dn = DistinguishedName::cn_o("Scenario Trusted Root", "chain-chaos");
        let trusted_root = CertificateBuilder::ca_profile(trusted_root_dn.clone())
            .validity(
                Time::from_ymd(2015, 1, 1).expect("literal date is valid"),
                Time::from_ymd(2040, 1, 1).expect("literal date is valid"),
            )
            .self_signed(&trusted_root_kp);
        let gov_root_kp = mk("gov-root");
        let gov_root_dn = DistinguishedName::cn_o("Scenario Gov Root", "gov.sim");
        let gov_root = CertificateBuilder::ca_profile(gov_root_dn.clone())
            .validity(
                Time::from_ymd(2015, 1, 1).expect("literal date is valid"),
                Time::from_ymd(2040, 1, 1).expect("literal date is valid"),
            )
            .self_signed(&gov_root_kp);
        let store = RootStore::new("scenario", vec![trusted_root.clone()]);
        ScenarioSet {
            store,
            aia: AiaRepository::empty(),
            now: Time::from_ymd(2024, 7, 1).expect("literal date is valid"),
            trusted_root,
            trusted_root_kp,
            trusted_root_dn,
            gov_root,
            gov_root_kp,
            gov_root_dn,
        }
    }

    fn intermediate(&self, cn: &str, key_label: &str) -> (Certificate, KeyPair, DistinguishedName) {
        let g = Group::simulation_256();
        let kp = KeyPair::from_seed(g, format!("scenario-int/{key_label}").as_bytes());
        let dn = DistinguishedName::cn_o(cn, "chain-chaos");
        let cert = CertificateBuilder::ca_profile(dn.clone()).issued_by(
            &kp.public,
            self.trusted_root_dn.clone(),
            &self.trusted_root_kp,
        );
        (cert, kp, dn)
    }

    fn leaf(
        &self,
        domain: &str,
        issuer_dn: &DistinguishedName,
        issuer_kp: &KeyPair,
    ) -> Certificate {
        let g = Group::simulation_256();
        let kp = KeyPair::from_seed(g, format!("scenario-leaf/{domain}").as_bytes());
        CertificateBuilder::leaf_profile(domain).issued_by(&kp.public, issuer_dn.clone(), issuer_kp)
    }

    /// Figure 2a: a compliant four-certificate chain
    /// `C0(leaf) ← C1 ← C2 ← C3(root)`.
    pub fn figure2a(&self) -> Scenario {
        let (i2, i2_kp, i2_dn) = self.intermediate("Fig2a CA 2", "fig2a-2");
        let g = Group::simulation_256();
        let i1_kp = KeyPair::from_seed(g, b"scenario-int/fig2a-1");
        let i1_dn = DistinguishedName::cn_o("Fig2a CA 1", "chain-chaos");
        let i1 =
            CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(&i1_kp.public, i2_dn, &i2_kp);
        let leaf = self.leaf("fig2a.sim", &i1_dn, &i1_kp);
        Scenario {
            name: "figure2a",
            description: "compliant chain: leaf, two intermediates, root, in issuance order",
            domain: "fig2a.sim".into(),
            served: vec![leaf, i1, i2, self.trusted_root.clone()],
        }
    }

    /// Figure 2b: the webcanny.com pattern — multiple stale leaves
    /// (irrelevant certificates), newest first.
    pub fn figure2b(&self) -> Scenario {
        let (i1, i1_kp, i1_dn) = self.intermediate("Fig2b CA", "fig2b-1");
        let g = Group::simulation_256();
        let mut leaves = Vec::new();
        for year in [2024i32, 2023, 2022, 2021, 2020] {
            let kp = KeyPair::from_seed(g, format!("scenario-leaf/fig2b/{year}").as_bytes());
            let leaf = CertificateBuilder::leaf_profile("fig2b.sim")
                .validity(
                    Time::from_ymd(year, 1, 1).expect("literal date is valid"),
                    Time::from_ymd(year + 1, 1, 1).expect("literal date is valid"),
                )
                .issued_by(&kp.public, i1_dn.clone(), &i1_kp);
            leaves.push(leaf);
        }
        let mut served = leaves;
        served.push(i1);
        Scenario {
            name: "figure2b",
            description: "five leaves for the same domain (only the newest relevant), stale \
                          leftovers from renewals",
            domain: "fig2b.sim".into(),
            served,
        }
    }

    /// Figure 2c: cross-signed multi-path — the USERTrust pattern. Two
    /// certificates share the subject/key of the intermediate's issuer;
    /// one is a root-store anchor child, the other a cross-sign. The
    /// cross certificate is deployed *before* the certificate it should
    /// follow, so one path is reversed.
    pub fn figure2c(&self) -> Scenario {
        let g = Group::simulation_256();
        // Shared "USERTrust" CA key, two certs: by trusted root (in list)
        // and cross-signed by the gov root (not trusted).
        let shared_kp = KeyPair::from_seed(g, b"scenario-int/fig2c-shared");
        let shared_dn = DistinguishedName::cn_o("Fig2c USERTrust Sim", "chain-chaos");
        let by_trusted = CertificateBuilder::ca_profile(shared_dn.clone()).issued_by(
            &shared_kp.public,
            self.trusted_root_dn.clone(),
            &self.trusted_root_kp,
        );
        let cross = CertificateBuilder::ca_profile(shared_dn.clone()).issued_by(
            &shared_kp.public,
            self.gov_root_dn.clone(),
            &self.gov_root_kp,
        );
        let i1_kp = KeyPair::from_seed(g, b"scenario-int/fig2c-1");
        let i1_dn = DistinguishedName::cn_o("Fig2c Issuing CA", "chain-chaos");
        let i1 = CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(
            &i1_kp.public,
            shared_dn,
            &shared_kp,
        );
        let leaf = self.leaf("fig2c.sim", &i1_dn, &i1_kp);
        Scenario {
            name: "figure2c",
            description: "cross-signed intermediate creates two paths; the cross certificate is \
                          inserted before its sibling, reversing one path",
            domain: "fig2c.sim".into(),
            served: vec![leaf, i1, cross, by_trusted],
        }
    }

    /// Figure 2d: the archives.gov.tw pattern — the real chain plus a
    /// bundle of certificates from a second, unrelated hierarchy (with a
    /// duplicate).
    pub fn figure2d(&self) -> Scenario {
        let (i1, i1_kp, i1_dn) = self.intermediate("Fig2d CA", "fig2d-1");
        let leaf = self.leaf("fig2d.sim", &i1_dn, &i1_kp);
        // Foreign hierarchy under the gov root.
        let g = Group::simulation_256();
        let mut foreign = Vec::new();
        for i in 0..3 {
            let kp = KeyPair::from_seed(g, format!("scenario-int/fig2d-foreign-{i}").as_bytes());
            let dn = DistinguishedName::cn_o(format!("Fig2d TWCA Sub {i}"), "gov.sim");
            foreign.push(CertificateBuilder::ca_profile(dn).issued_by(
                &kp.public,
                self.gov_root_dn.clone(),
                &self.gov_root_kp,
            ));
        }
        let mut served = vec![leaf, i1, self.trusted_root.clone()];
        served.push(self.gov_root.clone());
        served.extend(foreign.iter().cloned());
        // Duplicate of the gov root (relabelled 4[1] in the paper's graph).
        served.push(self.gov_root.clone());
        Scenario {
            name: "figure2d",
            description: "primary chain plus an unrelated government hierarchy and a duplicated \
                          certificate",
            domain: "fig2d.sim".into(),
            served,
        }
    }

    /// Figure 3: the assiste6.serpro.gov.br pattern — the correct chain
    /// hides inside a 17-certificate list padded with irrelevant and
    /// duplicate certificates, exceeding GnuTLS's input limit of 16.
    pub fn figure3(&self) -> Scenario {
        let (i1, i1_kp, i1_dn) = self.intermediate("Fig3 Issuing CA", "fig3-1");
        let leaf = self.leaf("assiste6.serpro.sim", &i1_dn, &i1_kp);
        let g = Group::simulation_256();
        let mut served = vec![leaf];
        // Pad with 14 irrelevant certificates from the gov hierarchy
        // (with duplicates), then the needed intermediate near the end —
        // mirroring the paper's path 8->1->16->0 shape.
        let mut junk = Vec::new();
        for i in 0..7 {
            let kp = KeyPair::from_seed(g, format!("scenario-int/fig3-junk-{i}").as_bytes());
            let dn = DistinguishedName::cn_o(format!("Fig3 Gov Sub {i}"), "gov.sim");
            junk.push(CertificateBuilder::ca_profile(dn).issued_by(
                &kp.public,
                self.gov_root_dn.clone(),
                &self.gov_root_kp,
            ));
        }
        for i in 0..14 {
            served.push(junk[i % junk.len()].clone());
        }
        served.push(i1); // position 15
        served.push(self.trusted_root.clone()); // position 16 → length 17
        Scenario {
            name: "figure3",
            description: "17-certificate list whose valid path needs the certificate at \
                          position 15; GnuTLS rejects lists longer than 16",
            domain: "assiste6.serpro.sim".into(),
            served,
        }
    }

    /// Figure 4: the moex.gov.tw pattern — the terminal intermediate is
    /// cross-signed by an untrusted government root (whose certificate is
    /// served FIRST among the issuer candidates) and by the trusted root
    /// (served last). Non-backtracking clients walk into the government
    /// branch and fail; backtracking clients recover.
    pub fn figure4(&self) -> Scenario {
        let g = Group::simulation_256();
        let shared_kp = KeyPair::from_seed(g, b"scenario-int/fig4-shared");
        let shared_dn = DistinguishedName::cn_o("Fig4 Cross CA", "gov.sim");
        let by_gov = CertificateBuilder::ca_profile(shared_dn.clone()).issued_by(
            &shared_kp.public,
            self.gov_root_dn.clone(),
            &self.gov_root_kp,
        );
        let by_trusted = CertificateBuilder::ca_profile(shared_dn.clone()).issued_by(
            &shared_kp.public,
            self.trusted_root_dn.clone(),
            &self.trusted_root_kp,
        );
        let leaf = self.leaf("moex.gov.sim", &shared_dn, &shared_kp);
        Scenario {
            name: "figure4",
            description: "three candidate paths; the untrusted government branch comes first, \
                          so only clients with backtracking find the trusted path",
            domain: "moex.gov.sim".into(),
            served: vec![leaf, by_gov, self.gov_root.clone(), by_trusted],
        }
    }

    /// Figure 5: two candidate issuers with identical subject DN and KID,
    /// differing only in validity (the DigiCert TLS RSA SHA256 2020 CA1
    /// example). Returns the scenario plus the two candidates (A newer,
    /// B older) so callers can check which one a client selects.
    pub fn figure5(&self) -> (Scenario, Certificate, Certificate) {
        let g = Group::simulation_256();
        let shared_kp = KeyPair::from_seed(g, b"scenario-int/fig5-shared");
        let shared_dn = DistinguishedName::cn_o("DigiCert TLS Sim 2020 CA1", "chain-chaos");
        let candidate_a = CertificateBuilder::ca_profile(shared_dn.clone())
            .validity(
                Time::from_ymd(2021, 4, 14).expect("literal date is valid"),
                Time::from_ymd(2031, 4, 13).expect("literal date is valid"),
            )
            .issued_by(
                &shared_kp.public,
                self.trusted_root_dn.clone(),
                &self.trusted_root_kp,
            );
        let candidate_b = CertificateBuilder::ca_profile(shared_dn.clone())
            .validity(
                Time::from_ymd(2020, 9, 24).expect("literal date is valid"),
                Time::from_ymd(2030, 9, 23).expect("literal date is valid"),
            )
            .issued_by(
                &shared_kp.public,
                self.trusted_root_dn.clone(),
                &self.trusted_root_kp,
            );
        let leaf = self.leaf("fig5.sim", &shared_dn, &shared_kp);
        let scenario = Scenario {
            name: "figure5",
            description: "two issuer candidates identical except validity; the newer one \
                          (candidate A) should be preferred",
            domain: "fig5.sim".into(),
            served: vec![leaf, candidate_b.clone(), candidate_a.clone()],
        };
        (scenario, candidate_a, candidate_b)
    }

    /// The untrusted government root (exposed for assertions).
    pub fn gov_root(&self) -> &Certificate {
        &self.gov_root
    }

    /// The trusted root (exposed for assertions).
    pub fn trusted_root(&self) -> &Certificate {
        &self.trusted_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::builder::{BuildContext, ClientError};
    use ccc_core::clients::ClientKind;
    use ccc_core::topology::IssuanceChecker;
    use ccc_core::{analyze_order, CompletenessAnalyzer};

    fn ctx<'a>(set: &'a ScenarioSet, checker: &'a IssuanceChecker) -> BuildContext<'a> {
        BuildContext {
            store: &set.store,
            aia: Some(&set.aia),
            cache: &[],
            now: set.now,
            checker,
        }
    }

    #[test]
    fn figure2a_is_compliant() {
        let set = ScenarioSet::new(5);
        let s = set.figure2a();
        let checker = IssuanceChecker::new();
        let order = analyze_order(&s.served, &checker);
        assert!(order.is_compliant(), "{order:?}");
        let analyzer = CompletenessAnalyzer::new(&checker, &set.store, Some(&set.aia));
        assert_eq!(
            analyzer.analyze(&s.served).completeness,
            ccc_core::Completeness::CompleteWithRoot
        );
    }

    #[test]
    fn figure2b_has_irrelevant_stale_leaves() {
        let set = ScenarioSet::new(5);
        let s = set.figure2b();
        let checker = IssuanceChecker::new();
        let order = analyze_order(&s.served, &checker);
        assert!(order.has_irrelevant());
        assert_eq!(order.irrelevant, 4, "four stale leaves");
        assert!(!order.has_duplicates());
    }

    #[test]
    fn figure2c_has_multiple_paths() {
        let set = ScenarioSet::new(5);
        let s = set.figure2c();
        let checker = IssuanceChecker::new();
        let order = analyze_order(&s.served, &checker);
        assert!(order.has_multiple_paths());
        assert_eq!(order.path_count, 2);
    }

    #[test]
    fn figure2d_has_irrelevant_and_duplicates() {
        let set = ScenarioSet::new(5);
        let s = set.figure2d();
        let checker = IssuanceChecker::new();
        let order = analyze_order(&s.served, &checker);
        assert!(order.has_irrelevant());
        assert!(order.has_duplicates());
        assert_eq!(order.duplicates.root, 1, "gov root duplicated once");
    }

    #[test]
    fn figure3_trips_only_gnutls() {
        let set = ScenarioSet::new(5);
        let s = set.figure3();
        assert_eq!(s.served.len(), 17);
        let checker = IssuanceChecker::new();
        let gnutls = ClientKind::GnuTls
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert_eq!(gnutls.verdict, Err(ClientError::TooManyCertificates));
        let openssl = ClientKind::OpenSsl
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(openssl.accepted(), "{:?}", openssl.verdict);
        let chrome = ClientKind::Chrome
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(chrome.accepted());
    }

    #[test]
    fn figure4_needs_backtracking() {
        let set = ScenarioSet::new(5);
        let s = set.figure4();
        let checker = IssuanceChecker::new();
        let openssl = ClientKind::OpenSsl
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(!openssl.accepted(), "greedy client walks into gov branch");
        let capi = ClientKind::CryptoApi
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(capi.accepted(), "{:?}", capi.verdict);
        // The recovered path ends at the trusted root.
        assert_eq!(capi.path.last().unwrap(), set.trusted_root());

        // MbedTLS's forward scan commits to whichever cross certificate
        // comes first — the paper's observation that its "correct" moex
        // path was an accident of ordering. With the gov branch first it
        // fails; swap the branches and it succeeds.
        let mbed = ClientKind::MbedTls
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(!mbed.accepted());
        let mut swapped = s.served.clone();
        swapped.swap(1, 3); // by_trusted first, by_gov last
        let mbed2 = ClientKind::MbedTls
            .engine()
            .process(&swapped, &ctx(&set, &checker));
        assert!(mbed2.accepted(), "{:?}", mbed2.verdict);
    }

    #[test]
    fn figure5_validity_preference_observed() {
        let set = ScenarioSet::new(5);
        let (s, newer, older) = set.figure5();
        let checker = IssuanceChecker::new();
        // VP2 client prefers the newer candidate even though the older one
        // comes first in the list.
        let chrome = ClientKind::Chrome
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(chrome.accepted());
        assert!(chrome.path.contains(&newer));
        assert!(!chrome.path.contains(&older));
        // VP1 client takes the first valid (the older one).
        let openssl = ClientKind::OpenSsl
            .engine()
            .process(&s.served, &ctx(&set, &checker));
        assert!(openssl.accepted());
        assert!(openssl.path.contains(&older));
    }
}
