//! The nine chain-construction capability tests (paper §3.2, Table 2) and
//! their evaluation against a chain engine (reproducing Table 9).
//!
//! All priority tests use intermediates that share the *same subject DN
//! and key* (renewed/reissued certificates, like the paper's Figure 5
//! DigiCert example) but differ in exactly one attribute — so the
//! signature verifies under every candidate and the constructed path
//! reveals the client's preference.

use ccc_asn1::Time;
use ccc_core::builder::{BuildContext, ChainEngine, ClientError};
use ccc_core::topology::IssuanceChecker;
use ccc_crypto::{Group, KeyPair};
use ccc_netsim::AiaRepository;
use ccc_rootstore::RootStore;
use ccc_x509::{
    BasicConstraints, Certificate, CertificateBuilder, DistinguishedName, KeyUsage, KidMode,
};

/// Validity-priority classes (Table 9 footnotes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VpClass {
    /// "—": no validity preference (picks first, may pick an invalid one).
    NoPreference,
    /// VP1: first valid certificate.
    FirstValid,
    /// VP2: most recent (then longest) among valid.
    MostRecent,
}

impl VpClass {
    /// Table 9 cell text.
    pub fn label(&self) -> &'static str {
        match self {
            VpClass::NoPreference => "-",
            VpClass::FirstValid => "VP1",
            VpClass::MostRecent => "VP2",
        }
    }
}

/// KID-priority classes (Table 9 footnotes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KpClass {
    /// "—": no KID preference.
    NoPreference,
    /// KP1: match/absence over mismatch.
    MatchOrAbsentFirst,
    /// KP2: match over absence over mismatch.
    MatchFirst,
}

impl KpClass {
    /// Table 9 cell text.
    pub fn label(&self) -> &'static str {
        match self {
            KpClass::NoPreference => "-",
            KpClass::MatchOrAbsentFirst => "KP1",
            KpClass::MatchFirst => "KP2",
        }
    }
}

/// Measured path-length limit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaxLen {
    /// Exact limit found by probing.
    Exact(usize),
    /// No failure up to the probe ceiling.
    AtLeast(usize),
}

impl MaxLen {
    /// Table 9 cell text.
    pub fn label(&self) -> String {
        match self {
            MaxLen::Exact(n) => format!("={n}"),
            MaxLen::AtLeast(n) => format!(">{n}"),
        }
    }
}

/// One client's row of Table 9.
#[derive(Clone, Debug)]
pub struct CapabilityRow {
    /// Test 1.
    pub order_reorganization: bool,
    /// Test 2.
    pub redundancy_elimination: bool,
    /// Test 3.
    pub aia_completion: bool,
    /// Test 4.
    pub validity_priority: VpClass,
    /// Test 5.
    pub kid_priority: KpClass,
    /// Test 6 (true = KUP).
    pub key_usage_priority: bool,
    /// Test 7 (true = BP).
    pub basic_constraints_priority: bool,
    /// Test 8.
    pub max_path_len: MaxLen,
    /// Test 9 (true = self-signed leaf accepted for construction).
    pub self_signed_leaf: bool,
}

/// The fixed PKI behind all nine tests.
#[derive(Debug)]
pub struct CapabilitySuite {
    /// Trust store holding the suite's root.
    pub store: RootStore,
    /// AIA repository for test 3.
    pub aia: AiaRepository,
    /// The simulated clock.
    pub now: Time,
    root: Certificate,
    root_kp: KeyPair,
    root_dn: DistinguishedName,
    /// Plain E <- I chain material reused by several tests.
    int_kp: KeyPair,
    int_dn: DistinguishedName,
    int_cert: Certificate,
}

/// Probe ceiling for the path-length test (paper probed to 52).
pub const MAX_LEN_PROBE: usize = 53;

impl CapabilitySuite {
    /// Build the suite (deterministic in `seed`).
    pub fn new(seed: u64) -> CapabilitySuite {
        let g = Group::simulation_256();
        let mk =
            |label: &str| KeyPair::from_seed(g, format!("capability/{seed}/{label}").as_bytes());
        let root_kp = mk("root");
        let root_dn = DistinguishedName::cn_o("Capability Root", "chain-chaos");
        let root = CertificateBuilder::ca_profile(root_dn.clone())
            .validity(
                Time::from_ymd(2015, 1, 1).expect("literal date is valid"),
                Time::from_ymd(2040, 1, 1).expect("literal date is valid"),
            )
            .self_signed(&root_kp);
        let int_kp = mk("int");
        let int_dn = DistinguishedName::cn_o("Capability Issuing CA", "chain-chaos");
        let int_cert = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn.clone(),
            &root_kp,
        );
        let store = RootStore::new("capability", vec![root.clone()]);
        CapabilitySuite {
            store,
            aia: AiaRepository::empty(),
            now: Time::from_ymd(2024, 7, 1).expect("literal date is valid"),
            root,
            root_kp,
            root_dn,
            int_kp,
            int_dn,
            int_cert,
        }
    }

    fn ctx<'a>(&'a self, checker: &'a IssuanceChecker) -> BuildContext<'a> {
        BuildContext {
            store: &self.store,
            aia: Some(&self.aia),
            cache: &[],
            now: self.now,
            checker,
        }
    }

    fn leaf_under_int(&self, domain: &str) -> Certificate {
        let g = Group::simulation_256();
        let kp = KeyPair::from_seed(g, format!("capability-leaf/{domain}").as_bytes());
        CertificateBuilder::leaf_profile(domain).issued_by(
            &kp.public,
            self.int_dn.clone(),
            &self.int_kp,
        )
    }

    /// Test 1 — ORDER_REORGANIZATION: `{E, I2, I1, R}` where the true
    /// chain is E ← I1 ← I2 ← R.
    pub fn test_order_reorganization(&self, engine: &ChainEngine) -> bool {
        let g = Group::simulation_256();
        let i2_kp = KeyPair::from_seed(g, b"capability/order/i2");
        let i1_kp = KeyPair::from_seed(g, b"capability/order/i1");
        let leaf_kp = KeyPair::from_seed(g, b"capability/order/leaf");
        let i2_dn = DistinguishedName::cn("Order I2");
        let i1_dn = DistinguishedName::cn("Order I1");
        let i2 = CertificateBuilder::ca_profile(i2_dn.clone()).issued_by(
            &i2_kp.public,
            self.root_dn.clone(),
            &self.root_kp,
        );
        let i1 =
            CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(&i1_kp.public, i2_dn, &i2_kp);
        let e =
            CertificateBuilder::leaf_profile("order.cap").issued_by(&leaf_kp.public, i1_dn, &i1_kp);
        let served = vec![e, i2, i1, self.root.clone()];
        let checker = IssuanceChecker::new();
        engine.process(&served, &self.ctx(&checker)).accepted()
    }

    /// Test 2 — REDUNDANCY_ELIMINATION: `{E, X, I, R}` with X irrelevant.
    pub fn test_redundancy_elimination(&self, engine: &ChainEngine) -> bool {
        let g = Group::simulation_256();
        let x_kp = KeyPair::from_seed(g, b"capability/redundancy/x");
        let x = CertificateBuilder::ca_profile(DistinguishedName::cn("Irrelevant X"))
            .self_signed(&x_kp);
        let e = self.leaf_under_int("redundancy.cap");
        let served = vec![e, x, self.int_cert.clone(), self.root.clone()];
        let checker = IssuanceChecker::new();
        engine.process(&served, &self.ctx(&checker)).accepted()
    }

    /// Test 3 — AIA_COMPLETION: `{E, I1}` where I1's issuer I2 is only
    /// available via I1's AIA caIssuers URI (and I2 chains to R).
    pub fn test_aia_completion(&self, engine: &ChainEngine) -> bool {
        let g = Group::simulation_256();
        let i2_kp = KeyPair::from_seed(g, b"capability/aia/i2");
        let i1_kp = KeyPair::from_seed(g, b"capability/aia/i1");
        let leaf_kp = KeyPair::from_seed(g, b"capability/aia/leaf");
        let i2_dn = DistinguishedName::cn("AIA I2");
        let i1_dn = DistinguishedName::cn("AIA I1");
        let i2 = CertificateBuilder::ca_profile(i2_dn.clone()).issued_by(
            &i2_kp.public,
            self.root_dn.clone(),
            &self.root_kp,
        );
        let i1 = CertificateBuilder::ca_profile(i1_dn.clone())
            .aia_ca_issuers("http://aia.cap/i2.crt")
            .issued_by(&i1_kp.public, i2_dn, &i2_kp);
        let e =
            CertificateBuilder::leaf_profile("aia.cap").issued_by(&leaf_kp.public, i1_dn, &i1_kp);
        let mut aia = AiaRepository::empty();
        aia.publish("http://aia.cap/i2.crt", i2);
        let served = vec![e, i1];
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &self.store,
            aia: Some(&aia),
            cache: &[],
            now: self.now,
            checker: &checker,
        };
        engine.process(&served, &ctx).accepted()
    }

    /// Builds the same-subject/same-key intermediate family for the
    /// priority tests: `make(label, builder_tweak)`.
    fn same_key_intermediates(
        &self,
        label: &str,
        variants: &[(&str, CertificateBuilder)],
    ) -> (Certificate, Vec<Certificate>) {
        let g = Group::simulation_256();
        let shared_kp = KeyPair::from_seed(g, format!("capability/{label}/shared").as_bytes());
        let leaf_kp = KeyPair::from_seed(g, format!("capability/{label}/leaf").as_bytes());
        let shared_dn = DistinguishedName::cn(format!("Priority CA {label}"));
        let mut certs = Vec::new();
        for (_, builder) in variants {
            certs.push(builder.clone().issued_by(
                &shared_kp.public,
                self.root_dn.clone(),
                &self.root_kp,
            ));
        }
        let leaf = CertificateBuilder::leaf_profile(&format!("{label}.cap")).issued_by(
            &leaf_kp.public,
            shared_dn,
            &shared_kp,
        );
        (leaf, certs)
    }

    /// Test 4 — VALIDITY priority. Served order: `[E, I1(expired),
    /// I(valid, older), I2(valid, recent), I3(valid, long), R]`.
    /// Returns the class inferred from the constructed path.
    pub fn test_validity_priority(&self, engine: &ChainEngine) -> VpClass {
        let label = "validity";
        let g = Group::simulation_256();
        let shared_kp = KeyPair::from_seed(g, format!("capability/{label}/shared").as_bytes());
        let shared_dn = DistinguishedName::cn(format!("Priority CA {label}"));
        let y = |y, m, d| Time::from_ymd(y, m, d).expect("literal date is valid");
        let base = || CertificateBuilder::ca_profile(shared_dn.clone());
        let i = base().validity(y(2024, 1, 1), y(2025, 1, 1));
        let i1 = base().validity(y(2020, 1, 1), y(2021, 1, 1)); // expired
        let i2 = base().validity(y(2024, 6, 1), y(2025, 6, 1)); // most recent
        let i3 = base().validity(y(2024, 1, 1), y(2034, 1, 1)); // longest
        let issue = |b: CertificateBuilder| {
            b.issued_by(&shared_kp.public, self.root_dn.clone(), &self.root_kp)
        };
        let (i, i1, i2, i3) = (issue(i), issue(i1), issue(i2), issue(i3));
        let leaf_kp = KeyPair::from_seed(g, format!("capability/{label}/leaf").as_bytes());
        let leaf = CertificateBuilder::leaf_profile("validity.cap").issued_by(
            &leaf_kp.public,
            shared_dn,
            &shared_kp,
        );
        let served = vec![
            leaf,
            i1.clone(),
            i.clone(),
            i2.clone(),
            i3.clone(),
            self.root.clone(),
        ];
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&served, &self.ctx(&checker));
        if !outcome.accepted() {
            // Picked the expired first candidate (or failed otherwise).
            return VpClass::NoPreference;
        }
        let path = &outcome.path;
        if path.contains(&i) {
            VpClass::FirstValid
        } else if path.contains(&i2) {
            VpClass::MostRecent
        } else if path.contains(&i1) {
            VpClass::NoPreference
        } else {
            // Picked I3 (longest): treat as a most-recent-like preference
            // variant; the paper's VP2 is "most recent, then longest".
            VpClass::MostRecent
        }
    }

    /// Test 5 — KID matching priority. Served order:
    /// `[E, I1(kid mismatch), I2(kid absent), I(kid match), R]`.
    pub fn test_kid_priority(&self, engine: &ChainEngine) -> KpClass {
        let (leaf, certs) = self.same_key_intermediates(
            "kid",
            &[
                (
                    "mismatch",
                    CertificateBuilder::ca_profile(DistinguishedName::cn("Priority CA kid"))
                        .skid(KidMode::Custom(vec![0xAB; 20])),
                ),
                (
                    "absent",
                    CertificateBuilder::ca_profile(DistinguishedName::cn("Priority CA kid"))
                        .skid(KidMode::Absent),
                ),
                (
                    "match",
                    CertificateBuilder::ca_profile(DistinguishedName::cn("Priority CA kid")),
                ),
            ],
        );
        let (i_mismatch, i_absent, i_match) =
            (certs[0].clone(), certs[1].clone(), certs[2].clone());
        let served = vec![
            leaf,
            i_mismatch.clone(),
            i_absent.clone(),
            i_match.clone(),
            self.root.clone(),
        ];
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&served, &self.ctx(&checker));
        if !outcome.accepted() {
            return KpClass::NoPreference;
        }
        let path = &outcome.path;
        if path.contains(&i_mismatch) {
            KpClass::NoPreference
        } else if path.contains(&i_absent) {
            KpClass::MatchOrAbsentFirst
        } else {
            KpClass::MatchFirst
        }
    }

    /// Test 6 — KeyUsage correctness priority. Served order:
    /// `[E, I1(wrong KU), I2(no KU), I(correct KU), R]`. Returns KUP?
    pub fn test_key_usage_priority(&self, engine: &ChainEngine) -> bool {
        let dn = DistinguishedName::cn("Priority CA ku");
        let (leaf, certs) = self.same_key_intermediates(
            "ku",
            &[
                (
                    "wrong",
                    CertificateBuilder::new(dn.clone())
                        .basic_constraints(Some(BasicConstraints::ca()))
                        .key_usage(Some(KeyUsage::no_cert_sign())),
                ),
                (
                    "absent",
                    CertificateBuilder::new(dn.clone())
                        .basic_constraints(Some(BasicConstraints::ca())),
                ),
                (
                    "correct",
                    CertificateBuilder::new(dn.clone())
                        .basic_constraints(Some(BasicConstraints::ca()))
                        .key_usage(Some(KeyUsage::ca())),
                ),
            ],
        );
        let i_wrong = certs[0].clone();
        let served = vec![
            leaf,
            i_wrong.clone(),
            certs[1].clone(),
            certs[2].clone(),
            self.root.clone(),
        ];
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&served, &self.ctx(&checker));
        outcome.accepted() && !outcome.path.contains(&i_wrong)
    }

    /// Test 7 — BasicConstraints (path length) priority. Chain
    /// E ← I1 ← {I2 (good len), I3 (len 0, violated)} ← R; served
    /// `[E, I1, I3(bad), I2(good), R]`. Returns BP?
    pub fn test_basic_constraints_priority(&self, engine: &ChainEngine) -> bool {
        let g = Group::simulation_256();
        let shared_kp = KeyPair::from_seed(g, b"capability/bc/shared");
        let i1_kp = KeyPair::from_seed(g, b"capability/bc/i1");
        let leaf_kp = KeyPair::from_seed(g, b"capability/bc/leaf");
        let shared_dn = DistinguishedName::cn("Priority CA bc");
        let i1_dn = DistinguishedName::cn("BC I1");
        let good = CertificateBuilder::new(shared_dn.clone())
            .basic_constraints(Some(BasicConstraints::ca_with_path_len(3)))
            .key_usage(Some(KeyUsage::ca()))
            .issued_by(&shared_kp.public, self.root_dn.clone(), &self.root_kp);
        let bad = CertificateBuilder::new(shared_dn.clone())
            .basic_constraints(Some(BasicConstraints::ca_with_path_len(0)))
            .key_usage(Some(KeyUsage::ca()))
            .issued_by(&shared_kp.public, self.root_dn.clone(), &self.root_kp);
        let i1 = CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(
            &i1_kp.public,
            shared_dn,
            &shared_kp,
        );
        let e =
            CertificateBuilder::leaf_profile("bc.cap").issued_by(&leaf_kp.public, i1_dn, &i1_kp);
        let served = vec![e, i1, bad.clone(), good.clone(), self.root.clone()];
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&served, &self.ctx(&checker));
        outcome.accepted() && outcome.path.contains(&good) && !outcome.path.contains(&bad)
    }

    /// Test 8 — maximum constructible chain length. Probes total path
    /// lengths (leaf + intermediates + root) up to [`MAX_LEN_PROBE`].
    pub fn test_max_path_len(&self, engine: &ChainEngine) -> MaxLen {
        let mut last_ok = 0usize;
        for total in [
            3usize,
            6,
            8,
            9,
            10,
            11,
            13,
            14,
            16,
            17,
            21,
            22,
            30,
            40,
            52,
            MAX_LEN_PROBE,
        ] {
            if self.deep_chain_accepted(engine, total) {
                last_ok = total;
            } else {
                // Refine: the failure threshold lies in (last_ok, total].
                for t in (last_ok + 1)..=total {
                    if self.deep_chain_accepted(engine, t) {
                        last_ok = t;
                    } else {
                        return MaxLen::Exact(last_ok);
                    }
                }
            }
        }
        MaxLen::AtLeast(MAX_LEN_PROBE - 1)
    }

    fn deep_chain_accepted(&self, engine: &ChainEngine, total_len: usize) -> bool {
        assert!(total_len >= 2);
        let g = Group::simulation_256();
        let n_ints = total_len - 2;
        let mut chain: Vec<Certificate> = Vec::with_capacity(total_len);
        // Build top-down: root -> I_n -> … -> I_1 -> E.
        let mut issuer_dn = self.root_dn.clone();
        let mut issuer_kp = self.root_kp.clone();
        let mut tower: Vec<Certificate> = Vec::new();
        for depth in 0..n_ints {
            let kp =
                KeyPair::from_seed(g, format!("capability/deep/{total_len}/{depth}").as_bytes());
            let dn = DistinguishedName::cn(format!("Deep CA {total_len}.{depth}"));
            let cert = CertificateBuilder::ca_profile(dn.clone()).issued_by(
                &kp.public,
                issuer_dn.clone(),
                &issuer_kp,
            );
            tower.push(cert);
            issuer_dn = dn;
            issuer_kp = kp;
        }
        let leaf_kp = KeyPair::from_seed(g, format!("capability/deep/{total_len}/leaf").as_bytes());
        let leaf = CertificateBuilder::leaf_profile(&format!("deep{total_len}.cap")).issued_by(
            &leaf_kp.public,
            issuer_dn,
            &issuer_kp,
        );
        chain.push(leaf);
        // Compliant order: leaf, I_1 (nearest), …, I_n, root.
        for cert in tower.into_iter().rev() {
            chain.push(cert);
        }
        chain.push(self.root.clone());
        debug_assert_eq!(chain.len(), total_len);
        let checker = IssuanceChecker::new();
        engine.process(&chain, &self.ctx(&checker)).accepted()
    }

    /// Test 9 — self-signed leaf: `{ES, E, I, R}`. Returns true when the
    /// client *allows* the self-signed leaf into construction (i.e. it
    /// does not reject with a self-signed-leaf error).
    pub fn test_self_signed_leaf(&self, engine: &ChainEngine) -> bool {
        let g = Group::simulation_256();
        let es_kp = KeyPair::from_seed(g, b"capability/ssl/es");
        let e = self.leaf_under_int("ssl.cap");
        let es = CertificateBuilder::leaf_profile("ssl.cap").self_signed(&es_kp);
        let served = vec![es, e, self.int_cert.clone(), self.root.clone()];
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&served, &self.ctx(&checker));
        outcome.verdict != Err(ClientError::SelfSignedLeaf)
    }

    /// Run all nine tests against an engine (one Table 9 row).
    pub fn evaluate(&self, engine: &ChainEngine) -> CapabilityRow {
        CapabilityRow {
            order_reorganization: self.test_order_reorganization(engine),
            redundancy_elimination: self.test_redundancy_elimination(engine),
            aia_completion: self.test_aia_completion(engine),
            validity_priority: self.test_validity_priority(engine),
            kid_priority: self.test_kid_priority(engine),
            key_usage_priority: self.test_key_usage_priority(engine),
            basic_constraints_priority: self.test_basic_constraints_priority(engine),
            max_path_len: self.test_max_path_len(engine),
            self_signed_leaf: self.test_self_signed_leaf(engine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::clients::ClientKind;

    fn suite() -> CapabilitySuite {
        CapabilitySuite::new(1)
    }

    #[test]
    fn chrome_row_matches_table9() {
        let s = suite();
        let row = s.evaluate(&ClientKind::Chrome.engine());
        assert!(row.order_reorganization);
        assert!(row.redundancy_elimination);
        assert!(row.aia_completion);
        assert_eq!(row.validity_priority, VpClass::MostRecent);
        assert_eq!(row.kid_priority, KpClass::MatchFirst);
        assert!(row.key_usage_priority);
        assert!(row.basic_constraints_priority);
        assert_eq!(row.max_path_len, MaxLen::AtLeast(52));
        assert!(!row.self_signed_leaf);
    }

    #[test]
    fn mbedtls_row_matches_table9() {
        let s = suite();
        let row = s.evaluate(&ClientKind::MbedTls.engine());
        assert!(!row.order_reorganization, "MbedTLS cannot reorder");
        assert!(row.redundancy_elimination, "forward scan skips junk");
        assert!(!row.aia_completion);
        assert_eq!(row.validity_priority, VpClass::FirstValid);
        assert_eq!(row.kid_priority, KpClass::NoPreference);
        assert!(row.key_usage_priority, "partial validation acts as KUP");
        assert!(row.basic_constraints_priority);
        assert_eq!(row.max_path_len, MaxLen::Exact(10));
        assert!(row.self_signed_leaf);
    }

    #[test]
    fn openssl_row_matches_table9() {
        let s = suite();
        let row = s.evaluate(&ClientKind::OpenSsl.engine());
        assert!(row.order_reorganization);
        assert!(!row.aia_completion);
        assert_eq!(row.validity_priority, VpClass::FirstValid);
        assert_eq!(row.kid_priority, KpClass::MatchOrAbsentFirst);
        assert!(!row.key_usage_priority);
        assert!(!row.basic_constraints_priority);
        assert_eq!(row.max_path_len, MaxLen::AtLeast(52));
        assert!(!row.self_signed_leaf);
    }

    #[test]
    fn gnutls_row_matches_table9() {
        let s = suite();
        let row = s.evaluate(&ClientKind::GnuTls.engine());
        assert!(row.order_reorganization);
        assert!(!row.aia_completion);
        assert_eq!(row.validity_priority, VpClass::NoPreference);
        assert_eq!(row.kid_priority, KpClass::MatchOrAbsentFirst);
        // List limit of 16 certificates.
        assert_eq!(row.max_path_len, MaxLen::Exact(16));
        assert!(!row.self_signed_leaf);
    }

    #[test]
    fn firefox_row_matches_table9() {
        let s = suite();
        let row = s.evaluate(&ClientKind::Firefox.engine());
        assert!(row.order_reorganization);
        assert!(!row.aia_completion, "no AIA (cache not loaded here)");
        assert_eq!(row.validity_priority, VpClass::FirstValid);
        assert_eq!(row.kid_priority, KpClass::NoPreference);
        assert_eq!(row.max_path_len, MaxLen::Exact(8));
        assert!(!row.self_signed_leaf);
    }

    #[test]
    fn cryptoapi_and_edge_and_safari_rows() {
        let s = suite();
        let capi = s.evaluate(&ClientKind::CryptoApi.engine());
        assert!(capi.aia_completion);
        assert_eq!(capi.validity_priority, VpClass::MostRecent);
        assert_eq!(capi.kid_priority, KpClass::MatchFirst);
        assert_eq!(capi.max_path_len, MaxLen::Exact(13));
        assert!(!capi.self_signed_leaf);

        let edge = s.evaluate(&ClientKind::Edge.engine());
        assert_eq!(edge.max_path_len, MaxLen::Exact(21));
        assert_eq!(edge.kid_priority, KpClass::MatchFirst);

        let safari = s.evaluate(&ClientKind::Safari.engine());
        assert_eq!(safari.kid_priority, KpClass::MatchOrAbsentFirst);
        assert_eq!(safari.max_path_len, MaxLen::AtLeast(52));
        assert!(safari.self_signed_leaf);
        assert_eq!(safari.validity_priority, VpClass::MostRecent);
    }
}
