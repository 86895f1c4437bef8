//! One chain per registered rule, each built so that the rule fires at a
//! known site.
//!
//! The snapshot goldens and the 1k corpus exercise only the rules their
//! chains happen to trip, so a rule wired to another rule's check could
//! pass both. Here every registry ID has a case: a chain carrying that
//! rule's defect, linted through [`LintEngine`], with the exact list of
//! sites (the certificate index, or `None` for a chain-level finding)
//! at which the rule reports.

use ccc_asn1::Time;
use ccc_core::IssuanceChecker;
use ccc_crypto::{Group, KeyPair};
use ccc_lint::{registry, rule_by_id, LintEngine};
use ccc_netsim::AiaRepository;
use ccc_rootstore::RootStore;
use ccc_testgen::scenarios::ScenarioSet;
use ccc_x509::{
    BasicConstraints, Certificate, CertificateBuilder, DistinguishedName, KeyUsage, KidMode,
};
use std::collections::{BTreeSet, HashMap};

const DOMAIN: &str = "fire.sim";
const INT_AIA: &str = "http://aia.fire.sim/int.der";

fn keypair(label: &str) -> KeyPair {
    KeyPair::from_seed(
        Group::simulation_256(),
        format!("rule-firing/{label}").as_bytes(),
    )
}

fn date(y: i32, m: u8, d: u8) -> Time {
    Time::from_ymd(y, m, d).expect("literal date is valid")
}

/// Root → intermediate → leaves, with the root trusted and the
/// intermediate published at [`INT_AIA`].
struct Pki {
    root: Certificate,
    root_kp: KeyPair,
    root_dn: DistinguishedName,
    int: Certificate,
    int_kp: KeyPair,
    int_dn: DistinguishedName,
    leaf_kp: KeyPair,
}

impl Pki {
    fn new() -> Pki {
        let root_kp = keypair("root");
        let root_dn = DistinguishedName::cn_o("Firing Root", "chain-chaos");
        let root = CertificateBuilder::ca_profile(root_dn.clone())
            .validity(date(2015, 1, 1), date(2040, 1, 1))
            .self_signed(&root_kp);
        let int_kp = keypair("int");
        let int_dn = DistinguishedName::cn_o("Firing Issuing CA", "chain-chaos");
        let int = CertificateBuilder::ca_profile(int_dn.clone())
            .aia_ca_issuers("http://aia.fire.sim/root.der")
            .issued_by(&int_kp.public, root_dn.clone(), &root_kp);
        Pki {
            root,
            root_kp,
            root_dn,
            int,
            int_kp,
            int_dn,
            leaf_kp: keypair("leaf"),
        }
    }

    /// A leaf for [`DOMAIN`] issued by the intermediate, with its valid
    /// window inside 398 days and an AIA pointer, so only the defect
    /// `edit` plants can make a certificate-scope rule fire on it.
    fn leaf(&self, edit: impl FnOnce(CertificateBuilder) -> CertificateBuilder) -> Certificate {
        let builder = CertificateBuilder::leaf_profile(DOMAIN)
            .validity(date(2024, 1, 1), date(2024, 12, 1))
            .aia_ca_issuers(INT_AIA);
        edit(builder).issued_by(&self.leaf_kp.public, self.int_dn.clone(), &self.int_kp)
    }

    /// A CA under the root with the same subject and key as the
    /// intermediate but the profile `edit` gives it.
    fn int_with(&self, edit: impl FnOnce(CertificateBuilder) -> CertificateBuilder) -> Certificate {
        let builder = CertificateBuilder::ca_profile(self.int_dn.clone())
            .aia_ca_issuers("http://aia.fire.sim/root.der");
        edit(builder).issued_by(&self.int_kp.public, self.root_dn.clone(), &self.root_kp)
    }
}

/// A chain and the sites at which `rule` must report on it, in finding
/// order.
struct Case {
    rule: &'static str,
    domain: &'static str,
    served: Vec<Certificate>,
    sites: Vec<Option<usize>>,
}

fn case(rule: &'static str, served: Vec<Certificate>, sites: &[Option<usize>]) -> Case {
    Case {
        rule,
        domain: DOMAIN,
        served,
        sites: sites.to_vec(),
    }
}

fn cases(pki: &Pki) -> Vec<Case> {
    let int = || pki.int.clone();
    let good_leaf = || pki.leaf(|b| b);
    let unrelated_kp = keypair("unrelated");
    let unrelated =
        CertificateBuilder::ca_profile(DistinguishedName::cn_o("Unrelated CA", "elsewhere"))
            .self_signed(&unrelated_kp);

    // pathLenConstraint 0 on the upper CA, with one more CA below it.
    let capped = pki.int_with(|b| b.basic_constraints(Some(BasicConstraints::ca_with_path_len(0))));
    let lower_kp = keypair("lower");
    let lower_dn = DistinguishedName::cn_o("Firing Lower CA", "chain-chaos");
    let lower = CertificateBuilder::ca_profile(lower_dn.clone()).issued_by(
        &lower_kp.public,
        pki.int_dn.clone(),
        &pki.int_kp,
    );
    let below_lower = CertificateBuilder::leaf_profile(DOMAIN)
        .validity(date(2024, 1, 1), date(2024, 12, 1))
        .issued_by(&pki.leaf_kp.public, lower_dn, &lower_kp);

    let figure2c = ScenarioSet::new(1).figure2c();

    vec![
        // Certificate scope.
        case(
            "e_validity_window_inverted",
            vec![
                pki.leaf(|b| b.validity(date(2024, 12, 1), date(2024, 1, 1))),
                int(),
            ],
            &[Some(0)],
        ),
        case(
            "w_cert_expired",
            vec![
                pki.leaf(|b| b.validity(date(2023, 1, 1), date(2023, 12, 1))),
                int(),
            ],
            &[Some(0)],
        ),
        case(
            "w_cert_not_yet_valid",
            vec![
                pki.leaf(|b| b.validity(date(2024, 9, 1), date(2025, 6, 1))),
                int(),
            ],
            &[Some(0)],
        ),
        case(
            "e_ca_without_basic_constraints",
            vec![good_leaf(), pki.int_with(|b| b.basic_constraints(None))],
            &[Some(1)],
        ),
        case(
            "w_ca_without_key_cert_sign",
            vec![
                good_leaf(),
                pki.int_with(|b| {
                    b.key_usage(Some(KeyUsage {
                        crl_sign: true,
                        ..KeyUsage::default()
                    }))
                }),
            ],
            &[Some(1)],
        ),
        case(
            "w_ca_missing_skid",
            vec![good_leaf(), pki.int_with(|b| b.skid(KidMode::Absent))],
            &[Some(1)],
        ),
        case(
            "w_missing_akid",
            vec![pki.leaf(|b| b.akid(KidMode::Absent)), int()],
            &[Some(0)],
        ),
        case(
            "i_aia_missing",
            vec![good_leaf(), pki.int_with(|b| b.aia(None))],
            &[Some(1)],
        ),
        case(
            "w_leaf_missing_san",
            vec![pki.leaf(|b| b.san(None)), int()],
            &[Some(0)],
        ),
        case(
            "n_leaf_validity_exceeds_398_days",
            vec![
                pki.leaf(|b| b.validity(date(2024, 1, 1), date(2025, 2, 3))),
                int(),
            ],
            &[Some(0)],
        ),
        case(
            "w_nonpositive_serial",
            vec![pki.leaf(|b| b.serial(vec![0])), int()],
            &[Some(0)],
        ),
        // Chain scope.
        case("e_leaf_not_first", vec![int(), good_leaf()], &[None]),
        case(
            "e_chain_duplicate_certificates",
            vec![good_leaf(), int(), int()],
            &[None],
        ),
        case(
            "w_chain_contains_duplicate",
            vec![good_leaf(), int(), int()],
            &[Some(2)],
        ),
        case(
            "e_chain_irrelevant_certificates",
            vec![good_leaf(), int(), unrelated],
            &[Some(2)],
        ),
        Case {
            rule: "e_chain_multiple_paths",
            domain: "fig2c.sim",
            served: figure2c.served,
            sites: vec![None],
        },
        case(
            "e_chain_reversed_order",
            vec![good_leaf(), pki.root.clone(), int()],
            &[None],
        ),
        case("e_chain_incomplete", vec![good_leaf()], &[None]),
        case(
            "w_root_included",
            vec![good_leaf(), int(), pki.root.clone()],
            &[Some(2)],
        ),
        case(
            "e_path_len_violated",
            vec![below_lower, lower, capped],
            &[Some(2)],
        ),
        case(
            "e_kid_mismatch",
            vec![pki.leaf(|b| b.akid(KidMode::Custom(vec![0xAB; 20]))), int()],
            &[Some(0)],
        ),
        case("n_chain_aia_completable", vec![good_leaf()], &[None]),
    ]
}

#[test]
fn the_cases_cover_every_registered_rule() {
    let pki = Pki::new();
    let covered: Vec<&str> = cases(&pki).iter().map(|c| c.rule).collect();
    let unique: BTreeSet<&str> = covered.iter().copied().collect();
    assert_eq!(unique.len(), covered.len(), "a rule has two cases");
    for id in &unique {
        assert!(rule_by_id(id).is_some(), "{id} is not registered");
    }
    assert_eq!(
        unique.len(),
        registry().len(),
        "a registered rule has no case"
    );
}

#[test]
fn each_rule_fires_at_its_site() {
    let pki = Pki::new();
    let store = RootStore::new("firing", vec![pki.root.clone()]);
    let aia = AiaRepository::new(HashMap::from([(INT_AIA.to_string(), pki.int.clone())]));
    let checker = IssuanceChecker::new();
    let engine = LintEngine::new(&checker, &store, Some(&aia), date(2024, 7, 1));

    let mut failures = Vec::new();
    for case in cases(&pki) {
        let findings = engine.lint_chain(case.domain, &case.served);
        let sites: Vec<Option<usize>> = findings
            .iter()
            .filter(|f| f.rule_id == case.rule)
            .map(|f| f.cert_index)
            .collect();
        if sites != case.sites {
            let fired: Vec<String> = findings
                .iter()
                .map(|f| format!("{}@{:?}", f.rule_id, f.cert_index))
                .collect();
            failures.push(format!(
                "{}: reported at {sites:?}, expected {:?} (all findings: {})",
                case.rule,
                case.sites,
                fired.join(", ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
