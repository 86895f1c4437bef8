//! Cross-crate consistency of the calibrated corpus: compliance analysis,
//! differential testing, and root-store completeness must agree with the
//! generator's ground truth.

use chain_chaos::asn1::Time;
use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::{
    analyze_compliance, CompletenessAnalyzer, DifferentialHarness, IssuanceChecker, TopologyGraph,
};
use chain_chaos::crypto::sha256::Sha256;
use chain_chaos::crypto::{Group, KeyPair, PublicKey};
use chain_chaos::rootstore::RootProgram;
use chain_chaos::testgen::corpus::scan_time;
use chain_chaos::testgen::scenarios::ScenarioSet;
use chain_chaos::testgen::{Corpus, CorpusSpec, PlannedDefect};
use chain_chaos::x509::{
    AuthorityInfoAccess, AuthorityKeyIdentifier, BasicConstraints, Certificate, CertificateBuilder,
    DistinguishedName, ExtendedKeyUsage, KeyUsage, KidMode, SubjectAltName, Validity,
};

fn corpus(n: usize) -> Corpus {
    Corpus::new(CorpusSpec::calibrated(4242, n))
}

#[test]
fn compliant_observations_accepted_by_every_client() {
    let corpus = corpus(300);
    let checker = IssuanceChecker::new();
    let cache = corpus.intermediate_cache();
    let harness = DifferentialHarness::new(
        corpus.programs.unified(),
        Some(&corpus.aia),
        cache,
        scan_time(),
        &checker,
    );
    let analyzer =
        CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
    let mut checked = 0;
    corpus.for_each(|obs| {
        if obs.planned != PlannedDefect::None || obs.terminal_akid_absent {
            return;
        }
        let report = analyze_compliance(&obs.domain, &obs.served, &checker, &analyzer);
        assert!(
            report.is_compliant(),
            "{}: {:?}",
            obs.domain,
            report.findings
        );
        let result = harness.run(&obs.served);
        for (kind, outcome) in &result.outcomes {
            assert!(
                outcome.accepted(),
                "{} rejected compliant {}: {:?}",
                kind.name(),
                obs.domain,
                outcome.verdict
            );
        }
        checked += 1;
    });
    assert!(checked > 150, "too few compliant observations: {checked}");
}

#[test]
fn akid_absent_chains_need_aia_for_completeness() {
    let corpus = corpus(600);
    let checker = IssuanceChecker::new();
    let unified = corpus.programs.unified();
    let analyzer = CompletenessAnalyzer::new(&checker, unified, Some(&corpus.aia));
    let mut checked = 0;
    corpus.for_each(|obs| {
        if !obs.terminal_akid_absent || obs.planned != PlannedDefect::None {
            return;
        }
        // Skip deployments that appended the root (self-signed terminal
        // needs no AKID matching).
        if obs
            .served
            .last()
            .map(|c| c.is_self_issued())
            .unwrap_or(true)
        {
            return;
        }
        let graph = TopologyGraph::build(&obs.served, &checker);
        assert!(
            analyzer.client_complete(&graph, unified, true),
            "{} with AIA",
            obs.domain
        );
        assert!(
            !analyzer.client_complete(&graph, unified, false),
            "{} without AIA should be unanchorable",
            obs.domain
        );
        checked += 1;
    });
    assert!(checked > 50, "too few AKID-absent observations: {checked}");
}

#[test]
fn incomplete_chains_fail_non_aia_libraries() {
    let corpus = corpus(2000);
    let checker = IssuanceChecker::new();
    let harness = DifferentialHarness::new(
        corpus.programs.unified(),
        Some(&corpus.aia),
        corpus.intermediate_cache(),
        scan_time(),
        &checker,
    );
    let mut seen = 0;
    corpus.for_each(|obs| {
        if obs.planned != PlannedDefect::Incomplete {
            return;
        }
        seen += 1;
        let result = harness.run(&obs.served);
        let get = |k: ClientKind| {
            result
                .outcomes
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, o)| o.accepted())
                .unwrap()
        };
        assert!(!get(ClientKind::OpenSsl), "{}", obs.domain);
        assert!(!get(ClientKind::GnuTls), "{}", obs.domain);
        assert!(!get(ClientKind::MbedTls), "{}", obs.domain);
        // AIA clients succeed unless the AIA chain itself is broken
        // (missing field / dead URI variants) — then nobody does.
        let aia_ok = obs
            .served
            .first()
            .and_then(|c| c.aia_ca_issuers_uri().map(|u| !u.contains("/dead/")))
            .unwrap_or(false);
        if aia_ok {
            assert!(
                get(ClientKind::Chrome),
                "{} should AIA-complete",
                obs.domain
            );
            assert!(get(ClientKind::CryptoApi), "{}", obs.domain);
        } else {
            assert!(!get(ClientKind::Chrome), "{} unfixable", obs.domain);
        }
    });
    assert!(seen >= 10, "too few incomplete observations: {seen}");
}

#[test]
fn regional_chains_are_store_sensitive() {
    // Crank the regional rate so a small corpus contains them.
    let mut spec = CorpusSpec::calibrated(7, 400);
    spec.regional_mz_rate = 0.05;
    let corpus = Corpus::new(spec);
    let checker = IssuanceChecker::new();
    let mut seen = 0;
    corpus.for_each(|obs| {
        if obs.ca != "Regional (MZ-excluded)" {
            return;
        }
        seen += 1;
        let graph = TopologyGraph::build(&obs.served, &checker);
        let unified = corpus.programs.unified();
        let analyzer = CompletenessAnalyzer::new(&checker, unified, Some(&corpus.aia));
        let store = |p| corpus.programs.store(p);
        assert!(
            analyzer.client_complete(&graph, unified, true),
            "{}",
            obs.domain
        );
        assert!(
            !analyzer.client_complete(&graph, store(RootProgram::Mozilla), true),
            "{}",
            obs.domain
        );
        assert!(
            analyzer.client_complete(&graph, store(RootProgram::Microsoft), true),
            "{}",
            obs.domain
        );
    });
    assert!(seen >= 5, "regional population missing: {seen}");
}

#[test]
fn corpus_streaming_matches_collect() {
    let corpus = corpus(50);
    let collected = corpus.collect();
    let mut streamed = Vec::new();
    corpus.for_each(|obs| streamed.push(obs));
    assert_eq!(collected.len(), streamed.len());
    for (a, b) in collected.iter().zip(&streamed) {
        assert_eq!(a.served, b.served);
        assert_eq!(a.planned, b.planned);
        assert_eq!(a.ca, b.ca);
    }
}

/// SHA-256 over every certificate byte the generator emits, as lowercase
/// hex. Changing an encoder must leave it alone: a new value here means
/// some certificate's DER moved, and every table and golden built on the
/// corpus may move with it.
const CERTIFICATE_BYTES_SHA256: &str =
    "214922797d4ebfe1d0fe3f59e0b4c47ad5371981f57151fbd022d26fec71a274";

/// Hash `cert`'s DER and TBS, and check that decoding its DER gives the
/// view it was built with.
fn absorb(h: &mut Sha256, cert: &Certificate) {
    h.update(cert.to_der());
    h.update(cert.tbs_der());
    let decoded = Certificate::from_der(cert.to_der()).expect("a generated certificate decodes");
    assert_eq!(view(&decoded), view(cert), "{cert}");
}

/// Every field a certificate's readers use.
#[allow(clippy::type_complexity)]
fn view(
    c: &Certificate,
) -> (
    &DistinguishedName,
    &DistinguishedName,
    &[u8],
    Validity,
    &PublicKey,
    Option<&[u8]>,
    Option<&AuthorityKeyIdentifier>,
    Option<BasicConstraints>,
    Option<KeyUsage>,
    Option<&SubjectAltName>,
    Option<&AuthorityInfoAccess>,
    Option<&ExtendedKeyUsage>,
) {
    (
        c.subject(),
        c.issuer(),
        c.serial(),
        c.validity(),
        c.public_key(),
        c.skid(),
        c.akid(),
        c.basic_constraints(),
        c.key_usage(),
        c.san(),
        c.aia(),
        c.eku(),
    )
}

/// Certificates that exercise the builder's knobs and the encoder's
/// length forms: a SAN name and an AIA URI of every length from 0 to 300
/// bytes carry the SAN value, the extension list and the `[3]` wrapper
/// across the 128- and 256-byte boundaries, where a length grows from one
/// octet to two and from two to three, and the TBS and the certificate
/// across the 256-byte one.
fn knob_certificates() -> Vec<Certificate> {
    let g = Group::simulation_256();
    let ca = KeyPair::from_seed(g, b"pin/ca");
    let subject = KeyPair::from_seed(g, b"pin/subject");
    let ca_dn = DistinguishedName::cn_o("Pin CA", "chain-chaos");
    let issue = |b: CertificateBuilder| b.issued_by(&subject.public, ca_dn.clone(), &ca);
    let date = |y, m, d| Time::from_ymd(y, m, d).expect("literal date is valid");
    let mut certs = vec![
        issue(
            CertificateBuilder::leaf_profile("custom.sim")
                .skid(KidMode::Custom(vec![0x5a; 20]))
                .akid(KidMode::Custom(vec![0xa5; 7])),
        ),
        issue(
            CertificateBuilder::leaf_profile("absent.sim")
                .skid(KidMode::Absent)
                .akid(KidMode::Absent),
        ),
        issue(CertificateBuilder::leaf_profile("corrupt.sim").corrupt_signature(true)),
        issue(
            CertificateBuilder::ca_profile(DistinguishedName::cn_o("Pin Sub", "chain-chaos"))
                .basic_constraints(Some(BasicConstraints::ca_with_path_len(0))),
        ),
        issue(
            CertificateBuilder::ca_profile(DistinguishedName::cn("Pin Deep"))
                .basic_constraints(Some(BasicConstraints::ca_with_path_len(300))),
        ),
        // GeneralizedTime on both sides of the UTCTime window.
        issue(
            CertificateBuilder::leaf_profile("late.sim")
                .validity(date(2049, 6, 1), date(2051, 1, 1)),
        ),
        issue(
            CertificateBuilder::leaf_profile("early.sim")
                .validity(date(1949, 12, 31), date(1950, 1, 1)),
        ),
        CertificateBuilder::ca_profile(ca_dn.clone()).self_signed(&ca),
        CertificateBuilder::new(DistinguishedName::empty())
            .skid(KidMode::Absent)
            .akid(KidMode::Absent)
            .self_signed(&subject),
    ];
    let bare = |n: usize| {
        CertificateBuilder::new(DistinguishedName::cn(format!("pin{n}")))
            .skid(KidMode::Absent)
            .akid(KidMode::Absent)
    };
    for n in 0..=300 {
        let name = format!("{}.sim", "a".repeat(n));
        certs.push(issue(bare(n).san(Some(SubjectAltName::dns(&[&name])))));
        let uri = format!("http://aia.sim/{}", "u".repeat(n));
        certs.push(issue(
            bare(n).aia(Some(AuthorityInfoAccess::ca_issuers(uri))),
        ));
    }
    certs
}

#[test]
fn every_certificate_byte_is_pinned() {
    let mut h = Sha256::new();
    let corpus = Corpus::new(CorpusSpec::calibrated(833, 2000));
    corpus.for_each(|obs| {
        for cert in &obs.served {
            absorb(&mut h, cert);
        }
    });
    for root in &corpus.universe.roots {
        absorb(&mut h, &root.cert);
        for int in &root.intermediates {
            absorb(&mut h, &int.cert);
            absorb(&mut h, &int.cert_no_akid);
        }
    }
    for cross in &corpus.universe.cross_signed {
        absorb(&mut h, &cross.cross_cert);
    }
    let mut published: Vec<_> = corpus.universe.aia_publications().into_iter().collect();
    published.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, cert) in &published {
        absorb(&mut h, cert);
    }
    let scenarios = ScenarioSet::new(833);
    let (fig5, candidate_a, candidate_b) = scenarios.figure5();
    for scenario in [
        scenarios.figure2a(),
        scenarios.figure2b(),
        scenarios.figure2c(),
        scenarios.figure2d(),
        scenarios.figure3(),
        scenarios.figure4(),
        fig5,
    ] {
        for cert in &scenario.served {
            absorb(&mut h, cert);
        }
    }
    for cert in [
        &candidate_a,
        &candidate_b,
        scenarios.trusted_root(),
        scenarios.gov_root(),
    ] {
        absorb(&mut h, cert);
    }
    for cert in &knob_certificates() {
        absorb(&mut h, cert);
    }
    let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, CERTIFICATE_BYTES_SHA256);
}
