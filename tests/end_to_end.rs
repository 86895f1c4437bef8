//! End-to-end integration: CA issuance → administrator assembly → HTTP
//! server deployment → TLS wire framing over a real socket → client chain
//! construction → validation.

use chain_chaos::asn1::Time;
use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::{BuildContext, IssuanceChecker};
use chain_chaos::crypto::Drbg;
use chain_chaos::netsim::admin::{assemble, AdminBehavior};
use chain_chaos::netsim::ca::CaProfile;
use chain_chaos::netsim::handshake::loopback_roundtrip;
use chain_chaos::netsim::httpserver::HttpServerKind;
use chain_chaos::netsim::AiaRepository;
use chain_chaos::rootstore::{CaUniverse, RootPrograms};

struct World {
    universe: CaUniverse,
    programs: RootPrograms,
    aia: AiaRepository,
    checker: IssuanceChecker,
}

fn world() -> World {
    let universe = CaUniverse::default_with_seed(77);
    let programs = RootPrograms::from_universe(&universe);
    let aia = AiaRepository::new(universe.aia_publications());
    World {
        universe,
        programs,
        aia,
        checker: IssuanceChecker::new(),
    }
}

fn now() -> Time {
    Time::from_ymd(2024, 7, 1).expect("literal date is valid")
}

#[test]
fn issued_deployed_served_and_validated() {
    let w = world();
    let profiles = CaProfile::all();

    for (pi, profile) in profiles.iter().enumerate() {
        let domain = format!("e2e-{pi}.sim");
        let bundle = profile.issue(
            &w.universe,
            0,
            &domain,
            Time::from_ymd(2024, 2, 1).expect("literal date is valid"),
            Time::from_ymd(2025, 2, 1).expect("literal date is valid"),
            &mut Drbg::from_u64(1000 + pi as u64),
            false,
        );
        // A careful admin on Nginx.
        let files = assemble(&bundle, &AdminBehavior::FollowGuide, HttpServerKind::Nginx);
        let deployed = HttpServerKind::Nginx.deploy(&files).expect("deploys");

        // Over the wire.
        let received = loopback_roundtrip(&deployed).expect("handshake");
        assert_eq!(received, deployed);

        // Every client validates the guided deployment.
        let ctx = BuildContext {
            store: w.programs.unified(),
            aia: Some(&w.aia),
            cache: &[],
            now: now(),
            checker: &w.checker,
        };
        for kind in ClientKind::ALL {
            let outcome = kind.engine().process(&received, &ctx);
            assert!(
                outcome.accepted(),
                "{} rejected {domain} ({}): {:?}",
                kind.name(),
                profile.name,
                outcome.verdict
            );
        }
    }
}

#[test]
fn reversed_reseller_delivery_surfaces_on_the_wire() {
    let w = world();
    let profiles = CaProfile::all();
    let gogetssl = profiles.iter().find(|p| p.name == "GoGetSSL").unwrap();
    let bundle = gogetssl.issue(
        &w.universe,
        0,
        "naive.sim",
        Time::from_ymd(2024, 2, 1).expect("literal date is valid"),
        Time::from_ymd(2025, 2, 1).expect("literal date is valid"),
        &mut Drbg::from_u64(2),
        false,
    );
    // A naive merge of reversed files on Apache.
    let files = assemble(
        &bundle,
        &AdminBehavior::NaiveMerge,
        HttpServerKind::ApacheOld,
    );
    let deployed = HttpServerKind::ApacheOld.deploy(&files).expect("deploys");
    let received = loopback_roundtrip(&deployed).expect("handshake");

    // The wire preserves the non-compliant order…
    let order = chain_chaos::core::analyze_order(&received, &w.checker);
    assert!(order.has_reversed());

    // …and reordering clients still validate it.
    let ctx = BuildContext {
        store: w.programs.unified(),
        aia: Some(&w.aia),
        cache: &[],
        now: now(),
        checker: &w.checker,
    };
    let chrome = ClientKind::Chrome.engine().process(&received, &ctx);
    assert!(chrome.accepted());
    // The constructed path is in proper order even though the wire wasn't.
    let path = &chrome.path;
    for pair in path.windows(2) {
        assert!(w.checker.issues(&pair[1], &pair[0]));
    }
}

#[test]
fn azure_blocks_duplicate_leaf_end_to_end() {
    let w = world();
    let profiles = CaProfile::all();
    let zerossl = profiles.iter().find(|p| p.name == "ZeroSSL").unwrap();
    let bundle = zerossl.issue(
        &w.universe,
        0,
        "azure.sim",
        Time::from_ymd(2024, 2, 1).expect("literal date is valid"),
        Time::from_ymd(2025, 2, 1).expect("literal date is valid"),
        &mut Drbg::from_u64(3),
        false,
    );
    let files = assemble(
        &bundle,
        &AdminBehavior::LeafInChainFile,
        HttpServerKind::AzureAppGateway,
    );
    assert!(HttpServerKind::AzureAppGateway.deploy(&files).is_err());
    // The same files sail through Apache, and the duplicate reaches
    // clients.
    let files = assemble(
        &bundle,
        &AdminBehavior::LeafInChainFile,
        HttpServerKind::ApacheOld,
    );
    let deployed = HttpServerKind::ApacheOld
        .deploy(&files)
        .expect("apache accepts");
    let received = loopback_roundtrip(&deployed).expect("handshake");
    let order = chain_chaos::core::analyze_order(&received, &w.checker);
    assert_eq!(order.duplicates.leaf, 1);
}

#[test]
fn aia_completion_over_full_stack() {
    let w = world();
    // Serve ONLY the leaf; CryptoAPI recovers via two AIA fetches
    // (intermediate, then the root is matched in the store).
    let int = &w.universe.roots[1].intermediates[0];
    let kp = chain_chaos::crypto::KeyPair::from_seed(
        chain_chaos::crypto::Group::simulation_256(),
        b"e2e-aia",
    );
    let leaf = chain_chaos::x509::CertificateBuilder::leaf_profile("lonely.sim")
        .aia_ca_issuers(int.aia_uri.clone())
        .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
    let received = loopback_roundtrip(std::slice::from_ref(&leaf)).expect("handshake");
    assert_eq!(received.len(), 1);

    let ctx = BuildContext {
        store: w.programs.unified(),
        aia: Some(&w.aia),
        cache: &[],
        now: now(),
        checker: &w.checker,
    };
    let outcome = ClientKind::CryptoApi.engine().process(&received, &ctx);
    assert!(outcome.accepted(), "{:?}", outcome.verdict);
    assert!(outcome.stats.aia_fetches >= 1);
    assert_eq!(outcome.path.len(), 3, "leaf + fetched intermediate + root");

    let no_aia = ClientKind::OpenSsl.engine().process(&received, &ctx);
    assert!(!no_aia.accepted());
}
