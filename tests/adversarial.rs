//! Adversarial-topology tests: cyclic cross-signing (the CVE-2024-0567
//! GnuTLS DoS pattern the paper's introduction cites), self-issued spam,
//! and absurdly long duplicate runs. The invariant under test is always:
//! every engine terminates with a defined verdict, never hangs or panics.

use chain_chaos::asn1::Time;
use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::{analyze_order, BuildContext, IssuanceChecker, TopologyGraph};
use chain_chaos::crypto::{Group, KeyPair};
use chain_chaos::netsim::AiaRepository;
use chain_chaos::rootstore::RootStore;
use chain_chaos::x509::{Certificate, CertificateBuilder, DistinguishedName};

fn now() -> Time {
    Time::from_ymd(2024, 7, 1).expect("literal date is valid")
}

/// Two CAs that cross-sign EACH OTHER: A-signed-by-B and B-signed-by-A,
/// forming a cycle with no root.
fn cyclic_cross_sign() -> Vec<Certificate> {
    let g = Group::simulation_256();
    let a_kp = KeyPair::from_seed(g, b"cycle-a");
    let b_kp = KeyPair::from_seed(g, b"cycle-b");
    let leaf_kp = KeyPair::from_seed(g, b"cycle-leaf");
    let a_dn = DistinguishedName::cn("Cycle CA A");
    let b_dn = DistinguishedName::cn("Cycle CA B");
    let a_by_b =
        CertificateBuilder::ca_profile(a_dn.clone()).issued_by(&a_kp.public, b_dn.clone(), &b_kp);
    let b_by_a =
        CertificateBuilder::ca_profile(b_dn.clone()).issued_by(&b_kp.public, a_dn.clone(), &a_kp);
    let leaf =
        CertificateBuilder::leaf_profile("cycle.sim").issued_by(&leaf_kp.public, a_dn, &a_kp);
    vec![leaf, a_by_b, b_by_a]
}

#[test]
fn cyclic_cross_signing_terminates_everywhere() {
    let served = cyclic_cross_sign();
    let checker = IssuanceChecker::new();
    // Topology enumeration is finite (simple paths cut the cycle).
    let graph = TopologyGraph::build(&served, &checker);
    assert!(!graph.paths.is_empty());
    for path in &graph.paths {
        assert!(path.len() <= 3);
    }
    // Surprisingly the LIST is order-compliant (leaf <- A <- B is the
    // served order; the B <- A cycle edge never appears in a simple
    // path) — the cycle bites as *unanchorable completeness*, which is
    // exactly how CVE-2024-0567-style inputs present.
    let order = analyze_order(&served, &checker);
    assert!(order.is_compliant());

    // Every client returns a defined verdict (nobody can anchor a cycle
    // with an empty trust store).
    let store = RootStore::new("empty", vec![]);
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store: &store,
        aia: Some(&aia),
        cache: &[],
        now: now(),
        checker: &checker,
    };
    for kind in ClientKind::ALL {
        let outcome = kind.engine().process(&served, &ctx);
        assert!(
            !outcome.accepted(),
            "{} accepted a rootless cycle",
            kind.name()
        );
    }
}

#[test]
fn cyclic_cross_signing_with_trusted_escape() {
    // Same cycle, but CA A also has a root-signed certificate in the
    // list: backtracking clients must find the escape hatch.
    let g = Group::simulation_256();
    let mut served = cyclic_cross_sign();
    let root_kp = KeyPair::from_seed(g, b"cycle-root");
    let root_dn = DistinguishedName::cn("Cycle Root");
    let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
    let a_kp = KeyPair::from_seed(g, b"cycle-a");
    let a_by_root = CertificateBuilder::ca_profile(DistinguishedName::cn("Cycle CA A")).issued_by(
        &a_kp.public,
        root_dn,
        &root_kp,
    );
    served.push(a_by_root);

    let checker = IssuanceChecker::new();
    let store = RootStore::new("with-root", vec![root]);
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store: &store,
        aia: Some(&aia),
        cache: &[],
        now: now(),
        checker: &checker,
    };
    let chrome = ClientKind::Chrome.engine().process(&served, &ctx);
    assert!(chrome.accepted(), "{:?}", chrome.verdict);
    // OpenSSL walks into the cycle first; without backtracking it fails.
    let openssl = ClientKind::OpenSsl.engine().process(&served, &ctx);
    let _ = openssl; // either verdict is defined; just must not hang
}

#[test]
fn fifty_duplicates_of_everything() {
    let g = Group::simulation_256();
    let root_kp = KeyPair::from_seed(g, b"dup-root");
    let leaf_kp = KeyPair::from_seed(g, b"dup-leaf");
    let root_dn = DistinguishedName::cn("Dup Root");
    let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
    let leaf =
        CertificateBuilder::leaf_profile("dup.sim").issued_by(&leaf_kp.public, root_dn, &root_kp);
    let mut served = vec![leaf];
    for _ in 0..50 {
        served.push(root.clone());
    }

    let checker = IssuanceChecker::new();
    let order = analyze_order(&served, &checker);
    assert_eq!(order.duplicates.root, 49);
    let graph = TopologyGraph::build(&served, &checker);
    assert_eq!(graph.unique_len(), 2, "dedup collapses the spam");

    let store = RootStore::new("s", vec![root]);
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store: &store,
        aia: Some(&aia),
        cache: &[],
        now: now(),
        checker: &checker,
    };
    for kind in ClientKind::ALL {
        let outcome = kind.engine().process(&served, &ctx);
        if kind == ClientKind::GnuTls {
            // 51 > its 16-certificate list limit.
            assert!(!outcome.accepted());
        } else {
            assert!(outcome.accepted(), "{}: {:?}", kind.name(), outcome.verdict);
        }
    }
}

#[test]
fn all_self_signed_junk_list() {
    let g = Group::simulation_256();
    let mut served = Vec::new();
    for i in 0..8 {
        let kp = KeyPair::from_seed(g, format!("junk-{i}").as_bytes());
        served.push(
            CertificateBuilder::ca_profile(DistinguishedName::cn(format!("Junk {i}")))
                .self_signed(&kp),
        );
    }
    let checker = IssuanceChecker::new();
    let store = RootStore::new("empty", vec![]);
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store: &store,
        aia: Some(&aia),
        cache: &[],
        now: now(),
        checker: &checker,
    };
    for kind in ClientKind::ALL {
        let outcome = kind.engine().process(&served, &ctx);
        assert!(!outcome.accepted());
    }
}

#[test]
fn same_subject_many_keys_candidate_storm() {
    // 12 intermediates share the subject DN but have DIFFERENT keys; only
    // one actually signed the leaf. Backtracking clients must try
    // candidates until the signature matches, and still terminate fast.
    let g = Group::simulation_256();
    let root_kp = KeyPair::from_seed(g, b"storm-root");
    let root_dn = DistinguishedName::cn("Storm Root");
    let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
    let shared_dn = DistinguishedName::cn("Storm CA");
    let mut intermediates = Vec::new();
    let mut signer = None;
    for i in 0..12 {
        let kp = KeyPair::from_seed(g, format!("storm-{i}").as_bytes());
        let cert = CertificateBuilder::ca_profile(shared_dn.clone()).issued_by(
            &kp.public,
            root_dn.clone(),
            &root_kp,
        );
        intermediates.push(cert);
        if i == 7 {
            signer = Some(kp);
        }
    }
    let signer = signer.unwrap();
    let leaf_kp = KeyPair::from_seed(g, b"storm-leaf");
    let leaf = CertificateBuilder::leaf_profile("storm.sim").issued_by(
        &leaf_kp.public,
        shared_dn,
        &signer,
    );
    let mut served = vec![leaf];
    served.extend(intermediates);

    let checker = IssuanceChecker::new();
    let store = RootStore::new("s", vec![root]);
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store: &store,
        aia: Some(&aia),
        cache: &[],
        now: now(),
        checker: &checker,
    };
    let chrome = ClientKind::Chrome.engine().process(&served, &ctx);
    assert!(chrome.accepted(), "{:?}", chrome.verdict);
    // KID priority should steer Chrome straight to the right candidate
    // (the leaf's AKID names intermediate #7's key).
    assert!(
        chrome.stats.candidates_considered <= 6,
        "{:?}",
        chrome.stats
    );
}
