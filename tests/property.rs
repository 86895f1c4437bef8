//! Property-based tests across the workspace: DER codecs, big integers,
//! chain mutations, and engine robustness.

use chain_chaos::asn1::{Encoder, Parser, Time};
use chain_chaos::bignum::{modpow, Uint};
use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::{BuildContext, IssuanceChecker};
use chain_chaos::crypto::{sha256, Drbg, Group, KeyPair};
use chain_chaos::netsim::tlsmsg;
use chain_chaos::rootstore::{CaUniverse, RootPrograms};
use chain_chaos::testgen::Mutator;
use chain_chaos::x509::{Certificate, CertificateBuilder, DistinguishedName, X509Error};
use proptest::prelude::*;
use std::sync::OnceLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uint_add_sub_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..48),
                              b in proptest::collection::vec(any::<u8>(), 0..48)) {
        let ua = Uint::from_bytes_be(&a);
        let ub = Uint::from_bytes_be(&b);
        let sum = ua.add(&ub);
        prop_assert_eq!(sum.checked_sub(&ub).unwrap(), ua.clone());
        prop_assert_eq!(sum.checked_sub(&ua).unwrap(), ub);
    }

    #[test]
    fn uint_div_rem_reconstructs(a in proptest::collection::vec(any::<u8>(), 0..48),
                                 b in proptest::collection::vec(any::<u8>(), 1..24)) {
        let ua = Uint::from_bytes_be(&a);
        let ub = Uint::from_bytes_be(&b);
        prop_assume!(!ub.is_zero());
        let (q, r) = ua.div_rem(&ub).unwrap();
        prop_assert!(r < ub);
        prop_assert_eq!(q.mul(&ub).add(&r), ua);
    }

    #[test]
    fn uint_bytes_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..64)) {
        let ua = Uint::from_bytes_be(&a);
        let back = Uint::from_bytes_be(&ua.to_bytes_be());
        prop_assert_eq!(back, ua);
    }

    #[test]
    fn modpow_matches_iterated_multiplication(base in 1u64..1000, exp in 0u64..64, modulus in 2u64..10_000) {
        let m = Uint::from_u64(modulus);
        let expected = {
            let mut acc = 1u128;
            for _ in 0..exp {
                acc = acc * base as u128 % modulus as u128;
            }
            Uint::from_u64(acc as u64)
        };
        let got = modpow(&Uint::from_u64(base), &Uint::from_u64(exp), &m).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn der_integer_roundtrip(v in any::<i64>()) {
        let mut enc = Encoder::new();
        enc.integer_i64(v);
        let der = enc.finish();
        let mut p = Parser::new(&der);
        prop_assert_eq!(p.integer_i64().unwrap(), v);
        p.expect_done().unwrap();
    }

    #[test]
    fn der_octet_string_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Encoder::new();
        enc.octet_string(&data);
        let der = enc.finish();
        let mut p = Parser::new(&der);
        prop_assert_eq!(p.octet_string().unwrap(), &data[..]);
    }

    #[test]
    fn parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut p = Parser::new(&data);
        // Walk TLVs until error or exhaustion; must never panic.
        while !p.is_done() {
            if p.read_any().is_err() {
                break;
            }
        }
    }

    #[test]
    fn certificate_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Certificate::from_der(&data);
    }

    #[test]
    fn time_roundtrip(secs in -2_000_000_000i64..4_000_000_000i64) {
        let t = Time::from_unix(secs);
        let dt = t.to_datetime();
        let back = Time::from_ymd_hms(dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)
            .expect("datetime from valid time is valid");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn sha256_is_deterministic_and_length_sensitive(
        data in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let d1 = sha256(&data);
        let d2 = sha256(&data);
        prop_assert_eq!(d1, d2);
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(sha256(&extended), d1);
    }

    #[test]
    fn schnorr_rejects_bit_flips(flip_byte in 0usize..64, flip_bit in 0u8..8) {
        let kp = KeyPair::from_seed(Group::simulation_256(), b"prop-schnorr");
        let mut sig = kp.private.sign(b"property message");
        let bytes_len = 32 + sig.s.len();
        let idx = flip_byte % bytes_len;
        if idx < 32 {
            sig.e[idx] ^= 1 << flip_bit;
        } else {
            sig.s[idx - 32] ^= 1 << flip_bit;
        }
        prop_assert!(!kp.public.verify(b"property message", &sig));
    }
}

/// The DER of one leaf with all seven extensions the builder writes (SAN,
/// BasicConstraints, KeyUsage, EKU, SKID, AKID and AIA), built once.
fn seven_extension_leaf() -> &'static [u8] {
    static LEAF: OnceLock<Vec<u8>> = OnceLock::new();
    LEAF.get_or_init(|| {
        let ca = KeyPair::from_seed(Group::simulation_256(), b"prop-mutant-ca");
        let key = KeyPair::from_seed(Group::simulation_256(), b"prop-mutant-leaf");
        CertificateBuilder::leaf_profile("mutant.sim")
            .aia_ca_issuers("http://aia.sim/mutant-ca.crt")
            .issued_by(&key.public, DistinguishedName::cn("Mutant CA"), &ca)
            .to_der()
            .to_vec()
    })
}

/// True when `s` is an OID in dotted decimal: two or more arcs, each a
/// `u64` in minimal decimal, the first at most 2, and the second below 40
/// when the first is 0 or 1.
fn is_dotted_oid(s: &str) -> bool {
    let arcs: Vec<Option<u64>> = s
        .split('.')
        .map(|arc| {
            let minimal = arc == "0" || !arc.starts_with('0');
            let digits = !arc.is_empty() && arc.bytes().all(|b| b.is_ascii_digit());
            (minimal && digits).then(|| arc.parse().ok()).flatten()
        })
        .collect();
    match arcs[..] {
        [Some(first), Some(second), ref rest @ ..] => {
            first <= 2 && (first == 2 || second < 40) && rest.iter().all(Option::is_some)
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // Random bytes rarely get past the outer SEQUENCE; a valid leaf cut
    // short (one case in four) or with one to four octets overwritten
    // reaches the inner fields, the OID validator and the unknown-algorithm
    // message.
    #[test]
    fn certificate_parser_never_panics_near_valid(
        truncate in 0u8..4,
        positions in proptest::collection::vec(any::<usize>(), 1..5),
        octets in proptest::collection::vec(any::<u8>(), 4..5),
    ) {
        let mut der = seven_extension_leaf().to_vec();
        let len = der.len();
        if truncate == 0 {
            der.truncate(positions[0] % len);
        } else {
            for (&at, &octet) in positions.iter().zip(&octets) {
                der[at % len] = octet;
            }
        }
        if let Err(X509Error::UnsupportedAlgorithm(oid)) = Certificate::from_der(&der) {
            prop_assert!(is_dotted_oid(&oid), "not a dotted OID: {:?}", oid);
        }
    }
}

#[test]
fn dotted_oid_check() {
    for good in [
        "1.2.840.113549",
        "2.999.3",
        "0.39",
        "1.2.18446744073709551615",
    ] {
        assert!(is_dotted_oid(good), "{good}");
    }
    for bad in [
        "",
        "1",
        "3.1",
        "1.40",
        "1..2",
        "1.02",
        "1.2.",
        "1.2.18446744073709551616",
        "1.x",
    ] {
        assert!(!is_dotted_oid(bad), "{bad}");
    }
}

/// A tiny fixed PKI used by the heavier engine properties below.
struct PropWorld {
    universe: CaUniverse,
    programs: RootPrograms,
    chain: Vec<Certificate>,
    checker: IssuanceChecker,
}

fn prop_world() -> PropWorld {
    let universe = CaUniverse::default_with_seed(99);
    let programs = RootPrograms::from_universe(&universe);
    let int = &universe.roots[0].intermediates[0];
    let kp = KeyPair::from_seed(Group::simulation_256(), b"prop-world-leaf");
    let leaf = CertificateBuilder::leaf_profile("prop.sim").issued_by(
        &kp.public,
        int.cert.subject().clone(),
        &int.keypair,
    );
    let chain = vec![leaf, int.cert.clone(), universe.roots[0].cert.clone()];
    PropWorld {
        programs,
        universe,
        chain,
        checker: IssuanceChecker::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tls_framing_roundtrips_any_prefix(n in 0usize..4) {
        let w = prop_world();
        let served = w.chain[..n.min(w.chain.len())].to_vec();
        let msg = tlsmsg::encode_tls12(&served).unwrap();
        prop_assert_eq!(tlsmsg::decode_tls12(&msg).unwrap(), served.clone());
        let msg13 = tlsmsg::encode_tls13(&served).unwrap();
        prop_assert_eq!(tlsmsg::decode_tls13(&msg13).unwrap(), served);
    }

    #[test]
    fn engines_never_panic_on_mutated_chains(seed in 0u64..500, mutations in 1usize..6) {
        let w = prop_world();
        let unrelated = {
            let kp = KeyPair::from_seed(Group::simulation_256(), b"prop-unrelated");
            CertificateBuilder::ca_profile(DistinguishedName::cn("Prop Unrelated"))
                .self_signed(&kp)
        };
        let mut mutator = Mutator::new(seed, vec![unrelated]);
        let mut served = w.chain.clone();
        mutator.mutate(&mut served, mutations);

        let aia = chain_chaos::netsim::AiaRepository::new(w.universe.aia_publications());
        let ctx = BuildContext {
            store: w.programs.unified(),
            aia: Some(&aia),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &w.checker,
        };
        for kind in ClientKind::ALL {
            // Must terminate with a defined verdict, never panic or hang.
            let outcome = kind.engine().process(&served, &ctx);
            if outcome.accepted() {
                // Accepted paths must be genuine: signatures chain and the
                // terminal is trusted.
                for pair in outcome.path.windows(2) {
                    prop_assert!(w.checker.signature_verifies(&pair[1], &pair[0]));
                }
                prop_assert!(w.programs.unified().contains(outcome.path.last().unwrap()));
            }
        }
    }

    #[test]
    fn engine_is_deterministic(seed in 0u64..100) {
        let w = prop_world();
        let mut served = w.chain.clone();
        let mut drbg = Drbg::from_u64(seed);
        drbg.shuffle(&mut served);
        let aia = chain_chaos::netsim::AiaRepository::new(w.universe.aia_publications());
        let ctx = BuildContext {
            store: w.programs.unified(),
            aia: Some(&aia),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &w.checker,
        };
        for kind in ClientKind::ALL {
            let a = kind.engine().process(&served, &ctx);
            let b = kind.engine().process(&served, &ctx);
            prop_assert_eq!(a.verdict, b.verdict);
            prop_assert_eq!(a.path, b.path);
        }
    }

    #[test]
    fn full_capability_client_accepts_any_permutation(seed in 0u64..100) {
        let w = prop_world();
        let mut served = w.chain.clone();
        let mut drbg = Drbg::from_u64(seed);
        // Any permutation that keeps the leaf first must be buildable by a
        // fully capable client.
        drbg.shuffle(&mut served[1..]);
        let engine = chain_chaos::core::ChainEngine::new(
            chain_chaos::core::BuilderPolicy::full_capability("prop-full"),
        );
        let aia = chain_chaos::netsim::AiaRepository::new(w.universe.aia_publications());
        let ctx = BuildContext {
            store: w.programs.unified(),
            aia: Some(&aia),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &w.checker,
        };
        let outcome = engine.process(&served, &ctx);
        prop_assert!(outcome.accepted(), "verdict {:?}", outcome.verdict);
    }
}
