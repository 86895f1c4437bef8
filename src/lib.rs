//! # chain-chaos
//!
//! A toolkit for evaluating Web PKI certificate chain **deployment
//! compliance** (server side) and **construction capability** (client
//! side) — a full reproduction of *"Chaos in the Chain: Evaluate
//! Deployment and Construction Compliance of Web PKI Certificate Chain"*
//! (IMC 2025) over a synthetic, fully self-contained PKI.
//!
//! The umbrella crate re-exports the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bignum`] | `ccc-bignum` | arbitrary-precision integers |
//! | [`crypto`] | `ccc-crypto` | SHA-256/SHA-1/HMAC, DRBG, Schnorr signatures |
//! | [`asn1`] | `ccc-asn1` | DER encoder/decoder, OIDs, time |
//! | [`x509`] | `ccc-x509` | certificates, extensions, builder |
//! | [`rootstore`] | `ccc-rootstore` | CA universe, root programs |
//! | [`netsim`] | `ccc-netsim` | AIA, TLS framing, CA pipelines, HTTP servers |
//! | [`obs`] | `ccc-obs` | process-global metrics registry, spans, Prometheus/JSON renderers |
//! | [`core`] | `ccc-core` | compliance analysis, chain builder, clients, differential testing |
//! | [`testgen`] | `ccc-testgen` | capability tests, scenarios, mutations, corpus |
//! | [`lint`] | `ccc-lint` | zlint-style rule registry, SARIF/JSONL diagnostics, baselines |
//! | [`bench`](mod@bench) | `ccc-bench` | fused analysis pipeline, corpus tables, fault-injection sweeps |
//!
//! ## Quick start
//!
//! ```
//! use chain_chaos::core::{BuildContext, IssuanceChecker};
//! use chain_chaos::core::clients::ClientKind;
//! use chain_chaos::rootstore::{CaUniverse, RootPrograms};
//! use chain_chaos::netsim::AiaRepository;
//! use chain_chaos::x509::CertificateBuilder;
//! use chain_chaos::crypto::{Group, KeyPair};
//! use chain_chaos::asn1::Time;
//!
//! // A tiny PKI: root -> intermediate -> leaf.
//! let universe = CaUniverse::default_with_seed(1);
//! let programs = RootPrograms::from_universe(&universe);
//! let aia = AiaRepository::new(universe.aia_publications());
//! let int = &universe.roots[0].intermediates[0];
//! let kp = KeyPair::from_seed(Group::simulation_256(), b"quick");
//! let leaf = CertificateBuilder::leaf_profile("quick.sim")
//!     .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
//!
//! // Serve it REVERSED and ask Chrome's profile to build the path.
//! let served = vec![leaf, universe.roots[0].cert.clone(), int.cert.clone()];
//! let checker = IssuanceChecker::new();
//! let ctx = BuildContext {
//!     store: programs.unified(),
//!     aia: Some(&aia),
//!     cache: &[],
//!     now: Time::from_ymd(2024, 7, 1).unwrap(),
//!     checker: &checker,
//! };
//! let outcome = ClientKind::Chrome.engine().process(&served, &ctx);
//! assert!(outcome.accepted(), "Chrome reorders the chain");
//! ```

pub use ccc_asn1 as asn1;
pub use ccc_bench as bench;
pub use ccc_bignum as bignum;
pub use ccc_core as core;
pub use ccc_crypto as crypto;
pub use ccc_lint as lint;
pub use ccc_netsim as netsim;
pub use ccc_obs as obs;
pub use ccc_rootstore as rootstore;
pub use ccc_testgen as testgen;
pub use ccc_x509 as x509;
