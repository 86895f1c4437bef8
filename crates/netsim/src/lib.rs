//! Network and deployment simulation substrate.
//!
//! The paper's measurements touch four external systems that chain-chaos
//! replaces with faithful in-process models:
//!
//! - [`aia`]: the AIA fetch path (caIssuers URIs → issuer certificates),
//!   with the same failure classes the paper observed (missing AIA field,
//!   dead URI, wrong certificate served);
//! - [`tlsmsg`]: real RFC 5246 / RFC 8446 Certificate-message framing, so
//!   the certificate *list* travels in its actual wire format;
//! - [`ca`]: CA / reseller issuance pipelines (Table 6) — which files a
//!   subscriber receives and in what order;
//! - [`httpserver`]: HTTP server deployment models (Table 4) — file
//!   layouts, private-key matching, duplicate-leaf checks;
//! - [`admin`]: the administrator behaviours that convert issued files
//!   into deployed chains (naive merges, stale leftovers, omissions);
//! - [`handshake`]: a minimal TCP loopback "TLS-like" handshake that
//!   carries the Certificate message end-to-end;
//! - [`fault`]: deterministic network-fault injection over the AIA path
//!   (seeded per-URI latency, transient/dead/corrupt URIs) behind the
//!   [`AiaTransport`] trait.

pub mod admin;
pub mod aia;
pub mod ca;
pub mod fault;
pub mod handshake;
pub mod httpserver;
pub mod tlsmsg;

pub use admin::{AdminBehavior, AdminError};
pub use aia::AiaRepository;
pub use ca::{CaProfile, IssuedBundle};
pub use fault::{
    touch_fetch_metrics, AiaTransport, FaultPlan, FaultyTransport, FetchOutcome, FetchResponse,
    TransportCosts, UriFault,
};
pub use httpserver::{DeployError, DeploymentFiles, DeploymentOutcome, HttpServerKind};
