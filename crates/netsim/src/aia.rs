//! Simulated AIA (Authority Information Access) fetching.
//!
//! Real clients resolve missing issuers by HTTP-fetching the caIssuers URI
//! from the AIA extension. This module replaces the HTTP transport with an
//! in-memory repository while preserving the client-visible behaviour,
//! including the three failure classes the paper measured: AIA field
//! absent (a property of the certificate, not the repository), dead URI,
//! and a URI serving the wrong certificate (e.g. the CAcert class3 root
//! serving itself instead of its issuer).

use ccc_x509::Certificate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// In-memory AIA repository with fetch accounting. A URI with no
/// publication is dead; a URI published with a certificate other than
/// the real issuer serves the wrong certificate.
#[derive(Debug, Default)]
pub struct AiaRepository {
    entries: HashMap<String, Certificate>,
    fetch_count: AtomicU64,
}

impl AiaRepository {
    /// Empty repository (all fetches fail).
    pub fn empty() -> AiaRepository {
        AiaRepository::default()
    }

    /// Build from published (URI → certificate) pairs.
    pub fn new(entries: HashMap<String, Certificate>) -> AiaRepository {
        AiaRepository {
            entries,
            fetch_count: AtomicU64::new(0),
        }
    }

    /// Publish a certificate at a URI, replacing any earlier publication.
    pub fn publish(&mut self, uri: impl Into<String>, cert: Certificate) {
        self.entries.insert(uri.into(), cert);
    }

    /// Remove a publication (URI becomes dead).
    pub fn unpublish(&mut self, uri: &str) {
        self.entries.remove(uri);
    }

    /// Fetch the certificate at `uri`.
    ///
    /// Returns `None` for dead/unknown URIs. A URI that serves the wrong
    /// certificate returns it — the *caller* discovers the mismatch when
    /// the fetched certificate fails to act as an issuer, exactly as a
    /// real client would.
    pub fn fetch(&self, uri: &str) -> Option<Certificate> {
        self.fetch_count.fetch_add(1, Ordering::Relaxed);
        self.entries.get(uri).cloned()
    }

    /// Number of fetches performed so far (for efficiency experiments).
    pub fn fetches(&self) -> u64 {
        self.fetch_count.load(Ordering::Relaxed)
    }

    /// Reset the fetch counter.
    pub fn reset_fetches(&self) {
        self.fetch_count.store(0, Ordering::Relaxed);
    }

    /// Number of published URIs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    fn cert(name: &str, seed: &[u8]) -> Certificate {
        let kp = KeyPair::from_seed(Group::simulation_256(), seed);
        CertificateBuilder::ca_profile(DistinguishedName::cn(name)).self_signed(&kp)
    }

    #[test]
    fn publish_and_fetch() {
        let mut repo = AiaRepository::empty();
        let c = cert("A", b"aia-1");
        repo.publish("http://aia.sim/a.crt", c.clone());
        assert_eq!(repo.fetch("http://aia.sim/a.crt"), Some(c));
        assert_eq!(repo.fetch("http://aia.sim/missing.crt"), None);
        assert_eq!(repo.fetches(), 2);
    }

    #[test]
    fn republish_serves_the_wrong_certificate() {
        let mut repo = AiaRepository::empty();
        let right = cert("Right", b"aia-3");
        let wrong = cert("Wrong", b"aia-4");
        repo.publish("http://aia.sim/a.crt", right);
        repo.publish("http://aia.sim/a.crt", wrong.clone());
        assert_eq!(repo.fetch("http://aia.sim/a.crt"), Some(wrong));
    }

    #[test]
    fn unpublish_makes_uri_dead() {
        let mut repo = AiaRepository::empty();
        repo.publish("http://aia.sim/a.crt", cert("A", b"aia-5"));
        repo.unpublish("http://aia.sim/a.crt");
        assert_eq!(repo.fetch("http://aia.sim/a.crt"), None);
    }

    #[test]
    fn fetch_counter_reset() {
        let repo = AiaRepository::empty();
        repo.fetch("x");
        repo.fetch("y");
        assert_eq!(repo.fetches(), 2);
        repo.reset_fetches();
        assert_eq!(repo.fetches(), 0);
    }
}
