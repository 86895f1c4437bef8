//! Indexed trust stores.

use ccc_x509::{Certificate, DistinguishedName, FingerprintSet};
use std::collections::HashMap;

/// An indexed set of trusted root certificates.
///
/// Provides the three lookups chain construction needs: exact membership
/// (fingerprint), SKID match (for AKID→SKID issuer location), and subject
/// DN match (for issuer-DN location when KIDs are absent).
///
/// Subjects are keyed by [`DistinguishedName`] itself, so a lookup encodes
/// nothing. That is the same relation as keying by the DER: a name holds
/// its RDNSequence's content octets and compares them, and
/// [`DistinguishedName::encode`] writes those octets behind one SEQUENCE
/// header, so two names encode to the same bytes exactly when they are
/// equal.
#[derive(Clone, Debug, Default)]
pub struct RootStore {
    name: String,
    roots: Vec<Certificate>,
    by_fingerprint: FingerprintSet,
    by_skid: HashMap<Vec<u8>, Vec<usize>>,
    by_subject: HashMap<DistinguishedName, Vec<usize>>,
}

impl RootStore {
    /// Build a store from certificates.
    pub fn new(name: impl Into<String>, roots: Vec<Certificate>) -> RootStore {
        let mut store = RootStore {
            name: name.into(),
            ..Default::default()
        };
        for cert in roots {
            store.add(cert);
        }
        store
    }

    /// Add one root (duplicates by fingerprint are ignored).
    pub fn add(&mut self, cert: Certificate) {
        if !self.by_fingerprint.insert(cert.fingerprint()) {
            return;
        }
        let idx = self.roots.len();
        if let Some(skid) = cert.skid() {
            self.by_skid.entry(skid.to_vec()).or_default().push(idx);
        }
        self.by_subject
            .entry(cert.subject().clone())
            .or_default()
            .push(idx);
        self.roots.push(cert);
    }

    /// Store label (e.g. "mozilla").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All roots.
    pub fn roots(&self) -> &[Certificate] {
        &self.roots
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Exact membership test.
    pub fn contains(&self, cert: &Certificate) -> bool {
        self.by_fingerprint.contains(&cert.fingerprint())
    }

    /// Roots whose SKID equals `key_id`, in insertion order, borrowed
    /// from the index (nothing is allocated).
    pub fn find_by_skid(&self, key_id: &[u8]) -> impl Iterator<Item = &Certificate> + '_ {
        let idxs = self.by_skid.get(key_id).map_or(&[][..], Vec::as_slice);
        idxs.iter().map(|&i| &self.roots[i])
    }

    /// Roots whose subject DN equals `subject`, in insertion order,
    /// borrowed from the index (nothing is allocated).
    pub fn find_by_subject(
        &self,
        subject: &DistinguishedName,
    ) -> impl Iterator<Item = &Certificate> + '_ {
        let idxs = self.by_subject.get(subject).map_or(&[][..], Vec::as_slice);
        idxs.iter().map(|&i| &self.roots[i])
    }

    /// Union of this store and another (left name wins unless given).
    pub fn union(name: impl Into<String>, stores: &[&RootStore]) -> RootStore {
        let mut out = RootStore {
            name: name.into(),
            ..Default::default()
        };
        for store in stores {
            for cert in &store.roots {
                out.add(cert.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::CertificateBuilder;

    fn root(name: &str, seed: &[u8]) -> Certificate {
        let kp = KeyPair::from_seed(Group::simulation_256(), seed);
        CertificateBuilder::ca_profile(DistinguishedName::cn_o(name, "Test")).self_signed(&kp)
    }

    #[test]
    fn membership_and_lookup() {
        let r1 = root("Root A", b"store-a");
        let r2 = root("Root B", b"store-b");
        let r3 = root("Root C", b"store-c");
        let store = RootStore::new("test", vec![r1.clone(), r2.clone()]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(&r1));
        assert!(!store.contains(&r3));
        let found: Vec<&Certificate> = store.find_by_skid(r1.skid().unwrap()).collect();
        assert_eq!(found, vec![&r1]);
        assert!(store.find_by_skid(r3.skid().unwrap()).next().is_none());
        let found: Vec<&Certificate> = store.find_by_subject(r2.subject()).collect();
        assert_eq!(found, vec![&r2]);
        assert!(store.find_by_subject(r3.subject()).next().is_none());
    }

    #[test]
    fn duplicates_ignored() {
        let r1 = root("Root A", b"store-a");
        let mut store = RootStore::new("test", vec![r1.clone()]);
        store.add(r1.clone());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn union_merges_without_duplicates() {
        let r1 = root("Root A", b"store-a");
        let r2 = root("Root B", b"store-b");
        let s1 = RootStore::new("one", vec![r1.clone(), r2.clone()]);
        let s2 = RootStore::new("two", vec![r2.clone()]);
        let u = RootStore::union("union", &[&s1, &s2]);
        assert_eq!(u.len(), 2);
        assert!(u.contains(&r1));
        assert!(u.contains(&r2));
        assert_eq!(u.name(), "union");
    }
}
