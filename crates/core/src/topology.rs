//! Issuance topology graph over a served certificate list (paper §3.1,
//! Figure 2).
//!
//! Nodes are the certificates at their served positions; duplicates keep
//! only the first occurrence (relabelled `Cp[i]`); directed edges run from
//! issuer to subject. All paths are enumerated starting from the leaf
//! (`C0`) and walking issuer-ward.

use ccc_x509::{Certificate, CertificateFingerprint, FingerprintBuildHasher, FingerprintMap};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A (issuer fingerprint, subject fingerprint) cache key.
type PairKey = (CertificateFingerprint, CertificateFingerprint);

/// Memoized signature verdicts. Keys are SHA-256 fingerprint pairs, so
/// the map skips SipHash in favour of the cheap fingerprint fold
/// (`FingerprintBuildHasher`).
type Verdicts = HashMap<PairKey, bool, FingerprintBuildHasher>;

/// Verdicts memoized inside one observation scope (see
/// [`IssuanceChecker::scoped`]): the pairs in which either certificate
/// is not a CA, for the checker that opened the scope.
struct ScopeScratch {
    /// The checker that opened the scope. It is borrowed for the whole
    /// scope, so no other live checker can share its address.
    owner: *const IssuanceChecker,
    verdicts: Verdicts,
}

thread_local! {
    /// The observation scope open on this thread, if any. It is
    /// thread-local, so scoped pairs take no lock.
    static SCOPE: RefCell<Option<ScopeScratch>> = const { RefCell::new(None) };
}

/// Point-in-time counters from an [`IssuanceChecker`]
/// (see [`IssuanceChecker::snapshot_stats`]). They count this checker's
/// own cache activity only; how verifications split between per-key
/// tables and plain `pow_mont` is process-global and read from the
/// `ccc-obs` registry via `ccc_crypto::verify_stats`.
///
/// Invariants (exact once all worker threads have been joined):
/// - `hits + misses == lookups`
/// - `verifications == misses`
/// - `verifications == entries` when no lookup ran inside an observation
///   scope ([`IssuanceChecker::scoped`]): each unique pair is verified
///   exactly once. A scope verifies its non-CA pairs once per scope and
///   drops them when it ends, so they count in `verifications` but never
///   in `entries`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `signature_verifies` calls.
    pub lookups: u64,
    /// Lookups answered from a memoized verdict, shared or scoped.
    pub hits: u64,
    /// Lookups that found no memoized verdict (`lookups - hits`).
    pub misses: u64,
    /// Signature verifications actually executed, one per miss: once per
    /// unique shared pair, and once per scope for each pair memoized in
    /// a scope.
    pub verifications: u64,
    /// Always 0. A miss verifies while holding the map lock, so no lookup
    /// ever waits on another thread's verification. The field stays only
    /// because e2ebench reads it into its `verify.coalesced_waits` series;
    /// it goes when that series does.
    pub coalesced_waits: u64,
    /// Pairs resident in the shared map (scoped pairs are not counted).
    pub entries: usize,
}

impl CacheStats {
    /// Signature verifications avoided by memoization.
    pub fn saved(&self) -> u64 {
        self.lookups.saturating_sub(self.verifications)
    }

    /// Fraction of lookups answered from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Counter delta (`self` at a later time minus `earlier`); `entries`
    /// is the later absolute value.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            verifications: self.verifications.saturating_sub(earlier.verifications),
            coalesced_waits: self.coalesced_waits.saturating_sub(earlier.coalesced_waits),
            entries: self.entries,
        }
    }
}

/// Memoizing checker for the paper's issuance relationship.
///
/// Certificate A issues certificate B when:
/// 1. A's public key verifies B's signature, **and**
/// 2. A's subject matches B's issuer, **or** A's SKID matches B's AKID
///    (either identity criterion suffices when the other's fields are
///    absent — the paper's flexibility rule).
///
/// Signature verification is the expensive step, so results are memoized
/// by certificate fingerprint pair; corpora share certificates heavily.
///
/// The shared map sits behind **one mutex**, and a miss verifies while
/// holding it, so concurrent corpus workers verify each pair exactly once.
/// Hit/miss/verification counters are exposed via
/// [`snapshot_stats`](IssuanceChecker::snapshot_stats).
///
/// Inside an observation scope ([`scoped`](IssuanceChecker::scoped)),
/// only pairs of two CA certificates go to the shared map; a pair with a
/// non-CA certificate, almost always a one-shot leaf pair, is memoized in
/// scratch the scope drops. The shared map then stays bounded by the CA
/// population instead of growing with the corpus.
#[derive(Debug, Default)]
pub struct IssuanceChecker {
    shared: Mutex<Verdicts>,
    lookups: AtomicU64,
    hits: AtomicU64,
    verifications: AtomicU64,
}

impl IssuanceChecker {
    /// Fresh checker with an empty cache.
    pub fn new() -> IssuanceChecker {
        IssuanceChecker::default()
    }

    /// Identity-level match: subject/issuer DN equality, or SKID/AKID
    /// equality when both sides carry the fields.
    pub fn identity_match(issuer: &Certificate, subject: &Certificate) -> bool {
        let dn_match = issuer.subject() == subject.issuer();
        let kid_match = match (issuer.skid(), subject.akid_key_id()) {
            (Some(skid), Some(akid)) => skid == akid,
            _ => false,
        };
        dn_match || kid_match
    }

    /// Run `f` inside an observation scope of this checker on the calling
    /// thread: until `f` returns, each pair in which either certificate
    /// is not a CA is verified at most once and memoized in scratch that
    /// is dropped when the scope ends (also on panic). Pairs of two CA
    /// certificates still go to the shared map, as every pair does
    /// outside a scope. Verdicts are a pure function of the pair, so a
    /// scope changes only the counters. A nested scope shadows the outer
    /// one until it ends.
    pub fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the scope that was open before, even on unwind.
        struct EndScope(Option<ScopeScratch>);
        impl Drop for EndScope {
            fn drop(&mut self) {
                let outer = self.0.take();
                SCOPE.with(|scope| *scope.borrow_mut() = outer);
            }
        }
        let scratch = ScopeScratch {
            owner: self,
            verdicts: HashMap::default(),
        };
        let _end = EndScope(SCOPE.with(|scope| scope.replace(Some(scratch))));
        f()
    }

    /// The verdict from this thread's open scope, when that scope belongs
    /// to this checker.
    fn scoped_verdict(
        &self,
        key: PairKey,
        issuer: &Certificate,
        subject: &Certificate,
    ) -> Option<bool> {
        SCOPE.with(|scope| {
            let mut scope = scope.borrow_mut();
            let scratch = scope.as_mut().filter(|s| std::ptr::eq(s.owner, self))?;
            Some(self.lookup_or_verify(&mut scratch.verdicts, key, issuer, subject))
        })
    }

    /// The verdict memoized in `verdicts`, or verify the pair and memoize
    /// it there on a miss.
    fn lookup_or_verify(
        &self,
        verdicts: &mut Verdicts,
        key: PairKey,
        issuer: &Certificate,
        subject: &Certificate,
    ) -> bool {
        // ordering: Relaxed — pure event counters. fetch_add's atomic RMW
        // alone guarantees no update is lost (ccc-bench's
        // tests/parallel_equivalence.rs compares these counts across
        // worker counts); the verdict is published by the map's owner
        // (the mutex or the thread-local scope), not by these counters.
        match verdicts.entry(key) {
            Entry::Occupied(done) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *done.get()
            }
            Entry::Vacant(slot) => {
                self.verifications.fetch_add(1, Ordering::Relaxed);
                *slot.insert(subject.verify_signature_with(issuer.public_key()))
            }
        }
    }

    /// Cached signature check: does `issuer`'s key verify `subject`?
    pub fn signature_verifies(&self, issuer: &Certificate, subject: &Certificate) -> bool {
        let key = (issuer.fingerprint(), subject.fingerprint());
        // ordering: Relaxed — a pure event counter; nothing reads
        // `lookups` to synchronize with other memory.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if !(issuer.is_ca() && subject.is_ca()) {
            if let Some(verdict) = self.scoped_verdict(key, issuer, subject) {
                return verdict;
            }
        }
        // The verification runs under this lock, so each shared pair is
        // verified exactly once. Lock order: it may take the `KeyRegistry`
        // mutex (through `PublicKey::interned`'s once-init) and build the
        // key's fixed-base table. ccc-crypto and ccc-obs are dependencies
        // of this crate, and Cargo rejects cycles, so nothing in them can
        // call into a checker: those locks never wait on this one.
        let mut shared = self.shared.lock().expect("signature cache lock poisoned");
        self.lookup_or_verify(&mut shared, key, issuer, subject)
    }

    /// The full issuance relationship (criteria 1 ∧ (2 ∨ 3)).
    pub fn issues(&self, issuer: &Certificate, subject: &Certificate) -> bool {
        Self::identity_match(issuer, subject) && self.signature_verifies(issuer, subject)
    }

    /// Cached [`Certificate::is_self_signed`]: self-issued, and its own
    /// key verifies it, memoized under the `(cert, cert)` pair key.
    pub fn self_signed(&self, cert: &Certificate) -> bool {
        cert.is_self_issued() && self.signature_verifies(cert, cert)
    }

    /// Number of signature checks memoized in the shared map (pairs held
    /// by an observation scope are not counted).
    pub fn cache_size(&self) -> usize {
        self.shared
            .lock()
            .expect("signature cache lock poisoned")
            .len()
    }

    /// Point-in-time counter snapshot. Exact once concurrent users have
    /// been joined; monotone but possibly momentarily inconsistent while
    /// other threads are mid-lookup.
    pub fn snapshot_stats(&self) -> CacheStats {
        // ordering: Relaxed — monotone counters read individually; the
        // snapshot is only promised exact after worker threads are
        // joined (the join edge orders the final values), so there is
        // nothing for a stronger load to synchronize with here.
        let lookups = self.lookups.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        CacheStats {
            lookups,
            hits,
            misses: lookups.saturating_sub(hits),
            verifications: self.verifications.load(Ordering::Relaxed),
            coalesced_waits: 0,
            entries: self.cache_size(),
        }
    }
}

/// A node in the topology graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Served position of the first occurrence of this certificate.
    pub position: usize,
    /// The certificate.
    pub cert: Certificate,
    /// Served positions of later bit-identical occurrences.
    pub duplicate_positions: Vec<usize>,
}

impl Node {
    /// Paper-style label: `C3`, or `C3[2]` for the second duplicate.
    pub fn label(&self) -> String {
        format!("C{}", self.position)
    }
}

/// Cap on the leaf paths a [`TopologyGraph`] enumerates.
const MAX_LEAF_PATHS: usize = 64;

/// The simple issuer paths from node 0 over the `issuers_of` adjacency,
/// depth-first, stopping at [`MAX_LEAF_PATHS`].
fn enumerate_paths(issuers_of: &[Vec<usize>]) -> Vec<Vec<usize>> {
    fn extend(
        issuers_of: &[Vec<usize>],
        current: &mut Vec<usize>,
        on_path: &mut [bool],
        paths: &mut Vec<Vec<usize>>,
    ) {
        if paths.len() >= MAX_LEAF_PATHS {
            return;
        }
        let tip = *current.last().expect("path never empty");
        if issuers_of[tip].iter().all(|&p| on_path[p]) {
            paths.push(current.clone());
            return;
        }
        for &parent in &issuers_of[tip] {
            if on_path[parent] {
                continue;
            }
            current.push(parent);
            on_path[parent] = true;
            extend(issuers_of, current, on_path, paths);
            on_path[parent] = false;
            current.pop();
        }
    }
    let mut paths = Vec::new();
    if issuers_of.is_empty() {
        return paths;
    }
    let mut on_path = vec![false; issuers_of.len()];
    on_path[0] = true;
    extend(issuers_of, &mut vec![0], &mut on_path, &mut paths);
    paths
}

/// The issuance topology of a served certificate list.
#[derive(Clone, Debug)]
pub struct TopologyGraph {
    /// Unique certificates in order of first appearance.
    pub nodes: Vec<Node>,
    /// `edges[i]` lists node indices that node `i` ISSUES (children).
    pub issued_by_me: Vec<Vec<usize>>,
    /// `issuers_of[i]` lists node indices that issue node `i` (parents).
    pub issuers_of: Vec<Vec<usize>>,
    /// Total served length including duplicates.
    pub served_len: usize,
    /// Every simple issuer path from the leaf, in depth-first order: node
    /// indices starting at node 0 and extending issuer-ward until no
    /// further (non-repeating) issuer exists. Cross-signed loops are cut
    /// by the simple-path constraint, and at most 64 are kept as a safety
    /// valve for adversarial topologies (the paper's real-world maximum
    /// was 3). Empty only for an empty list.
    pub paths: Vec<Vec<usize>>,
}

impl TopologyGraph {
    /// Build the graph for a served list. Self-edges (self-signed
    /// certificates issuing themselves) are not recorded as edges.
    pub fn build(served: &[Certificate], checker: &IssuanceChecker) -> TopologyGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut index_of: FingerprintMap<usize> = FingerprintMap::default();
        for (pos, cert) in served.iter().enumerate() {
            match index_of.get(&cert.fingerprint()) {
                Some(&idx) => nodes[idx].duplicate_positions.push(pos),
                None => {
                    index_of.insert(cert.fingerprint(), nodes.len());
                    nodes.push(Node {
                        position: pos,
                        cert: cert.clone(),
                        duplicate_positions: Vec::new(),
                    });
                }
            }
        }
        let n = nodes.len();
        let mut issued_by_me = vec![Vec::new(); n];
        let mut issuers_of = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if checker.issues(&nodes[i].cert, &nodes[j].cert) {
                    issued_by_me[i].push(j);
                    issuers_of[j].push(i);
                }
            }
        }
        let paths = enumerate_paths(&issuers_of);
        TopologyGraph {
            nodes,
            issued_by_me,
            issuers_of,
            served_len: served.len(),
            paths,
        }
    }

    /// Number of unique certificates.
    pub fn unique_len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the served list contained bit-identical duplicates.
    pub fn has_duplicates(&self) -> bool {
        self.nodes.iter().any(|n| !n.duplicate_positions.is_empty())
    }

    /// Total count of duplicate occurrences (served length minus unique).
    pub fn duplicate_count(&self) -> usize {
        self.served_len - self.unique_len()
    }

    /// Node indices reachable from the leaf (node 0) by repeatedly moving
    /// to issuers — i.e. every certificate that participates in some
    /// issuer chain of the leaf, plus the leaf itself.
    pub fn relevant_set(&self) -> Vec<bool> {
        let mut relevant = vec![false; self.nodes.len()];
        if self.nodes.is_empty() {
            return relevant;
        }
        let mut stack = vec![0usize];
        relevant[0] = true;
        while let Some(i) = stack.pop() {
            for &parent in &self.issuers_of[i] {
                if !relevant[parent] {
                    relevant[parent] = true;
                    stack.push(parent);
                }
            }
        }
        relevant
    }

    /// Node indices of certificates unconnected to the leaf's issuance
    /// ancestry (the paper's "irrelevant certificates").
    pub fn irrelevant_nodes(&self) -> Vec<usize> {
        self.relevant_set()
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(i, _)| i)
            .collect()
    }

    /// True when a path (as node indices) is in reversed served order at
    /// any link: an issuer certificate appears *before* its subject.
    pub fn path_is_reversed(&self, path: &[usize]) -> bool {
        path.windows(2).any(|w| {
            let subject_pos = self.nodes[w[0]].position;
            let issuer_pos = self.nodes[w[1]].position;
            issuer_pos < subject_pos
        })
    }

    /// Render the graph in a compact text form for reports, naming at
    /// most the first 16 paths: `C0 <- C1 <- C2; irrelevant: C3` style.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, path) in self.paths.iter().take(16).enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            let labels: Vec<String> = path.iter().map(|&n| self.nodes[n].label()).collect();
            out.push_str(&labels.join(" <- "));
        }
        let irrelevant = self.irrelevant_nodes();
        if !irrelevant.is_empty() {
            let labels: Vec<String> = irrelevant.iter().map(|&n| self.nodes[n].label()).collect();
            out.push_str(&format!(" | irrelevant: {}", labels.join(", ")));
        }
        if self.has_duplicates() {
            out.push_str(&format!(" | duplicates: {}", self.duplicate_count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    struct Fixture {
        leaf: Certificate,
        int1: Certificate,
        int2: Certificate,
        root: Certificate,
        unrelated: Certificate,
        cross: Certificate,
    }

    fn fixture() -> Fixture {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"topo-root");
        let int1_kp = KeyPair::from_seed(g, b"topo-int1");
        let int2_kp = KeyPair::from_seed(g, b"topo-int2");
        let leaf_kp = KeyPair::from_seed(g, b"topo-leaf");
        let other_kp = KeyPair::from_seed(g, b"topo-other");
        let cross_root_kp = KeyPair::from_seed(g, b"topo-cross-root");

        let root_dn = DistinguishedName::cn("Topo Root");
        let int2_dn = DistinguishedName::cn("Topo Int 2");
        let int1_dn = DistinguishedName::cn("Topo Int 1");
        let cross_root_dn = DistinguishedName::cn("Topo Cross Root");

        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let int2 = CertificateBuilder::ca_profile(int2_dn.clone()).issued_by(
            &int2_kp.public,
            root_dn.clone(),
            &root_kp,
        );
        let int1 = CertificateBuilder::ca_profile(int1_dn.clone()).issued_by(
            &int1_kp.public,
            int2_dn.clone(),
            &int2_kp,
        );
        let leaf = CertificateBuilder::leaf_profile("topo.sim").issued_by(
            &leaf_kp.public,
            int1_dn.clone(),
            &int1_kp,
        );
        let unrelated = CertificateBuilder::ca_profile(DistinguishedName::cn("Unrelated"))
            .self_signed(&other_kp);
        // Cross-signed variant of int2 under a different root.
        let cross_root =
            CertificateBuilder::ca_profile(cross_root_dn.clone()).self_signed(&cross_root_kp);
        let cross = CertificateBuilder::ca_profile(int2_dn.clone()).issued_by(
            &int2_kp.public,
            cross_root_dn,
            &cross_root_kp,
        );
        let _ = cross_root;
        Fixture {
            leaf,
            int1,
            int2,
            root,
            unrelated,
            cross,
        }
    }

    #[test]
    fn issuance_checker_criteria() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        assert!(checker.issues(&f.int1, &f.leaf));
        assert!(checker.issues(&f.int2, &f.int1));
        assert!(checker.issues(&f.root, &f.int2));
        assert!(!checker.issues(&f.root, &f.leaf));
        assert!(!checker.issues(&f.leaf, &f.root));
        assert!(!checker.issues(&f.unrelated, &f.leaf));
        // Memoization kicks in.
        assert!(checker.cache_size() > 0);
    }

    #[test]
    fn compliant_chain_single_increasing_path() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let served = vec![
            f.leaf.clone(),
            f.int1.clone(),
            f.int2.clone(),
            f.root.clone(),
        ];
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.unique_len(), 4);
        assert!(!g.has_duplicates());
        assert!(g.irrelevant_nodes().is_empty());
        assert_eq!(g.paths, vec![vec![0, 1, 2, 3]]);
        assert!(!g.path_is_reversed(&g.paths[0]));
    }

    #[test]
    fn reversed_chain_detected() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        // Reversed tail: leaf, root, int2, int1.
        let served = vec![
            f.leaf.clone(),
            f.root.clone(),
            f.int2.clone(),
            f.int1.clone(),
        ];
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.paths.len(), 1);
        assert!(g.path_is_reversed(&g.paths[0]));
    }

    #[test]
    fn duplicates_relabelled() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let served = vec![
            f.leaf.clone(),
            f.int1.clone(),
            f.int1.clone(),
            f.int2.clone(),
        ];
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.unique_len(), 3);
        assert!(g.has_duplicates());
        assert_eq!(g.duplicate_count(), 1);
        assert_eq!(g.nodes[1].duplicate_positions, vec![2]);
    }

    #[test]
    fn irrelevant_cert_detected() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let served = vec![
            f.leaf.clone(),
            f.unrelated.clone(),
            f.int1.clone(),
            f.int2.clone(),
        ];
        let g = TopologyGraph::build(&served, &checker);
        let irrelevant = g.irrelevant_nodes();
        assert_eq!(irrelevant.len(), 1);
        assert_eq!(g.nodes[irrelevant[0]].cert, f.unrelated);
    }

    #[test]
    fn cross_sign_creates_multiple_paths() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        // leaf <- int1 <- {int2, cross}: two paths (root completes one).
        let served = vec![
            f.leaf.clone(),
            f.int1.clone(),
            f.cross.clone(),
            f.int2.clone(),
            f.root.clone(),
        ];
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.paths.len(), 2);
        // The path through the cross cert: cross appears before int2, so
        // one of them is fine and the ordering question is about links.
        let reversed: Vec<bool> = g.paths.iter().map(|p| g.path_is_reversed(p)).collect();
        // leaf(0) <- int1(1) <- cross(2) is increasing; leaf <- int1 <-
        // int2(3) <- root(4) is increasing too.
        assert!(reversed.iter().any(|&r| !r));
    }

    #[test]
    fn empty_and_single_lists() {
        let checker = IssuanceChecker::new();
        let g = TopologyGraph::build(&[], &checker);
        assert_eq!(g.unique_len(), 0);
        assert!(g.paths.is_empty());

        let f = fixture();
        let g = TopologyGraph::build(std::slice::from_ref(&f.leaf), &checker);
        assert_eq!(g.paths, vec![vec![0]]);
        assert!(g.irrelevant_nodes().is_empty());
    }

    #[test]
    fn cache_stats_since_saturates_on_fresher_baseline() {
        // Regression: diffing an older snapshot against a fresher
        // baseline (swapped snapshot order in a caller) must clamp every
        // counter delta to zero instead of wrapping toward u64::MAX.
        // `entries` carries the later absolute value by contract.
        let f = fixture();
        let checker = IssuanceChecker::new();
        let before = checker.snapshot_stats();
        let _ = TopologyGraph::build(&[f.leaf.clone(), f.int1.clone(), f.root.clone()], &checker);
        let after = checker.snapshot_stats();
        assert!(after.lookups > before.lookups, "build did no lookups");
        let wrong_order = before.since(&after);
        assert_eq!(wrong_order.lookups, 0);
        assert_eq!(wrong_order.hits, 0);
        assert_eq!(wrong_order.misses, 0);
        assert_eq!(wrong_order.verifications, 0);
        assert_eq!(wrong_order.coalesced_waits, 0);
        // `entries` is the receiver's absolute value, i.e. `before`'s.
        assert_eq!(wrong_order.entries, before.entries);
    }

    #[test]
    fn scope_verifies_a_leaf_pair_once_per_scope_outside_the_shared_map() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        for scope in 1..=2 {
            checker.scoped(|| {
                assert!(checker.issues(&f.int1, &f.leaf));
                assert!(checker.issues(&f.int1, &f.leaf));
                assert_eq!(checker.cache_size(), 0);
            });
            // Each scope verifies the pair once, then hits it.
            let stats = checker.snapshot_stats();
            assert_eq!((stats.verifications, stats.hits), (scope, scope));
            assert_eq!(stats.entries, 0);
        }
    }

    #[test]
    fn scope_shares_a_ca_pair_across_scopes() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        for _ in 0..2 {
            checker.scoped(|| assert!(checker.issues(&f.int2, &f.int1)));
        }
        let stats = checker.snapshot_stats();
        assert_eq!((stats.verifications, stats.hits), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn scope_serves_only_the_checker_that_opened_it() {
        let f = fixture();
        let (scoped, other) = (IssuanceChecker::new(), IssuanceChecker::new());
        scoped.scoped(|| {
            assert!(other.issues(&f.int1, &f.leaf));
            assert!(other.issues(&f.int1, &f.leaf));
        });
        let stats = other.snapshot_stats();
        assert_eq!((stats.verifications, stats.hits), (1, 1));
        assert_eq!(stats.entries, 1, "the leaf pair went to the shared map");
        assert_eq!(scoped.snapshot_stats().lookups, 0);
    }

    #[test]
    fn scope_ends_when_its_closure_panics() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.scoped(|| {
                assert!(checker.issues(&f.int1, &f.leaf));
                panic!("visit failed mid-scope");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(checker.cache_size(), 0);
        assert!(checker.issues(&f.int1, &f.leaf));
        assert_eq!(
            checker.cache_size(),
            1,
            "lookup after the panic used the scope"
        );
    }

    #[test]
    fn self_signed_has_no_self_edge() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let g = TopologyGraph::build(std::slice::from_ref(&f.root), &checker);
        assert!(g.issuers_of[0].is_empty());
        assert_eq!(g.paths, vec![vec![0]]);
    }

    /// A served self-signed root under seven layers of twin intermediates
    /// (same subject and key, different notBefore) and a leaf: every
    /// layer doubles the issuer choices, so the leaf has 2^7 = 128 paths.
    fn twin_layers() -> Vec<Certificate> {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"twin-root");
        let root_dn = DistinguishedName::cn("Twin Root");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let (mut issuer_dn, mut issuer_kp) = (root_dn, root_kp);
        let mut intermediates = Vec::new();
        for layer in 1..=7 {
            let kp = KeyPair::from_seed(g, format!("twin-{layer}").as_bytes());
            let dn = DistinguishedName::cn(format!("Twin Layer {layer}"));
            for day in [1, 2] {
                let not_before = ccc_asn1::Time::from_ymd(2023, 1, day).expect("valid");
                let not_after = ccc_asn1::Time::from_ymd(2033, 1, 1).expect("valid");
                intermediates.push(
                    CertificateBuilder::ca_profile(dn.clone())
                        .validity(not_before, not_after)
                        .issued_by(&kp.public, issuer_dn.clone(), &issuer_kp),
                );
            }
            (issuer_dn, issuer_kp) = (dn, kp);
        }
        let leaf_kp = KeyPair::from_seed(g, b"twin-leaf");
        let leaf = CertificateBuilder::leaf_profile("twin.sim").issued_by(
            &leaf_kp.public,
            issuer_dn,
            &issuer_kp,
        );
        let mut served = vec![leaf];
        served.extend(intermediates.into_iter().rev());
        served.push(root);
        served
    }

    #[test]
    fn leaf_paths_are_capped_at_64_and_describe_names_16() {
        let served = twin_layers();
        let checker = IssuanceChecker::new();
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.paths.len(), 64);
        let root = served.len() - 1;
        for path in &g.paths {
            assert_eq!(path.len(), 9, "{path:?}");
            assert_eq!((path[0], path[8]), (0, root), "{path:?}");
        }
        let distinct: std::collections::HashSet<&Vec<usize>> = g.paths.iter().collect();
        assert_eq!(distinct.len(), 64);
        assert_eq!(g.describe().split("; ").count(), 16);
    }

    #[test]
    fn describe_is_readable() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let served = vec![f.leaf.clone(), f.int1.clone(), f.unrelated.clone()];
        let g = TopologyGraph::build(&served, &checker);
        let desc = g.describe();
        assert!(desc.contains("C0 <- C1"), "{desc}");
        assert!(desc.contains("irrelevant: C2"), "{desc}");
    }
}
