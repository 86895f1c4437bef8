//! Issuance topology graph over a served certificate list (paper §3.1,
//! Figure 2).
//!
//! Nodes are the certificates at their served positions; duplicates keep
//! only the first occurrence (relabelled `Cp[i]`); directed edges run from
//! issuer to subject. All paths are enumerated starting from the leaf
//! (`C0`) and walking issuer-ward.

// Sync primitives come from ccc-mc: plain std re-exports in normal
// builds, scheduler-instrumented shims under the `model-check` feature
// (enforced by ci/check_raw_sync.sh).
use ccc_mc::{AtomicU64, Mutex, OnceLock};
use ccc_x509::{Certificate, CertificateFingerprint, FingerprintBuildHasher, FingerprintMap};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A (issuer fingerprint, subject fingerprint) cache key.
type PairKey = (CertificateFingerprint, CertificateFingerprint);

/// One lock-striped slice of the signature cache.
///
/// The value is an `Arc<OnceLock<bool>>` rather than a plain `bool` so the
/// shard lock is held only for the map operation: the expensive Schnorr
/// verification itself runs *outside* the lock, and `OnceLock` guarantees
/// it runs at most once per pair even when several threads miss on the
/// same key simultaneously (losers block on the winner's result instead of
/// recomputing).
#[derive(Debug)]
struct Shard {
    /// Keys are SHA-256 fingerprint pairs, so the map skips SipHash in
    /// favour of the cheap fingerprint fold (`FingerprintBuildHasher`).
    map: Mutex<HashMap<PairKey, Arc<OnceLock<bool>>, FingerprintBuildHasher>>,
}

impl Shard {
    /// Explicit construction (not `derive(Default)`) so the lock class
    /// the model checker reports for every shard stripe is this site.
    fn new() -> Shard {
        Shard {
            map: Mutex::new(HashMap::default()),
        }
    }
}

/// Point-in-time counters from an [`IssuanceChecker`]
/// (see [`IssuanceChecker::snapshot_stats`]). They count this checker's
/// own cache activity only; how verifications split between per-key
/// tables and plain `pow_mont` is process-global and read from the
/// `ccc-obs` registry via `ccc_crypto::verify_stats`.
///
/// Invariants (exact once all worker threads have been joined):
/// - `hits + misses == lookups`
/// - `verifications + coalesced_waits == misses`
/// - `verifications == entries` (each unique pair is verified exactly once)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `signature_verifies` calls.
    pub lookups: u64,
    /// Lookups answered from a completed cache entry.
    pub hits: u64,
    /// Lookups that did not find a completed entry (`lookups - hits`).
    pub misses: u64,
    /// Signature verifications actually executed (unique pairs).
    pub verifications: u64,
    /// Misses that waited on a verification already in flight on another
    /// thread instead of recomputing (the duplicate work the old
    /// double-lock design performed).
    pub coalesced_waits: u64,
    /// Memoized pairs currently resident.
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

/// Default shard count (power of two; tuned for up-to-16-thread corpus
/// passes with headroom).
const DEFAULT_SHARDS: usize = 64;

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
/// The cache is **N-way sharded** (one mutex per shard, key → shard by
/// fingerprint bits), so concurrent corpus workers sharing one checker do
/// not serialize on a single lock, and the miss path is
/// **single-acquisition**: the shard lock is taken once to install an
/// in-flight slot, the verification runs outside the lock, and concurrent
/// misses on the same pair coalesce onto one verification (see `Shard`).
/// Hit/miss/verification counters are exposed via
/// [`snapshot_stats`](IssuanceChecker::snapshot_stats).
#[derive(Debug)]
pub struct IssuanceChecker {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is always a power of two.
    mask: u64,
    lookups: AtomicU64,
    hits: AtomicU64,
    verifications: AtomicU64,
    coalesced_waits: AtomicU64,
}

impl Default for IssuanceChecker {
    fn default() -> IssuanceChecker {
        IssuanceChecker::with_shards(DEFAULT_SHARDS)
    }
}

impl IssuanceChecker {
    /// Fresh checker with an empty cache and the default shard count.
    pub fn new() -> IssuanceChecker {
        IssuanceChecker::default()
    }

    /// Fresh checker with `shards` lock stripes (rounded up to a power of
    /// two, minimum 1). `with_shards(1)` is the single-mutex configuration
    /// the model tests explore (`tests/model_concurrency.rs`).
    pub fn with_shards(shards: usize) -> IssuanceChecker {
        let count = shards.max(1).next_power_of_two();
        IssuanceChecker {
            shards: (0..count).map(|_| Shard::new()).collect(),
            mask: (count - 1) as u64,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            verifications: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
        }
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

    /// Shard selector: fingerprints are SHA-256 outputs, so any fixed bit
    /// slice is uniformly distributed; mix both halves of the pair so
    /// (A, B) and (B, A) land independently.
    fn shard_for(&self, key: &PairKey) -> &Shard {
        let a = u64::from_le_bytes(key.0 .0[..8].try_into().expect("32-byte fingerprint"));
        let b = u64::from_le_bytes(key.1 .0[8..16].try_into().expect("32-byte fingerprint"));
        let idx = (a ^ b.rotate_left(17)) & self.mask;
        &self.shards[idx as usize]
    }

    /// Cached signature check: does `issuer`'s key verify `subject`?
    pub fn signature_verifies(&self, issuer: &Certificate, subject: &Certificate) -> bool {
        let key = (issuer.fingerprint(), subject.fingerprint());
        // ordering: Relaxed — a pure event counter. fetch_add's atomic RMW
        // alone guarantees no update is lost (the
        // `route_counters_lose_no_updates` model property); nothing reads
        // `lookups` to synchronize with other memory, so no
        // acquire/release pairing is needed.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(&key);

        // Single lock acquisition: either read a completed entry, adopt an
        // in-flight slot, or install a fresh slot to initialize ourselves.
        let slot: Arc<OnceLock<bool>> = {
            let mut map = shard.map.lock().expect("shard lock poisoned");
            match map.get(&key) {
                Some(slot) => {
                    if let Some(&done) = slot.get() {
                        // ordering: Relaxed — event counter; the verdict
                        // itself is published by the OnceLock's internal
                        // acquire/release, not by this counter.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return done;
                    }
                    Arc::clone(slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    map.insert(key, Arc::clone(&slot));
                    slot
                }
            }
        };

        // Miss path, outside the lock. Exactly one thread runs the
        // verification per pair; the rest block here and adopt its result.
        let mut computed = false;
        let result = *slot.get_or_init(|| {
            computed = true;
            // ordering: Relaxed — counts initializer executions. The
            // OnceLock already serializes the closure (exactly one run
            // per slot, checked by the `cache_coalesces_to_one_
            // verification` model property), so the counter needs no
            // ordering of its own.
            self.verifications.fetch_add(1, Ordering::Relaxed);
            subject.verify_signature_with(issuer.public_key())
        });
        if !computed {
            // ordering: Relaxed — event counter for losers of the
            // init race; carries no synchronization.
            self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The full issuance relationship (criteria 1 ∧ (2 ∨ 3)).
    pub fn issues(&self, issuer: &Certificate, subject: &Certificate) -> bool {
        Self::identity_match(issuer, subject) && self.signature_verifies(issuer, subject)
    }

    /// Number of memoized signature checks.
    pub fn cache_size(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("shard lock poisoned").len())
            .sum()
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
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
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
        TopologyGraph {
            nodes,
            issued_by_me,
            issuers_of,
            served_len: served.len(),
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

    /// Enumerate all simple issuer paths from the leaf: each path is a list
    /// of node indices starting at node 0 and extending issuer-ward until
    /// no further (non-repeating) issuer exists.
    ///
    /// Cross-signed loops are cut by the simple-path constraint. The number
    /// of paths is capped at `max_paths` as a safety valve for adversarial
    /// topologies (the paper's real-world maximum was 3).
    pub fn leaf_paths(&self, max_paths: usize) -> Vec<Vec<usize>> {
        let mut paths = Vec::new();
        if self.nodes.is_empty() {
            return paths;
        }
        let mut current = vec![0usize];
        let mut on_path = vec![false; self.nodes.len()];
        on_path[0] = true;
        self.extend_path(&mut current, &mut on_path, &mut paths, max_paths);
        paths
    }

    fn extend_path(
        &self,
        current: &mut Vec<usize>,
        on_path: &mut Vec<bool>,
        paths: &mut Vec<Vec<usize>>,
        max_paths: usize,
    ) {
        if paths.len() >= max_paths {
            return;
        }
        let tip = *current.last().expect("path never empty");
        let next: Vec<usize> = self.issuers_of[tip]
            .iter()
            .copied()
            .filter(|&p| !on_path[p])
            .collect();
        if next.is_empty() {
            paths.push(current.clone());
            return;
        }
        for parent in next {
            current.push(parent);
            on_path[parent] = true;
            self.extend_path(current, on_path, paths, max_paths);
            on_path[parent] = false;
            current.pop();
        }
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

    /// Render the graph in a compact text form for reports:
    /// `C0 <- C1 <- C2; irrelevant: C3` style.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let paths = self.leaf_paths(16);
        for (i, path) in paths.iter().enumerate() {
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
        let served = vec![f.leaf.clone(), f.int1.clone(), f.int2.clone(), f.root.clone()];
        let g = TopologyGraph::build(&served, &checker);
        assert_eq!(g.unique_len(), 4);
        assert!(!g.has_duplicates());
        assert!(g.irrelevant_nodes().is_empty());
        let paths = g.leaf_paths(16);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0], vec![0, 1, 2, 3]);
        assert!(!g.path_is_reversed(&paths[0]));
    }

    #[test]
    fn reversed_chain_detected() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        // Reversed tail: leaf, root, int2, int1.
        let served = vec![f.leaf.clone(), f.root.clone(), f.int2.clone(), f.int1.clone()];
        let g = TopologyGraph::build(&served, &checker);
        let paths = g.leaf_paths(16);
        assert_eq!(paths.len(), 1);
        assert!(g.path_is_reversed(&paths[0]));
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
        let served = vec![f.leaf.clone(), f.unrelated.clone(), f.int1.clone(), f.int2.clone()];
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
        let paths = g.leaf_paths(16);
        assert_eq!(paths.len(), 2);
        // The path through the cross cert: cross appears before int2, so
        // one of them is fine and the ordering question is about links.
        let reversed: Vec<bool> = paths.iter().map(|p| g.path_is_reversed(p)).collect();
        // leaf(0) <- int1(1) <- cross(2) is increasing; leaf <- int1 <-
        // int2(3) <- root(4) is increasing too.
        assert!(reversed.iter().any(|&r| !r));
    }

    #[test]
    fn empty_and_single_lists() {
        let checker = IssuanceChecker::new();
        let g = TopologyGraph::build(&[], &checker);
        assert_eq!(g.unique_len(), 0);
        assert!(g.leaf_paths(16).is_empty());

        let f = fixture();
        let g = TopologyGraph::build(std::slice::from_ref(&f.leaf), &checker);
        assert_eq!(g.leaf_paths(16), vec![vec![0]]);
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
    fn self_signed_has_no_self_edge() {
        let f = fixture();
        let checker = IssuanceChecker::new();
        let g = TopologyGraph::build(std::slice::from_ref(&f.root), &checker);
        assert!(g.issuers_of[0].is_empty());
        assert_eq!(g.leaf_paths(16), vec![vec![0]]);
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
