//! Issuance-order compliance analysis (paper §4.2 / Table 5).

use crate::topology::{IssuanceChecker, TopologyGraph};
use ccc_x509::Certificate;

/// Where duplicates occurred within a chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DuplicateBreakdown {
    /// Bit-identical copies of the leaf (node 0) certificate.
    pub leaf: usize,
    /// Copies of intermediate (CA, non-self-issued) certificates.
    pub intermediate: usize,
    /// Copies of root (self-issued) certificates.
    pub root: usize,
}

impl DuplicateBreakdown {
    /// Total duplicate occurrences.
    pub fn total(&self) -> usize {
        self.leaf + self.intermediate + self.root
    }
}

/// The order analysis of one served list.
#[derive(Clone, Debug)]
pub struct OrderAnalysis {
    /// Duplicate occurrences by certificate role.
    pub duplicates: DuplicateBreakdown,
    /// Number of certificates with no issuance relation to the leaf.
    pub irrelevant: usize,
    /// Number of simple issuer paths from the leaf.
    pub path_count: usize,
    /// Number of those paths with at least one reversed link.
    pub reversed_paths: usize,
    /// Whether EVERY path is reversed (the paper's "all paths reversed").
    pub all_paths_reversed: bool,
    /// Whether the single path's positions are exactly 0,1,2,… (the strict
    /// RFC 5246 adjacency requirement).
    pub strictly_sequential: bool,
}

impl OrderAnalysis {
    /// True when the served list satisfies the issuance-order requirement:
    /// no duplicates, no irrelevant certificates, a single path, and
    /// strictly sequential positions.
    pub fn is_compliant(&self) -> bool {
        self.duplicates.total() == 0
            && self.irrelevant == 0
            && self.path_count <= 1
            && self.reversed_paths == 0
            && self.strictly_sequential
    }

    /// Paper Table 5 flags (a chain can belong to several rows).
    pub fn has_duplicates(&self) -> bool {
        self.duplicates.total() > 0
    }

    /// Irrelevant-certificates flag.
    pub fn has_irrelevant(&self) -> bool {
        self.irrelevant > 0
    }

    /// Multiple-paths flag.
    pub fn has_multiple_paths(&self) -> bool {
        self.path_count > 1
    }

    /// Reversed-sequence flag.
    pub fn has_reversed(&self) -> bool {
        self.reversed_paths > 0
    }
}

/// Run the order analysis over a served list.
pub fn analyze_order(served: &[Certificate], checker: &IssuanceChecker) -> OrderAnalysis {
    let graph = TopologyGraph::build(served, checker);
    analyze_order_with_graph(&graph)
}

/// Order analysis over a pre-built topology graph.
pub fn analyze_order_with_graph(graph: &TopologyGraph) -> OrderAnalysis {
    let mut duplicates = DuplicateBreakdown::default();
    for (i, node) in graph.nodes.iter().enumerate() {
        let count = node.duplicate_positions.len();
        if count == 0 {
            continue;
        }
        if i == 0 {
            duplicates.leaf += count;
        } else if node.cert.is_self_issued() {
            duplicates.root += count;
        } else {
            duplicates.intermediate += count;
        }
    }

    let irrelevant = graph.irrelevant_nodes().len();
    let paths = &graph.paths;
    let reversed_count = paths.iter().filter(|p| graph.path_is_reversed(p)).count();

    // Strict adjacency: with one path and no noise, positions must be the
    // exact prefix 0,1,2,…; the root MAY be omitted so the path may stop
    // early, but it must cover every served certificate.
    let strictly_sequential = if paths.len() == 1 {
        let p = &paths[0];
        p.iter()
            .enumerate()
            .all(|(i, &n)| graph.nodes[n].position == i)
            && p.len() == graph.served_len
    } else {
        false
    };

    OrderAnalysis {
        duplicates,
        irrelevant,
        path_count: paths.len(),
        reversed_paths: reversed_count,
        all_paths_reversed: !paths.is_empty() && reversed_count == paths.len(),
        strictly_sequential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    struct Chain {
        leaf: Certificate,
        int: Certificate,
        root: Certificate,
        foreign_root: Certificate,
    }

    fn chain() -> Chain {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"ord-root");
        let int_kp = KeyPair::from_seed(g, b"ord-int");
        let leaf_kp = KeyPair::from_seed(g, b"ord-leaf");
        let foreign_kp = KeyPair::from_seed(g, b"ord-foreign");
        let root_dn = DistinguishedName::cn("Ord Root");
        let int_dn = DistinguishedName::cn("Ord Int");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let int = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn,
            &root_kp,
        );
        let leaf =
            CertificateBuilder::leaf_profile("ord.sim").issued_by(&leaf_kp.public, int_dn, &int_kp);
        let foreign_root = CertificateBuilder::ca_profile(DistinguishedName::cn("Foreign"))
            .self_signed(&foreign_kp);
        Chain {
            leaf,
            int,
            root,
            foreign_root,
        }
    }

    #[test]
    fn compliant_chain_passes() {
        let c = chain();
        let checker = IssuanceChecker::new();
        let a = analyze_order(&[c.leaf.clone(), c.int.clone(), c.root.clone()], &checker);
        assert!(a.is_compliant(), "{a:?}");
        // Root omitted is also compliant.
        let a = analyze_order(&[c.leaf.clone(), c.int.clone()], &checker);
        assert!(a.is_compliant(), "{a:?}");
        // Lone leaf is order-compliant (completeness is a separate check).
        let a = analyze_order(std::slice::from_ref(&c.leaf), &checker);
        assert!(a.is_compliant(), "{a:?}");
    }

    #[test]
    fn duplicate_leaf_detected() {
        let c = chain();
        let checker = IssuanceChecker::new();
        let a = analyze_order(&[c.leaf.clone(), c.leaf.clone(), c.int.clone()], &checker);
        assert!(!a.is_compliant());
        assert_eq!(a.duplicates.leaf, 1);
        assert_eq!(a.duplicates.total(), 1);
        assert!(a.has_duplicates());
    }

    #[test]
    fn duplicate_roles_distinguished() {
        let c = chain();
        let checker = IssuanceChecker::new();
        let a = analyze_order(
            &[
                c.leaf.clone(),
                c.int.clone(),
                c.int.clone(),
                c.root.clone(),
                c.root.clone(),
                c.root.clone(),
            ],
            &checker,
        );
        assert_eq!(a.duplicates.intermediate, 1);
        assert_eq!(a.duplicates.root, 2);
        assert_eq!(a.duplicates.leaf, 0);
    }

    #[test]
    fn irrelevant_detected() {
        let c = chain();
        let checker = IssuanceChecker::new();
        let a = analyze_order(
            &[c.leaf.clone(), c.foreign_root.clone(), c.int.clone()],
            &checker,
        );
        assert!(a.has_irrelevant());
        assert_eq!(a.irrelevant, 1);
        assert!(!a.is_compliant());
    }

    #[test]
    fn reversed_detected() {
        let c = chain();
        let checker = IssuanceChecker::new();
        let a = analyze_order(&[c.leaf.clone(), c.root.clone(), c.int.clone()], &checker);
        assert!(a.has_reversed());
        assert!(a.all_paths_reversed);
        assert!(!a.is_compliant());
    }

    #[test]
    fn gap_in_sequence_not_strictly_sequential() {
        let c = chain();
        let checker = IssuanceChecker::new();
        // leaf, foreign, int, root: single path 0 <- 2 <- 3, not sequential.
        let a = analyze_order(
            &[
                c.leaf.clone(),
                c.foreign_root.clone(),
                c.int.clone(),
                c.root.clone(),
            ],
            &checker,
        );
        assert!(!a.strictly_sequential);
        assert!(!a.is_compliant());
    }

    #[test]
    fn empty_list() {
        let checker = IssuanceChecker::new();
        let a = analyze_order(&[], &checker);
        assert_eq!(a.path_count, 0);
        assert!(!a.has_reversed());
        // Vacuously "ordered" but not a usable chain; strictly_sequential
        // is false because there is no single path.
        assert!(!a.is_compliant());
    }
}
