//! Frankencert-style chain mutation engine.
//!
//! Takes a well-formed served list and applies structural mutations drawn
//! from the paper's observed misconfiguration patterns. Used by the
//! property tests ("no client panics / every mutation yields a defined
//! verdict") and by fuzz-flavoured differential sweeps.

use ccc_crypto::Drbg;
use ccc_x509::Certificate;

/// A structural mutation of a served list.
#[derive(Clone, Debug)]
pub enum ChainMutation {
    /// Shuffle all certificates after the leaf.
    ShuffleTail,
    /// Reverse the certificates after the leaf.
    ReverseTail,
    /// Reverse the whole list (leaf last).
    ReverseAll,
    /// Duplicate the certificate at (index mod len), appending the copy
    /// right after it.
    DuplicateAt(usize),
    /// Duplicate the leaf immediately after itself.
    DuplicateLeaf,
    /// Drop the certificate at (1 + index mod (len-1)) — never the leaf.
    DropIntermediateAt(usize),
    /// Keep only the leaf.
    TruncateToLeaf,
    /// Insert an unrelated certificate at (index mod (len+1)).
    InsertIrrelevant(Certificate, usize),
    /// Repeat the tail (everything after the leaf) `n` more times.
    RepeatTail(usize),
    /// Swap two adjacent certificates starting at (index mod (len-1)).
    SwapAdjacentAt(usize),
}

impl ChainMutation {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChainMutation::ShuffleTail => "shuffle-tail",
            ChainMutation::ReverseTail => "reverse-tail",
            ChainMutation::ReverseAll => "reverse-all",
            ChainMutation::DuplicateAt(_) => "duplicate-at",
            ChainMutation::DuplicateLeaf => "duplicate-leaf",
            ChainMutation::DropIntermediateAt(_) => "drop-intermediate",
            ChainMutation::TruncateToLeaf => "truncate-to-leaf",
            ChainMutation::InsertIrrelevant(_, _) => "insert-irrelevant",
            ChainMutation::RepeatTail(_) => "repeat-tail",
            ChainMutation::SwapAdjacentAt(_) => "swap-adjacent",
        }
    }

    /// Apply to a served list (no-ops degrade gracefully on short lists).
    pub fn apply(&self, served: &mut Vec<Certificate>, drbg: &mut Drbg) {
        match self {
            ChainMutation::ShuffleTail => {
                if served.len() > 2 {
                    let tail = &mut served[1..];
                    drbg.shuffle(tail);
                }
            }
            ChainMutation::ReverseTail => {
                if served.len() > 2 {
                    served[1..].reverse();
                }
            }
            ChainMutation::ReverseAll => served.reverse(),
            ChainMutation::DuplicateAt(i) => {
                if !served.is_empty() {
                    let idx = i % served.len();
                    let cert = served[idx].clone();
                    served.insert(idx + 1, cert);
                }
            }
            ChainMutation::DuplicateLeaf => {
                if let Some(leaf) = served.first().cloned() {
                    served.insert(1, leaf);
                }
            }
            ChainMutation::DropIntermediateAt(i) => {
                if served.len() > 1 {
                    let idx = 1 + i % (served.len() - 1);
                    served.remove(idx);
                }
            }
            ChainMutation::TruncateToLeaf => served.truncate(1),
            ChainMutation::InsertIrrelevant(cert, i) => {
                let idx = if served.is_empty() {
                    0
                } else {
                    1 + i % served.len()
                };
                let idx = idx.min(served.len());
                served.insert(idx, cert.clone());
            }
            ChainMutation::RepeatTail(n) => {
                if served.len() > 1 {
                    let tail: Vec<Certificate> = served[1..].to_vec();
                    for _ in 0..*n {
                        served.extend(tail.iter().cloned());
                    }
                }
            }
            ChainMutation::SwapAdjacentAt(i) => {
                if served.len() > 1 {
                    let idx = i % (served.len() - 1);
                    served.swap(idx, idx + 1);
                }
            }
        }
    }
}

/// Seeded mutation source.
#[derive(Clone, Debug)]
pub struct Mutator {
    drbg: Drbg,
    /// Pool of unrelated certificates for `InsertIrrelevant`.
    pub irrelevant_pool: Vec<Certificate>,
}

impl Mutator {
    /// Create a mutator with a seed and an irrelevant-certificate pool.
    pub fn new(seed: u64, irrelevant_pool: Vec<Certificate>) -> Mutator {
        Mutator {
            drbg: Drbg::from_u64(seed).fork("mutator"),
            irrelevant_pool,
        }
    }

    /// Draw a random mutation.
    pub fn random_mutation(&mut self) -> ChainMutation {
        let choices = if self.irrelevant_pool.is_empty() {
            9
        } else {
            10
        };
        match self.drbg.below(choices) {
            0 => ChainMutation::ShuffleTail,
            1 => ChainMutation::ReverseTail,
            2 => ChainMutation::ReverseAll,
            3 => ChainMutation::DuplicateAt(self.drbg.below(8) as usize),
            4 => ChainMutation::DuplicateLeaf,
            5 => ChainMutation::DropIntermediateAt(self.drbg.below(8) as usize),
            6 => ChainMutation::TruncateToLeaf,
            7 => ChainMutation::RepeatTail(1 + self.drbg.below(3) as usize),
            8 => ChainMutation::SwapAdjacentAt(self.drbg.below(8) as usize),
            _ => {
                let idx = self.drbg.below(self.irrelevant_pool.len() as u64) as usize;
                ChainMutation::InsertIrrelevant(
                    self.irrelevant_pool[idx].clone(),
                    self.drbg.below(8) as usize,
                )
            }
        }
    }

    /// Apply `count` random mutations to a list, returning the labels.
    pub fn mutate(&mut self, served: &mut Vec<Certificate>, count: usize) -> Vec<&'static str> {
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let m = self.random_mutation();
            labels.push(m.label());
            let mut drbg = self.drbg.fork("apply");
            m.apply(served, &mut drbg);
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    fn chain() -> Vec<Certificate> {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"mut-root");
        let int_kp = KeyPair::from_seed(g, b"mut-int");
        let leaf_kp = KeyPair::from_seed(g, b"mut-leaf");
        let root_dn = DistinguishedName::cn("Mut Root");
        let int_dn = DistinguishedName::cn("Mut Int");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let int = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn,
            &root_kp,
        );
        let leaf =
            CertificateBuilder::leaf_profile("mut.sim").issued_by(&leaf_kp.public, int_dn, &int_kp);
        vec![leaf, int, root]
    }

    #[test]
    fn reverse_tail_keeps_leaf() {
        let mut c = chain();
        let leaf = c[0].clone();
        let mut drbg = Drbg::from_u64(1);
        ChainMutation::ReverseTail.apply(&mut c, &mut drbg);
        assert_eq!(c[0], leaf);
        assert!(c[1].is_self_issued(), "root now precedes intermediate");
    }

    #[test]
    fn duplicate_leaf() {
        let mut c = chain();
        let mut drbg = Drbg::from_u64(1);
        ChainMutation::DuplicateLeaf.apply(&mut c, &mut drbg);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], c[1]);
    }

    #[test]
    fn drop_never_removes_leaf() {
        for i in 0..10 {
            let mut c = chain();
            let leaf = c[0].clone();
            let mut drbg = Drbg::from_u64(1);
            ChainMutation::DropIntermediateAt(i).apply(&mut c, &mut drbg);
            assert_eq!(c.len(), 2);
            assert_eq!(c[0], leaf);
        }
    }

    #[test]
    fn repeat_tail_grows_list() {
        let mut c = chain();
        let mut drbg = Drbg::from_u64(1);
        ChainMutation::RepeatTail(13).apply(&mut c, &mut drbg);
        // 1 leaf + 14 copies of the 2-cert tail = 29 (the ns3.link size).
        assert_eq!(c.len(), 29);
    }

    #[test]
    fn truncate_to_leaf() {
        let mut c = chain();
        let mut drbg = Drbg::from_u64(1);
        ChainMutation::TruncateToLeaf.apply(&mut c, &mut drbg);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn mutator_is_deterministic() {
        let mut m1 = Mutator::new(9, vec![]);
        let mut m2 = Mutator::new(9, vec![]);
        let mut c1 = chain();
        let mut c2 = chain();
        let l1 = m1.mutate(&mut c1, 5);
        let l2 = m2.mutate(&mut c2, 5);
        assert_eq!(l1, l2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn mutations_never_panic_on_tiny_lists() {
        let leaf = chain().remove(0);
        for seed in 0..20u64 {
            let mut m = Mutator::new(seed, vec![leaf.clone()]);
            let mut served = vec![leaf.clone()];
            m.mutate(&mut served, 8);
            let mut empty: Vec<Certificate> = Vec::new();
            m.mutate(&mut empty, 8);
        }
    }
}
