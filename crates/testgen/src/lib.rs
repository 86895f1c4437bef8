//! Test-case and corpus generation for chain-chaos.
//!
//! - [`capability`]: the paper's nine chain-construction capability tests
//!   (Table 2) and the machinery to evaluate any [`ccc_core::ChainEngine`]
//!   against them, reproducing Table 9;
//! - [`scenarios`]: the paper's concrete case studies — Figure 2's four
//!   topologies, Figure 3 (GnuTLS long list), Figure 4 (backtracking),
//!   Figure 5 (validity priority candidates);
//! - [`mutate`]: a frankencert-style chain mutation engine for
//!   property-based and fuzz-flavoured differential testing;
//! - [`corpus`]: the calibrated Tranco-like population generator whose
//!   structural-defect mix matches the paper's measured marginals.

pub mod capability;
pub mod corpus;
pub mod mutate;
pub mod scenarios;

pub use capability::{CapabilityRow, CapabilitySuite, KpClass, MaxLen, VpClass};
pub use corpus::{Corpus, CorpusSpec, DomainObservation, PlannedDefect};
pub use mutate::{ChainMutation, Mutator};
