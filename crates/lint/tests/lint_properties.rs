//! Property tests for corpus-wide linting.
//!
//! The two load-bearing properties:
//! 1. **Equivalence**: a chain is non-compliant per `analyze_compliance`
//!    iff linting yields ≥1 Error-severity finding — over arbitrary corpus
//!    seeds, not just the scan seed.
//! 2. **Composition**: rank-range summaries add up, the associativity the
//!    fused pipeline's parallel merge relies on (its worker-count
//!    invariance is tested in `ccc-bench`).

use ccc_core::IssuanceChecker;
use ccc_lint::{LintSummary, Severity};
use ccc_testgen::{Corpus, CorpusSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Equivalence holds for arbitrary corpus seeds: every compliant
    // chain lints clean of errors, every non-compliant chain produces at
    // least one error finding, and the mapped chain rule fires.
    #[test]
    fn lint_compliance_equivalence_over_seeds(seed in 1u64..5000) {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, 64));
        let checker = IssuanceChecker::new();
        let s = LintSummary::compute_range(&corpus, &checker, 0, 64);
        prop_assert!(s.is_consistent(), "{:?}", s.consistency_violations);
        prop_assert_eq!(s.noncompliant_chains, s.chains_with_error);
        prop_assert_eq!(s.error_findings.len(), s.severity_count(Severity::Error));
    }

    // Partial-range lints compose: linting [0, n) equals merging the
    // summaries of [0, k) and [k, n), every field including `total` — the
    // associativity the parallel pipeline relies on.
    #[test]
    fn range_splits_compose(split in 1usize..63) {
        let corpus = Corpus::new(CorpusSpec::calibrated(97, 64));
        let checker = IssuanceChecker::new();
        let whole = LintSummary::compute_range(&corpus, &checker, 0, 64);
        let mut merged = LintSummary::compute_range(&corpus, &checker, 0, split);
        merged.merge(LintSummary::compute_range(&corpus, &checker, split, 64));
        prop_assert_eq!(whole, merged);
    }
}

/// The 1k-domain cross-check: the full scan corpus (seed 833, the bench
/// harness seed) at 1000 domains upholds the equivalence contract and
/// produces a sane severity mix.
#[test]
fn scan_corpus_1k_lint_is_consistent() {
    let corpus = Corpus::new(CorpusSpec::calibrated(833, 1000));
    let checker = IssuanceChecker::new();
    let s = LintSummary::compute_range(&corpus, &checker, 0, 1000);
    assert_eq!(s.total, 1000);
    assert!(s.is_consistent(), "{:?}", s.consistency_violations);
    assert_eq!(s.noncompliant_chains, s.chains_with_error);
    // The calibrated corpus plants every defect class at low rates; at 1k
    // domains some errors and plenty of notices/warnings exist.
    assert!(s.severity_count(Severity::Error) > 0);
    assert!(s.findings_total > s.severity_count(Severity::Error));
}
