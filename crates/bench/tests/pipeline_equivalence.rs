//! Fused-pipeline equivalence guarantees (DESIGN.md §12):
//!
//! 1. Running the three analysis passes **fused** — one generation sweep,
//!    one shared checker, shared per-observation memo — is *bit-identical*
//!    to running each standalone `compute_with_threads` entry point with
//!    its own fresh checker, for every worker count.
//! 2. The guarantee holds on both sides of the 256-domain parallelism
//!    threshold and is seed-independent (property test).
//!
//! This is the contract that lets `chain-chaos matrix`/`lint`, the table
//! binaries, and the committed `BENCH_pipeline.json` snapshot use the
//! fused path while the golden outputs stay pinned to the standalone
//! numbers.

use ccc_bench::{
    scan_corpus, CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass,
    Pipeline,
};
use ccc_core::IssuanceChecker;
use ccc_lint::LintSummary;
use ccc_testgen::{Corpus, CorpusSpec};
use proptest::prelude::*;

/// Worker counts exercised: degenerate (1), odd/non-divisor (3), and more
/// workers than this container has cores (8).
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// Standalone reference summaries, each computed exactly the way the
/// one-pass `compute*` entry points do it: a fresh checker per analysis.
fn standalone(
    corpus: &Corpus,
    threads: usize,
) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let c1 = IssuanceChecker::new();
    let compliance = CorpusSummary::compute_with_threads(corpus, &c1, threads);
    let c2 = IssuanceChecker::new();
    let differential = DifferentialSummary::compute_with_threads(corpus, &c2, threads);
    let c3 = IssuanceChecker::new();
    let lint = LintSummary::compute_with_threads(corpus, &c3, threads);
    (compliance, differential, lint)
}

/// One fused sweep with all three passes registered.
fn fused(
    corpus: &Corpus,
    threads: usize,
) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let checker = IssuanceChecker::new();
    let ((c, d, l), stats) = Pipeline::new(threads).run(
        corpus,
        &checker,
        (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
    );
    assert_eq!(stats.passes, 3);
    (c.into_summary(), d.into_summary(), l.into_summary())
}

#[test]
fn fused_pipeline_is_bit_identical_to_standalone_passes() {
    // 200 stays below the 256-domain parallelism threshold (every thread
    // count takes the sequential path); 272 is above it, so the chunked
    // rank-range merge is exercised too.
    for domains in [200usize, 272] {
        let corpus = scan_corpus(domains);
        // The reference is thread-count-independent (guaranteed by
        // parallel_equivalence.rs), so compute it once at threads=1.
        let (ref_c, ref_d, ref_l) = standalone(&corpus, 1);
        assert_eq!(ref_c.total, domains);
        for threads in THREAD_COUNTS {
            let (fc, fd, fl) = fused(&corpus, threads);
            assert_eq!(fc, ref_c, "compliance diverged (domains={domains}, threads={threads})");
            assert_eq!(fd, ref_d, "differential diverged (domains={domains}, threads={threads})");
            assert_eq!(fl, ref_l, "lint diverged (domains={domains}, threads={threads})");
        }
    }
}

#[test]
fn fused_pipeline_matches_standalone_at_matching_thread_counts() {
    // Same comparison, but with the standalone side also parallel — the
    // configuration the CI job re-runs under CCC_THREADS=8.
    let corpus = scan_corpus(272);
    for threads in THREAD_COUNTS {
        let (ref_c, ref_d, ref_l) = standalone(&corpus, threads);
        let (fc, fd, fl) = fused(&corpus, threads);
        assert_eq!(fc, ref_c, "compliance diverged (threads={threads})");
        assert_eq!(fd, ref_d, "differential diverged (threads={threads})");
        assert_eq!(fl, ref_l, "lint diverged (threads={threads})");
    }
}

// Seed-independence: whatever corpus the generator produces, fused and
// standalone agree. Small corpora keep the property test fast while still
// covering the interesting chain-defect variety.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn fused_equivalence_holds_for_arbitrary_seeds(seed in 0u64..10_000, domains in 40usize..90) {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, domains));
        let (ref_c, ref_d, ref_l) = standalone(&corpus, 1);
        let (fc, fd, fl) = fused(&corpus, 3);
        prop_assert_eq!(fc, ref_c);
        prop_assert_eq!(fd, ref_d);
        prop_assert_eq!(fl, ref_l);
    }
}
