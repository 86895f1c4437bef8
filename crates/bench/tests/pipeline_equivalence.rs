//! Fused-pipeline equivalence guarantees (DESIGN.md §12):
//!
//! 1. Running the three analysis passes **fused** — one generation sweep,
//!    one shared checker, shared per-observation memo — is *bit-identical*
//!    to running each pass alone in its own `Pipeline::run` with a fresh
//!    checker, and the lint pass to the plain per-chain loop of
//!    `LintSummary::compute_range`, for every worker count.
//! 2. The guarantee holds on both sides of the 256-domain parallelism
//!    threshold and is seed-independent (property test).
//!
//! This is the contract that lets `chain-chaos matrix`/`lint`,
//! `table_lint`, and the `pipeline/1k` case of the committed
//! `BENCH_perf.json` snapshot fuse passes while the golden outputs stay
//! pinned to the single-pass numbers.

use ccc_bench::{
    scan_corpus, CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass,
    Pipeline,
};
use ccc_core::IssuanceChecker;
use ccc_lint::{Baseline, LintSummary};
use ccc_testgen::{Corpus, CorpusSpec};
use proptest::prelude::*;

/// Worker counts exercised: degenerate (1), odd/non-divisor (3), and more
/// workers than this container has cores (8).
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// Standalone reference summaries: one single-pass sweep per analysis,
/// each with a fresh checker, and the sequential per-chain lint loop
/// (no memo shared with any other analysis).
fn standalone(
    corpus: &Corpus,
    threads: usize,
) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let c1 = IssuanceChecker::new();
    let (compliance, _) = Pipeline::new(threads).run(corpus, &c1, CompliancePass::new());
    let c2 = IssuanceChecker::new();
    let (differential, _) = Pipeline::new(threads).run(corpus, &c2, DifferentialPass::new());
    let c3 = IssuanceChecker::new();
    let lint = LintSummary::compute_range(corpus, &c3, 0, corpus.spec.domains);
    (compliance.into_summary(), differential.into_summary(), lint)
}

/// One fused sweep with all three passes registered.
fn fused(corpus: &Corpus, threads: usize) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let checker = IssuanceChecker::new();
    let ((c, d, l), stats) = Pipeline::new(threads).run(
        corpus,
        &checker,
        (
            CompliancePass::new(),
            DifferentialPass::new(),
            LintPass::new(),
        ),
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
            assert_eq!(
                fc, ref_c,
                "compliance diverged (domains={domains}, threads={threads})"
            );
            assert_eq!(
                fd, ref_d,
                "differential diverged (domains={domains}, threads={threads})"
            );
            assert_eq!(
                fl, ref_l,
                "lint diverged (domains={domains}, threads={threads})"
            );
        }
    }
}

#[test]
fn fused_pipeline_matches_standalone_at_matching_thread_counts() {
    // Same comparison, but with the single-pass sweeps also parallel.
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

/// Fingerprints are content-derived: two independent lint sweeps over the
/// same corpus at different worker counts produce identical error-finding
/// fingerprints, so a baseline written by one run suppresses the other.
#[test]
fn baselines_transfer_between_runs() {
    let corpus = scan_corpus(1000);
    let lint = |threads: usize| {
        let checker = IssuanceChecker::new();
        let (pass, _) = Pipeline::new(threads).run(&corpus, &checker, LintPass::new());
        pass.into_summary()
    };
    let first = lint(2);
    let second = lint(5);
    assert!(!first.error_findings.is_empty());
    let baseline = Baseline::from_findings(first.error_findings.iter());
    let remaining = baseline.filter(second.error_findings);
    assert!(remaining.is_empty(), "{} unsuppressed", remaining.len());
}
