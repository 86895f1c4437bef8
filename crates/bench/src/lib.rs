//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every `table*`/`figure*`/`section52` binary drives a single streaming
//! pass over a calibrated corpus ([`CorpusSummary::compute`]) and prints
//! its slice of the accumulated statistics next to the paper's published
//! values, so "shape" comparisons are one `cargo run` away.
//!
//! All corpus sweeps run on the fused [`pipeline`]: observations are
//! generated exactly once per sweep and fanned to every registered
//! [`AnalysisPass`], so running the structural, differential, and lint
//! analyses together costs one generation pass, not three (see
//! DESIGN.md §12 and `benches/pipeline.rs`).
//!
//! Scale control: binaries default to 100,000 domains; set `CCC_DOMAINS`
//! (or pass the count as the first CLI argument) to change it. The paper's
//! absolute counts are for 906,336 chains; percentages are the comparable
//! quantity.
//!
//! Thread control: worker count defaults to `available_parallelism`
//! (capped at 16); set `CCC_THREADS` to pin it — e.g. `CCC_THREADS=1` for
//! a deterministic single-threaded profile run, or a higher value on wide
//! machines. Results are bit-identical for every thread count (partial
//! summaries merge associatively).
//!
//! Signature verification has no knobs: every miss in the shared
//! signature cache runs one `PublicKey::verify` (see DESIGN.md §14).

use ccc_core::clients::ClientKind;
use ccc_core::{
    Completeness, DifferentialReport, DiscrepancyCause, IssuanceChecker, LeafPlacement,
};
use ccc_netsim::httpserver::HttpServerKind;
use ccc_rootstore::RootProgram;
use ccc_testgen::{Corpus, CorpusSpec};
use std::collections::BTreeMap;

pub mod pipeline;

pub use pipeline::{
    touch_pipeline_metrics, AnalysisPass, ChaosClientCell, ChaosScenarioSummary, ChaosSummary,
    CompliancePass, DifferentialPass, FaultPass, FaultScenario, LintPass, ObservationMemo,
    PassContext, Pipeline, PipelineStats,
};

/// Default corpus size for the regeneration binaries.
pub const DEFAULT_DOMAINS: usize = 100_000;

/// The corpus seed used by every regeneration binary (the "scan").
pub const SCAN_SEED: u64 = 833;

/// Resolve the worker-thread count: `CCC_THREADS` env > detected
/// parallelism (capped at 16). Values of 0 are treated as unset; the
/// summaries are bit-identical regardless of the choice.
pub fn threads_from_env() -> usize {
    if let Some(n) = std::env::var("CCC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Resolve the corpus size: CLI arg > `CCC_DOMAINS` env > default.
pub fn domains_from_env() -> usize {
    if let Some(arg) = std::env::args().nth(1) {
        if let Ok(n) = arg.parse() {
            return n;
        }
    }
    std::env::var("CCC_DOMAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_DOMAINS)
}

/// Build the standard scan corpus.
pub fn scan_corpus(domains: usize) -> Corpus {
    Corpus::new(CorpusSpec::calibrated(SCAN_SEED, domains))
}

/// Per-(store, AIA) completeness tallies for Table 8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreCompleteness {
    /// Chains NOT anchorable with AIA enabled.
    pub incomplete_with_aia: usize,
    /// Chains NOT anchorable without AIA.
    pub incomplete_without_aia: usize,
}

/// Cross-tab row used by Tables 10/11: counts per non-compliance type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DefectCounts {
    /// Any non-compliance at all.
    pub any: usize,
    /// Duplicate certificates (plus leaf-only split).
    pub duplicates: usize,
    /// Duplicate leaf specifically.
    pub duplicate_leaf: usize,
    /// Irrelevant certificates.
    pub irrelevant: usize,
    /// Multiple paths.
    pub multipath: usize,
    /// Reversed sequences.
    pub reversed: usize,
    /// Incomplete chain.
    pub incomplete: usize,
    /// Total observations in this bucket (for rate columns).
    pub total: usize,
}

/// Everything a single streaming pass over the corpus accumulates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusSummary {
    /// Domains scanned.
    pub total: usize,
    /// Table 3.
    pub placement: BTreeMap<LeafPlacement, usize>,
    /// Table 5 rows.
    pub dup_chains: usize,
    /// Duplicate split: leaf/intermediate/root occurrences.
    pub dup_leaf_chains: usize,
    /// Chains with duplicated intermediates.
    pub dup_intermediate_chains: usize,
    /// Chains with duplicated roots.
    pub dup_root_chains: usize,
    /// Irrelevant-certificate chains.
    pub irrelevant_chains: usize,
    /// Multiple-path chains.
    pub multipath_chains: usize,
    /// Reversed-sequence chains.
    pub reversed_chains: usize,
    /// Chains where ALL paths are reversed.
    pub all_paths_reversed_chains: usize,
    /// Any order non-compliance.
    pub order_noncompliant: usize,
    /// Table 7.
    pub completeness: BTreeMap<Completeness, usize>,
    /// Incomplete chains recoverable via AIA.
    pub aia_completable: usize,
    /// Incomplete chains missing exactly one intermediate.
    pub missing_single_intermediate: usize,
    /// AIA failure reasons among non-recoverable incompletes.
    pub incomplete_reasons: BTreeMap<&'static str, usize>,
    /// Chains that located the omitted root via AIA rather than SKID.
    pub root_via_aia: usize,
    /// Overall non-compliant domains (order ∪ incomplete ∪ misplaced).
    pub noncompliant: usize,
    /// Table 8: per root program.
    pub store_completeness: BTreeMap<RootProgram, StoreCompleteness>,
    /// Unified-store baseline incompleteness (with AIA).
    pub unified_incomplete_with_aia: usize,
    /// Unified-store incompleteness without AIA.
    pub unified_incomplete_without_aia: usize,
    /// Table 10: per server bucket.
    pub by_server: BTreeMap<&'static str, DefectCounts>,
    /// Table 11: per CA bucket.
    pub by_ca: BTreeMap<&'static str, DefectCounts>,
    /// Longest served list seen.
    pub longest_list: usize,
}

impl CorpusSummary {
    /// One pass over `corpus`, parallelized across available cores (the
    /// corpus is rank-independent by construction; partial summaries are
    /// merged). All workers share one sharded [`IssuanceChecker`], so each
    /// (issuer, subject) signature is verified at most once per pass.
    pub fn compute(corpus: &Corpus) -> CorpusSummary {
        let checker = IssuanceChecker::new();
        Self::compute_with_checker(corpus, &checker)
    }

    /// [`compute`](Self::compute) against a caller-supplied shared checker
    /// (lets binaries reuse one cache across multiple passes and then read
    /// [`IssuanceChecker::snapshot_stats`]). Worker count comes from
    /// [`threads_from_env`] (`CCC_THREADS` override, else detected cores).
    pub fn compute_with_checker(corpus: &Corpus, checker: &IssuanceChecker) -> CorpusSummary {
        Self::compute_with_threads(corpus, checker, threads_from_env())
    }

    /// [`compute`](Self::compute) with an explicit worker count (testing
    /// hook: the result must be identical for every `threads` value).
    ///
    /// Thin wrapper over the fused pipeline with a single
    /// [`CompliancePass`] registered — callers that also need the
    /// differential or lint summaries should register those passes in the
    /// same [`Pipeline::run`] instead of paying a second generation sweep.
    pub fn compute_with_threads(
        corpus: &Corpus,
        checker: &IssuanceChecker,
        threads: usize,
    ) -> CorpusSummary {
        let (pass, _stats) = Pipeline::new(threads).run(corpus, checker, CompliancePass::new());
        pass.into_summary()
    }

    /// Fold a worker partial into this summary. `total` is intentionally
    /// NOT accumulated here (the pipeline pass tracks it per-visit);
    /// callers outside the pipeline must handle it themselves.
    pub(crate) fn merge(&mut self, other: CorpusSummary) {
        for (k, v) in other.placement {
            *self.placement.entry(k).or_insert(0) += v;
        }
        self.dup_chains += other.dup_chains;
        self.dup_leaf_chains += other.dup_leaf_chains;
        self.dup_intermediate_chains += other.dup_intermediate_chains;
        self.dup_root_chains += other.dup_root_chains;
        self.irrelevant_chains += other.irrelevant_chains;
        self.multipath_chains += other.multipath_chains;
        self.reversed_chains += other.reversed_chains;
        self.all_paths_reversed_chains += other.all_paths_reversed_chains;
        self.order_noncompliant += other.order_noncompliant;
        for (k, v) in other.completeness {
            *self.completeness.entry(k).or_insert(0) += v;
        }
        self.aia_completable += other.aia_completable;
        self.missing_single_intermediate += other.missing_single_intermediate;
        for (k, v) in other.incomplete_reasons {
            *self.incomplete_reasons.entry(k).or_insert(0) += v;
        }
        self.root_via_aia += other.root_via_aia;
        self.noncompliant += other.noncompliant;
        for (k, v) in other.store_completeness {
            let e = self.store_completeness.entry(k).or_default();
            e.incomplete_with_aia += v.incomplete_with_aia;
            e.incomplete_without_aia += v.incomplete_without_aia;
        }
        self.unified_incomplete_with_aia += other.unified_incomplete_with_aia;
        self.unified_incomplete_without_aia += other.unified_incomplete_without_aia;
        for (k, v) in other.by_server {
            let e = self.by_server.entry(k).or_default();
            e.any += v.any;
            e.duplicates += v.duplicates;
            e.duplicate_leaf += v.duplicate_leaf;
            e.irrelevant += v.irrelevant;
            e.multipath += v.multipath;
            e.reversed += v.reversed;
            e.incomplete += v.incomplete;
            e.total += v.total;
        }
        for (k, v) in other.by_ca {
            let e = self.by_ca.entry(k).or_default();
            e.any += v.any;
            e.duplicates += v.duplicates;
            e.duplicate_leaf += v.duplicate_leaf;
            e.irrelevant += v.irrelevant;
            e.multipath += v.multipath;
            e.reversed += v.reversed;
            e.incomplete += v.incomplete;
            e.total += v.total;
        }
        self.longest_list = self.longest_list.max(other.longest_list);
    }

    /// Sequential pass over a rank range against a shared checker (thin
    /// wrapper over [`pipeline::run_range`] with a [`CompliancePass`]).
    pub fn compute_range(
        corpus: &Corpus,
        checker: &IssuanceChecker,
        start: usize,
        end: usize,
    ) -> CorpusSummary {
        pipeline::run_range(corpus, checker, start, end, CompliancePass::new()).into_summary()
    }
}

/// Differential pass (the §5.2 harness over non-compliant chains plus
/// whole-corpus availability counts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DifferentialSummary {
    /// Aggregate over the non-compliant subset.
    pub report: DifferentialReport,
    /// Chains in the whole corpus failing in ≥1 library.
    pub corpus_library_failures: usize,
    /// Chains in the whole corpus failing in ≥1 browser.
    pub corpus_browser_failures: usize,
    /// Whole corpus size.
    pub corpus_total: usize,
    /// Non-compliant chains whose discrepancy causes were attributed.
    pub cause_examples: BTreeMap<DiscrepancyCause, String>,
}

impl DifferentialSummary {
    /// Run the differential harness over the corpus (parallel over rank
    /// ranges, partials merged). Workers share one sharded
    /// [`IssuanceChecker`].
    pub fn compute(corpus: &Corpus) -> DifferentialSummary {
        let checker = IssuanceChecker::new();
        Self::compute_with_checker(corpus, &checker)
    }

    /// [`compute`](Self::compute) against a caller-supplied shared checker.
    /// Worker count comes from [`threads_from_env`] (`CCC_THREADS`
    /// override, else detected cores).
    pub fn compute_with_checker(
        corpus: &Corpus,
        checker: &IssuanceChecker,
    ) -> DifferentialSummary {
        Self::compute_with_threads(corpus, checker, threads_from_env())
    }

    /// [`compute`](Self::compute) with an explicit worker count.
    ///
    /// Thin wrapper over the fused pipeline with a single
    /// [`DifferentialPass`]; fuse with [`CompliancePass`]/[`LintPass`]
    /// via [`Pipeline::run`] when more than one summary is needed.
    pub fn compute_with_threads(
        corpus: &Corpus,
        checker: &IssuanceChecker,
        threads: usize,
    ) -> DifferentialSummary {
        let (pass, _stats) = Pipeline::new(threads).run(corpus, checker, DifferentialPass::new());
        pass.into_summary()
    }

    /// Fold a worker partial into this summary. `corpus_total` is
    /// intentionally NOT accumulated here (the pipeline pass tracks it
    /// per-visit).
    pub(crate) fn merge(&mut self, other: DifferentialSummary) {
        let r = &mut self.report;
        let o = other.report;
        r.total += o.total;
        r.all_browsers_pass += o.all_browsers_pass;
        r.all_libraries_pass += o.all_libraries_pass;
        r.browser_discrepancies += o.browser_discrepancies;
        r.library_discrepancies += o.library_discrepancies;
        r.library_failures += o.library_failures;
        r.browser_failures += o.browser_failures;
        for (k, v) in o.causes {
            *r.causes.entry(k).or_insert(0) += v;
        }
        for (k, v) in o.per_client_pass {
            *r.per_client_pass.entry(k).or_insert(0) += v;
        }
        self.corpus_library_failures += other.corpus_library_failures;
        self.corpus_browser_failures += other.corpus_browser_failures;
        for (k, v) in other.cause_examples {
            self.cause_examples.entry(k).or_insert(v);
        }
    }

    /// Sequential pass over a rank range against a shared checker (thin
    /// wrapper over [`pipeline::run_range`] with a [`DifferentialPass`]).
    pub fn compute_range(
        corpus: &Corpus,
        checker: &IssuanceChecker,
        start: usize,
        end: usize,
    ) -> DifferentialSummary {
        pipeline::run_range(corpus, checker, start, end, DifferentialPass::new()).into_summary()
    }
}

/// All eight client names in Table 9 order (for table headers).
pub fn client_names() -> Vec<&'static str> {
    ClientKind::ALL.iter().map(|k| k.name()).collect()
}

/// The server buckets in Table 10 column order.
pub fn server_columns() -> Vec<&'static str> {
    let mut seen = Vec::new();
    for kind in HttpServerKind::ALL {
        let label = kind.display_name();
        if !seen.contains(&label) {
            seen.push(label);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_over_small_corpus_is_consistent() {
        let corpus = scan_corpus(500);
        let s = CorpusSummary::compute(&corpus);
        assert_eq!(s.total, 500);
        let placed: usize = s.placement.values().sum();
        assert_eq!(placed, 500);
        let complete: usize = s.completeness.values().sum();
        assert_eq!(complete, 500);
        // Non-compliance is a small minority.
        assert!(s.noncompliant < 50, "{}", s.noncompliant);
        // Table 8 monotonicity: no store does better without AIA.
        for sc in s.store_completeness.values() {
            assert!(sc.incomplete_without_aia >= sc.incomplete_with_aia);
        }
        assert!(s.unified_incomplete_without_aia >= s.unified_incomplete_with_aia);
        // Per-store incompleteness is at least the unified baseline.
        for sc in s.store_completeness.values() {
            assert!(sc.incomplete_with_aia >= s.unified_incomplete_with_aia);
        }
    }

    #[test]
    fn threads_env_override_is_honored_and_result_invariant() {
        // Env mutation is confined to this single test (no other test in
        // the crate reads CCC_THREADS).
        std::env::set_var("CCC_THREADS", "3");
        assert_eq!(threads_from_env(), 3);
        std::env::set_var("CCC_THREADS", "0"); // 0 = unset semantics
        assert!(threads_from_env() >= 1);
        std::env::set_var("CCC_THREADS", "nope"); // unparsable = unset
        assert!(threads_from_env() >= 1);
        std::env::remove_var("CCC_THREADS");
        assert!(threads_from_env() >= 1);

        // The summary must be bit-identical across worker counts.
        let corpus = scan_corpus(600);
        let checker = IssuanceChecker::new();
        let one = CorpusSummary::compute_with_threads(&corpus, &checker, 1);
        let four = CorpusSummary::compute_with_threads(&corpus, &checker, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn differential_over_small_corpus() {
        let corpus = scan_corpus(400);
        let d = DifferentialSummary::compute(&corpus);
        assert_eq!(d.corpus_total, 400);
        assert!(d.corpus_library_failures >= d.report.library_failures);
        // Browsers fail no more often than libraries.
        assert!(d.corpus_browser_failures <= d.corpus_library_failures);
    }
}
