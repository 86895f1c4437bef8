//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every corpus-backed `table*`/`section52` binary runs one
//! [`Pipeline::run`] over a calibrated corpus with the pass it needs
//! ([`CompliancePass`] for [`CorpusSummary`], [`DifferentialPass`] for
//! [`DifferentialSummary`]) and prints its slice of the accumulated
//! statistics next to the paper's published values, so "shape"
//! comparisons are one `cargo run` away.
//!
//! [`Pipeline::run`] is the only driver that sweeps a corpus into
//! summaries: observations are generated exactly once per sweep and
//! fanned to every registered [`AnalysisPass`], so running the
//! structural, differential, and lint analyses together costs one
//! generation pass, not three (see DESIGN.md §12 and the
//! `pipeline/1k` case of `perf_snapshot`).
//!
//! Scale control: binaries default to 100,000 domains; set `CCC_DOMAINS`
//! (or pass the count as the first CLI argument) to change it. A count
//! that is not a non-negative integer is an error ([`parse_domains`]),
//! never a silent fall-back to the default. The paper's
//! absolute counts are for 906,336 chains; percentages are the comparable
//! quantity.
//!
//! Thread control: [`Pipeline::from_env`] takes its worker count from
//! [`threads_from_env`], the one reader of `CCC_THREADS`. It defaults to
//! `available_parallelism` (capped at 16); set `CCC_THREADS` to pin it —
//! e.g. `CCC_THREADS=1` for a deterministic single-threaded profile run,
//! or a higher value on wide machines. Results are bit-identical for
//! every thread count (partial summaries merge associatively).
//!
//! Signature verification has no knobs: every miss in the shared
//! signature cache runs one `PublicKey::verify` (see DESIGN.md §14).

use ccc_core::{Completeness, DifferentialReport, DiscrepancyCause, LeafPlacement};
use ccc_netsim::httpserver::HttpServerKind;
use ccc_rootstore::RootProgram;
use ccc_testgen::{Corpus, CorpusSpec};
use std::collections::BTreeMap;

pub mod pipeline;

pub use pipeline::{
    touch_all_metrics, AnalysisPass, ChaosClientCell, ChaosScenarioSummary, ChaosSummary,
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

/// Parse a corpus size given on the command line or in `CCC_DOMAINS`:
/// a non-negative integer, or an error naming the value.
pub fn parse_domains(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("bad domain count '{value}' (expected a non-negative integer)"))
}

/// Resolve the corpus size: CLI arg > `CCC_DOMAINS` env > default. A
/// value [`parse_domains`] rejects is an error, not a fall-back to the
/// default.
pub fn domains_from_env() -> Result<usize, String> {
    match std::env::args().nth(1) {
        Some(arg) => parse_domains(&arg),
        None => match std::env::var("CCC_DOMAINS") {
            Ok(v) => parse_domains(&v),
            Err(_) => Ok(DEFAULT_DOMAINS),
        },
    }
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

impl StoreCompleteness {
    /// Fold another tally into this one.
    pub(crate) fn merge(&mut self, other: StoreCompleteness) {
        self.incomplete_with_aia += other.incomplete_with_aia;
        self.incomplete_without_aia += other.incomplete_without_aia;
    }
}

impl DefectCounts {
    /// Fold another bucket into this one.
    pub(crate) fn merge(&mut self, other: DefectCounts) {
        self.any += other.any;
        self.duplicates += other.duplicates;
        self.duplicate_leaf += other.duplicate_leaf;
        self.irrelevant += other.irrelevant;
        self.multipath += other.multipath;
        self.reversed += other.reversed;
        self.incomplete += other.incomplete;
        self.total += other.total;
    }
}

impl CorpusSummary {
    /// Fold a worker partial (the summary of a later rank range) into
    /// this summary, `total` included.
    pub(crate) fn merge(&mut self, other: CorpusSummary) {
        self.total += other.total;
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
            self.store_completeness.entry(k).or_default().merge(v);
        }
        self.unified_incomplete_with_aia += other.unified_incomplete_with_aia;
        self.unified_incomplete_without_aia += other.unified_incomplete_without_aia;
        for (k, v) in other.by_server {
            self.by_server.entry(k).or_default().merge(v);
        }
        for (k, v) in other.by_ca {
            self.by_ca.entry(k).or_default().merge(v);
        }
        self.longest_list = self.longest_list.max(other.longest_list);
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
    /// Fold a worker partial (the summary of a later rank range) into
    /// this summary, `corpus_total` included. First cause examples win,
    /// so partials must arrive in rank order.
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
        self.corpus_total += other.corpus_total;
        for (k, v) in other.cause_examples {
            self.cause_examples.entry(k).or_insert(v);
        }
    }
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
    use ccc_core::IssuanceChecker;

    fn compliance(corpus: &Corpus, threads: usize) -> CorpusSummary {
        let checker = IssuanceChecker::new();
        let (pass, _stats) = Pipeline::new(threads).run(corpus, &checker, CompliancePass::new());
        pass.into_summary()
    }

    #[test]
    fn parse_domains_accepts_only_non_negative_integers() {
        assert_eq!(parse_domains("0"), Ok(0));
        assert_eq!(parse_domains("1000"), Ok(1000));
        for bad in ["10k", "-5", ""] {
            let err = parse_domains(bad).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    #[test]
    fn summary_over_small_corpus_is_consistent() {
        let corpus = scan_corpus(500);
        let s = compliance(&corpus, 2);
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
        assert_eq!(Pipeline::from_env().threads(), 3);
        std::env::set_var("CCC_THREADS", "0"); // 0 = unset semantics
        assert!(threads_from_env() >= 1);
        std::env::set_var("CCC_THREADS", "nope"); // unparsable = unset
        assert!(threads_from_env() >= 1);
        std::env::remove_var("CCC_THREADS");
        assert!(threads_from_env() >= 1);

        // The summary must be bit-identical across worker counts.
        let corpus = scan_corpus(600);
        assert_eq!(compliance(&corpus, 1), compliance(&corpus, 4));
    }

    #[test]
    fn differential_over_small_corpus() {
        let corpus = scan_corpus(400);
        let checker = IssuanceChecker::new();
        let (pass, _stats) = Pipeline::new(2).run(&corpus, &checker, DifferentialPass::new());
        let d = pass.into_summary();
        assert_eq!(d.corpus_total, 400);
        assert!(d.corpus_library_failures >= d.report.library_failures);
        // Browsers fail no more often than libraries.
        assert!(d.corpus_browser_failures <= d.corpus_library_failures);
    }
}
