//! `scan`: the paper's whole §4 + §5.2 + lint measurement, one fused
//! `Pipeline::run` with (compliance, differential, lint) passes and a
//! fresh issuance checker per sweep.

use crate::ledger::{on_workers, rank_chunks, unique_certs, warm_pairs, Layer, Trace, WorkerTrace};
use crate::probe::LatencyProbe;
use crate::{Sweep, Workload};
use ccc_bench::{
    AnalysisPass, CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass,
    ObservationMemo, PassContext, Pipeline,
};
use ccc_core::{CompletenessAnalyzer, IssuanceChecker};
use ccc_lint::LintSummary;
use ccc_obs::MetricsRegistry;
use ccc_testgen::{Corpus, CorpusSpec};
use std::time::Instant;

/// The three summaries a scan sweep produces.
#[derive(Debug, PartialEq)]
pub struct ScanSummary {
    compliance: CorpusSummary,
    differential: DifferentialSummary,
    lint: LintSummary,
}

/// The `scan` workload.
#[derive(Debug)]
pub struct Scan;

const THREADS: usize = 2;

impl Workload for Scan {
    const NAME: &'static str = "scan";
    const THREADS: usize = THREADS;
    const DEFAULT_DOMAINS: usize = 8_000;
    const COUNTS_CHAINS: bool = false;
    type State = Corpus;
    type Summary = ScanSummary;

    fn setup(seed: u64, domains: usize) -> Corpus {
        Corpus::new(CorpusSpec::calibrated(seed, domains))
    }

    fn sweep(corpus: &Corpus) -> Sweep<ScanSummary> {
        let checker = IssuanceChecker::new();
        let ((probe, compliance, differential, lint), _stats) = Pipeline::new(THREADS).run(
            corpus,
            &checker,
            (
                LatencyProbe::default(),
                CompliancePass::new(),
                DifferentialPass::new(),
                LintPass::new(),
            ),
        );
        Sweep {
            summary: ScanSummary {
                compliance: compliance.into_summary(),
                differential: differential.into_summary(),
                lint: lint.into_summary(),
            },
            latencies_ns: probe.samples_ns,
            failed_chains: 0,
        }
    }

    fn traced(corpus: &Corpus) -> (Sweep<ScanSummary>, Trace) {
        let checker = IssuanceChecker::new();
        let ctx = PassContext {
            corpus,
            checker: &checker,
        };
        let domains = corpus.spec.domains;
        let mut root = (
            CompliancePass::new(),
            DifferentialPass::new(),
            LintPass::new(),
        );
        let before = MetricsRegistry::global().snapshot();
        let start = Instant::now();
        let items: Vec<_> = rank_chunks(domains, THREADS)
            .into_iter()
            .map(|ranks| (ranks, root.begin(ctx)))
            .collect();
        let workers = on_workers(items, |(ranks, mut passes)| {
            let analyzer =
                CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
            let mut w = WorkerTrace::default();
            let loop_start = Instant::now();
            for rank in ranks {
                let obs = w.ledger.time(Layer::Testgen, || corpus.observation(rank));
                let unique = unique_certs(&obs.served);
                w.ledger
                    .time(Layer::Verify, || warm_pairs(&unique, &checker));
                w.counts.certs += obs.served.len() as u64;
                w.counts.unique_certs += unique.len() as u64;
                let memo = ObservationMemo::default();
                w.ledger.time(Layer::Topology, || {
                    memo.graph(&obs, &checker);
                });
                w.ledger.time(Layer::ComplianceReport, || {
                    memo.report(&obs, &checker, &analyzer);
                });
                w.ledger
                    .time(Layer::ComplianceTables, || passes.0.visit(&obs, &memo));
                w.ledger
                    .time(Layer::Builder, || passes.1.visit(&obs, &memo));
                w.ledger.time(Layer::Lint, || passes.2.visit(&obs, &memo));
            }
            w.busy = loop_start.elapsed();
            (passes, w)
        });
        let mut traces = Vec::with_capacity(workers.len());
        for (passes, w) in workers {
            root.merge(passes);
            traces.push(w);
        }
        root.finish(ctx);
        let wall = start.elapsed();
        let registry = MetricsRegistry::global().snapshot().since(&before);
        let (compliance, differential, lint) = root;
        let summary = ScanSummary {
            compliance: compliance.into_summary(),
            differential: differential.into_summary(),
            lint: lint.into_summary(),
        };
        let mut trace = Trace::new(domains, wall, &traces, registry);
        trace.worker.counts.findings = summary.lint.findings_total as u64;
        trace.worker.counts.absorb_checker(&checker);
        (
            Sweep {
                summary,
                latencies_ns: Vec::new(),
                failed_chains: 0,
            },
            trace,
        )
    }

    fn check(_corpus: &Corpus, s: &ScanSummary) -> Vec<String> {
        let mut failures = Vec::new();
        if !s.lint.is_consistent() {
            failures.push(format!(
                "lint summary inconsistent: {} violation(s)",
                s.lint.consistency_violations.len()
            ));
        }
        if s.lint.noncompliant_chains != s.compliance.noncompliant {
            failures.push(format!(
                "lint non-compliant {} != compliance non-compliant {}",
                s.lint.noncompliant_chains, s.compliance.noncompliant
            ));
        }
        failures
    }

    fn counts(s: &ScanSummary) -> Vec<(String, u64)> {
        let c = &s.compliance;
        let d = &s.differential;
        let l = &s.lint;
        [
            ("compliance.total", c.total),
            ("compliance.noncompliant", c.noncompliant),
            ("compliance.order_noncompliant", c.order_noncompliant),
            ("compliance.dup_chains", c.dup_chains),
            ("compliance.irrelevant_chains", c.irrelevant_chains),
            ("compliance.multipath_chains", c.multipath_chains),
            ("compliance.reversed_chains", c.reversed_chains),
            ("compliance.aia_completable", c.aia_completable),
            (
                "compliance.unified_incomplete_with_aia",
                c.unified_incomplete_with_aia,
            ),
            (
                "compliance.unified_incomplete_without_aia",
                c.unified_incomplete_without_aia,
            ),
            ("differential.corpus_total", d.corpus_total),
            (
                "differential.corpus_library_failures",
                d.corpus_library_failures,
            ),
            (
                "differential.corpus_browser_failures",
                d.corpus_browser_failures,
            ),
            ("differential.report.total", d.report.total),
            (
                "differential.report.library_discrepancies",
                d.report.library_discrepancies,
            ),
            (
                "differential.report.browser_discrepancies",
                d.report.browser_discrepancies,
            ),
            ("lint.total", l.total),
            ("lint.findings_total", l.findings_total),
            ("lint.noncompliant_chains", l.noncompliant_chains),
            ("lint.chains_with_error", l.chains_with_error),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as u64))
        .collect()
    }
}
