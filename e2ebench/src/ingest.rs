//! `ingest`: per-chain analysis of captured chains on one thread, the way
//! `chain-chaos lint <file>` handles one. Set-up encodes the served lists
//! of ranks `0..n` as TLS 1.3 Certificate messages; each timed chain is
//! decoded, linted against a fresh issuance checker and rendered as JSON
//! lines.

use crate::ledger::{unique_certs, warm_pairs, Layer, Trace, WorkerTrace};
use crate::stats::nanos;
use crate::{Sweep, Workload};
use ccc_bench::{LintPass, Pipeline};
use ccc_core::{analyze_compliance_with_graph, IssuanceChecker, TopologyGraph};
use ccc_lint::{render, LintEngine, LintSummary};
use ccc_netsim::tlsmsg;
use ccc_obs::MetricsRegistry;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::{Corpus, CorpusSpec};
use ccc_x509::{Certificate, CertificateFingerprint};
use std::hint::black_box;
use std::time::Instant;

/// One captured chain: what was served, as it arrives on the wire.
#[derive(Debug)]
struct Captured {
    domain: String,
    message: Vec<u8>,
    fingerprints: Vec<CertificateFingerprint>,
}

/// Corpus plus the encoded captures.
#[derive(Debug)]
pub struct IngestState {
    corpus: Corpus,
    chains: Vec<Captured>,
}

/// The `ingest` workload.
#[derive(Debug)]
pub struct Ingest;

impl Workload for Ingest {
    const NAME: &'static str = "ingest";
    const THREADS: usize = 1;
    const DEFAULT_DOMAINS: usize = 8_000;
    const COUNTS_CHAINS: bool = true;
    type State = IngestState;
    type Summary = LintSummary;

    fn setup(seed: u64, domains: usize) -> IngestState {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, domains));
        let chains = (0..domains)
            .map(|rank| {
                let obs = corpus.observation(rank);
                Captured {
                    message: tlsmsg::encode_tls13(&obs.served)
                        .expect("generated chains fit a TLS 1.3 Certificate message"),
                    fingerprints: obs.served.iter().map(Certificate::fingerprint).collect(),
                    domain: obs.domain,
                }
            })
            .collect();
        IngestState { corpus, chains }
    }

    fn sweep(state: &IngestState) -> Sweep<LintSummary> {
        let corpus = &state.corpus;
        let mut summary = LintSummary::default();
        let mut latencies_ns = Vec::with_capacity(state.chains.len());
        let mut failed_chains = 0;
        for chain in &state.chains {
            let start = Instant::now();
            let Ok(certs) = tlsmsg::decode_tls13(&chain.message) else {
                failed_chains += 1;
                continue;
            };
            let checker = IssuanceChecker::new();
            let engine = LintEngine::new(
                &checker,
                corpus.programs.unified(),
                Some(&corpus.aia),
                scan_time(),
            );
            let (report, findings) = engine.lint_chain_with_report(&chain.domain, &certs);
            black_box(render::render_jsonl(&findings));
            latencies_ns.push(nanos(start.elapsed()));
            if !same_certs(&certs, &chain.fingerprints) {
                failed_chains += 1;
            }
            summary.total += 1;
            summary.absorb_chain(&chain.domain, &report, findings);
        }
        Sweep {
            summary,
            latencies_ns,
            failed_chains,
        }
    }

    fn traced(state: &IngestState) -> (Sweep<LintSummary>, Trace) {
        let corpus = &state.corpus;
        let mut summary = LintSummary::default();
        let mut failed_chains = 0;
        let mut w = WorkerTrace::default();
        let before = MetricsRegistry::global().snapshot();
        let start = Instant::now();
        for chain in &state.chains {
            let Ok(certs) = w
                .ledger
                .time(Layer::Decode, || tlsmsg::decode_tls13(&chain.message))
            else {
                failed_chains += 1;
                w.counts.decode_failures += 1;
                continue;
            };
            let unique = unique_certs(&certs);
            let checker = w.ledger.time(Layer::Verify, || {
                let checker = IssuanceChecker::new();
                warm_pairs(&unique, &checker);
                checker
            });
            w.counts.unique_certs += unique.len() as u64;
            // `lint_chain_with_report`, split into the three public steps
            // it delegates to.
            let engine = w.ledger.time(Layer::Lint, || {
                LintEngine::new(
                    &checker,
                    corpus.programs.unified(),
                    Some(&corpus.aia),
                    scan_time(),
                )
            });
            let graph = w
                .ledger
                .time(Layer::Topology, || TopologyGraph::build(&certs, &checker));
            let report = w.ledger.time(Layer::ComplianceReport, || {
                analyze_compliance_with_graph(&chain.domain, &certs, &graph, engine.analyzer())
            });
            let findings = w.ledger.time(Layer::Lint, || {
                engine.lint_prepared(&chain.domain, &certs, &graph, &report)
            });
            w.ledger
                .time(Layer::Render, || black_box(render::render_jsonl(&findings)));
            if !same_certs(&certs, &chain.fingerprints) {
                failed_chains += 1;
                w.counts.decode_failures += 1;
            }
            w.counts.findings += findings.len() as u64;
            w.counts.absorb_checker(&checker);
            summary.total += 1;
            summary.absorb_chain(&chain.domain, &report, findings);
        }
        w.busy = start.elapsed();
        let wall = start.elapsed();
        let registry = MetricsRegistry::global().snapshot().since(&before);
        let trace = Trace::new(state.chains.len(), wall, &[w], registry);
        (
            Sweep {
                summary,
                latencies_ns: Vec::new(),
                failed_chains,
            },
            trace,
        )
    }

    fn check(state: &IngestState, s: &LintSummary) -> Vec<String> {
        let mut failures = Vec::new();
        let checker = IssuanceChecker::new();
        let (pass, _stats) = Pipeline::new(2).run(&state.corpus, &checker, LintPass::new());
        if pass.summary != *s {
            failures.push(format!(
                "ingest lint summary ({} findings over {} chains) differs from the pipeline \
                 LintPass summary ({} findings over {} chains)",
                s.findings_total, s.total, pass.summary.findings_total, pass.summary.total
            ));
        }
        if !s.is_consistent() {
            failures.push(format!(
                "lint summary inconsistent: {} violation(s)",
                s.consistency_violations.len()
            ));
        }
        failures
    }

    fn counts(s: &LintSummary) -> Vec<(String, u64)> {
        [
            ("lint.total", s.total),
            ("lint.findings_total", s.findings_total),
            ("lint.noncompliant_chains", s.noncompliant_chains),
            ("lint.chains_with_error", s.chains_with_error),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as u64))
        .collect()
    }
}

fn same_certs(certs: &[Certificate], fingerprints: &[CertificateFingerprint]) -> bool {
    certs.len() == fingerprints.len()
        && certs
            .iter()
            .zip(fingerprints)
            .all(|(c, f)| c.fingerprint() == *f)
}
