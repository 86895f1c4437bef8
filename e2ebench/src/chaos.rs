//! `chaos`: every domain through every (fault scenario × client) pair —
//! one `Pipeline::run` with a `FaultPass` over the standard sweep (three
//! fault rates × eight clients = 24 builds per domain).

use crate::ledger::{on_workers, rank_chunks, Layer, Trace, WorkerTrace};
use crate::probe::LatencyProbe;
use crate::stats::nanos;
use crate::{Sweep, Workload};
use ccc_bench::{
    ChaosClientCell, ChaosScenarioSummary, ChaosSummary, FaultPass, FaultScenario, Pipeline,
};
use ccc_core::leaf::cert_covers_domain;
use ccc_core::{client_profiles, BuildContext, BuildOutcome, ClientKind, IssuanceChecker};
use ccc_netsim::{AiaTransport, FaultyTransport, FetchResponse};
use ccc_obs::MetricsRegistry;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::{Corpus, CorpusSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Corpus plus the fault scenarios of the standard sweep.
#[derive(Debug)]
pub struct ChaosState {
    corpus: Corpus,
    scenarios: Vec<FaultScenario>,
}

/// The `chaos` workload.
#[derive(Debug)]
pub struct Chaos;

const THREADS: usize = 2;

impl Workload for Chaos {
    const NAME: &'static str = "chaos";
    const THREADS: usize = THREADS;
    const DEFAULT_DOMAINS: usize = 4_000;
    const COUNTS_CHAINS: bool = false;
    type State = ChaosState;
    type Summary = ChaosSummary;

    fn setup(seed: u64, domains: usize) -> ChaosState {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, domains));
        let scenarios = FaultScenario::standard_sweep(&corpus);
        ChaosState { corpus, scenarios }
    }

    fn sweep(state: &ChaosState) -> Sweep<ChaosSummary> {
        let checker = IssuanceChecker::new();
        let ((probe, fault), _stats) = Pipeline::new(THREADS).run(
            &state.corpus,
            &checker,
            (
                LatencyProbe::default(),
                FaultPass::new(state.scenarios.clone()),
            ),
        );
        Sweep {
            summary: fault.into_summary(),
            latencies_ns: probe.samples_ns,
            failed_chains: 0,
        }
    }

    fn traced(state: &ChaosState) -> (Sweep<ChaosSummary>, Trace) {
        let corpus = &state.corpus;
        let checker = IssuanceChecker::new();
        let domains = corpus.spec.domains;
        let before = MetricsRegistry::global().snapshot();
        let start = Instant::now();
        let workers = on_workers(rank_chunks(domains, THREADS), |ranks| {
            let transports: Vec<TimedTransport<'_>> = state
                .scenarios
                .iter()
                .map(|sc| TimedTransport::new(FaultyTransport::new(&corpus.aia, sc.plan.clone())))
                .collect();
            let clients = client_profiles();
            let cache = corpus.intermediate_cache();
            let store = corpus.programs.unified();
            let mut summary = empty_summary(&state.scenarios);
            let mut w = WorkerTrace::default();
            let loop_start = Instant::now();
            for rank in ranks {
                let obs = w.ledger.time(Layer::Testgen, || corpus.observation(rank));
                w.counts.certs += obs.served.len() as u64;
                summary.total += 1;
                let covers = obs
                    .served
                    .first()
                    .is_some_and(|leaf| cert_covers_domain(leaf, &obs.domain));
                for (scenario, transport) in summary.scenarios.iter_mut().zip(&transports) {
                    let ctx = BuildContext {
                        store,
                        aia: Some(transport),
                        cache: &cache,
                        now: scan_time(),
                        checker: &checker,
                    };
                    for (kind, engine) in &clients {
                        let fetch_before = transport.fetch_time();
                        let build_start = Instant::now();
                        let outcome = engine.process(&obs.served, &ctx);
                        let build = build_start.elapsed();
                        let fetch = transport.fetch_time().saturating_sub(fetch_before);
                        w.ledger.add(Layer::Builder, build.saturating_sub(fetch));
                        w.ledger.add(Layer::Fetch, fetch);
                        absorb(cell(scenario, *kind), &outcome, covers);
                    }
                }
            }
            w.busy = loop_start.elapsed();
            (summary, w)
        });
        let mut summary = empty_summary(&state.scenarios);
        let mut traces = Vec::with_capacity(workers.len());
        for (part, w) in workers {
            summary.merge(part);
            traces.push(w);
        }
        let wall = start.elapsed();
        let registry = MetricsRegistry::global().snapshot().since(&before);
        let mut trace = Trace::new(domains, wall, &traces, registry);
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

    fn check(state: &ChaosState, s: &ChaosSummary) -> Vec<String> {
        let mut failures = Vec::new();
        if s.total != state.corpus.spec.domains || s.scenarios.len() != state.scenarios.len() {
            failures.push(format!(
                "chaos summary covers {} domains in {} scenarios, expected {} in {}",
                s.total,
                s.scenarios.len(),
                state.corpus.spec.domains,
                state.scenarios.len()
            ));
        }
        for scenario in &s.scenarios {
            for (kind, c) in &scenario.per_client {
                if c.passes > s.total || c.aia_fetches > c.aia_attempts || c.recovered > c.passes {
                    failures.push(format!(
                        "{} / {}: inconsistent cell {c:?}",
                        scenario.label,
                        kind.name()
                    ));
                }
            }
        }
        failures
    }

    fn counts(s: &ChaosSummary) -> Vec<(String, u64)> {
        let mut out = vec![("chaos.total".to_string(), s.total as u64)];
        for (i, scenario) in s.scenarios.iter().enumerate() {
            for (kind, c) in &scenario.per_client {
                let key = |field: &str| format!("chaos.s{i}.{}.{field}", kind.name());
                out.push((key("passes"), c.passes as u64));
                out.push((key("recovered"), c.recovered as u64));
                out.push((key("aia_attempts"), c.aia_attempts as u64));
                out.push((key("aia_retries"), c.aia_retries as u64));
                out.push((key("budget_exhausted"), c.budget_exhausted as u64));
                out.push((key("sim_latency_ms"), c.sim_latency_ms));
            }
        }
        out
    }
}

/// A zeroed summary shaped like the one `FaultPass` starts from.
fn empty_summary(scenarios: &[FaultScenario]) -> ChaosSummary {
    ChaosSummary {
        total: 0,
        scenarios: scenarios
            .iter()
            .map(|sc| ChaosScenarioSummary {
                label: sc.label.clone(),
                fault_rate: sc.fault_rate,
                per_client: ClientKind::ALL
                    .iter()
                    .map(|&k| (k, ChaosClientCell::default()))
                    .collect(),
            })
            .collect(),
    }
}

fn cell(scenario: &mut ChaosScenarioSummary, kind: ClientKind) -> &mut ChaosClientCell {
    scenario.per_client.entry(kind).or_default()
}

/// Fold one build into its cell with the chaos table's semantics: a pass
/// needs the client to accept and the leaf to cover the domain.
fn absorb(cell: &mut ChaosClientCell, outcome: &BuildOutcome, covers_domain: bool) {
    let stats = &outcome.stats;
    if outcome.accepted() && covers_domain {
        cell.passes += 1;
        if stats.aia_retries > 0 {
            cell.recovered += 1;
        }
    }
    cell.aia_attempts += stats.aia_attempts;
    cell.aia_fetches += stats.aia_fetches;
    cell.aia_retries += stats.aia_retries;
    if stats.aia_budget_exhausted {
        cell.budget_exhausted += 1;
    }
    cell.sim_latency_ms += stats.sim_latency_ms;
}

/// Times every `fetch_aia` on the wrapped transport. One per worker and
/// scenario, so the counter is uncontended.
#[derive(Debug)]
struct TimedTransport<'r> {
    inner: FaultyTransport<'r>,
    fetch_ns: AtomicU64,
}

impl<'r> TimedTransport<'r> {
    fn new(inner: FaultyTransport<'r>) -> TimedTransport<'r> {
        TimedTransport {
            inner,
            fetch_ns: AtomicU64::new(0),
        }
    }

    fn fetch_time(&self) -> Duration {
        // ordering: Relaxed — a statistic read by the thread that adds to it.
        Duration::from_nanos(self.fetch_ns.load(Ordering::Relaxed))
    }
}

impl AiaTransport for TimedTransport<'_> {
    fn fetch_aia(&self, uri: &str, attempt: u32) -> FetchResponse {
        let start = Instant::now();
        let response = self.inner.fetch_aia(uri, attempt);
        // ordering: Relaxed — a statistic; it publishes no other data.
        self.fetch_ns
            .fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        response
    }
}
