//! Chaos-pass guarantees (ISSUE 6 acceptance criteria):
//!
//! 1. **Thread invariance** — the [`ChaosSummary`] for a given corpus
//!    seed + fault-plan seed is identical for worker counts {1, 3, 8}:
//!    every fetch outcome is a pure function of (plan seed, URI, attempt)
//!    and latency runs on per-build simulated clocks, never wall time.
//! 2. **Zero-fault identity** — the baseline (rate 0.0) scenario counts
//!    exactly what plain sequential [`ChainEngine::process`] runs over
//!    the untouched [`AiaRepository`] produce: no retries, no simulated
//!    latency, no budget exhaustion.
//! 3. **Per-build identity under faults** — `FaultPass` shares one build
//!    session across every (scenario × client) build of an observation;
//!    its cells still equal a fold over plain per-build
//!    [`ChainEngine::process`] calls at fault rates 0.1, 0.3 and 1.0.
//! 4. **Resilience split** — under heavy transient faults, retrying
//!    profiles (Chrome/Edge, 3 attempts) recover chains that the
//!    non-retrying CryptoAPI profile loses, and the recovery counter
//!    attributes them.

use ccc_bench::{scan_corpus, ChaosClientCell, ChaosSummary, FaultPass, FaultScenario, Pipeline};
use ccc_core::clients::{client_profiles, ClientKind};
use ccc_core::leaf::cert_covers_domain;
use ccc_core::{BuildContext, IssuanceChecker};
use ccc_netsim::FaultyTransport;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::Corpus;
use std::collections::BTreeMap;

/// Worker counts exercised: degenerate (1), odd/non-divisor (3), and more
/// workers than this container has cores (8).
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

fn chaos(corpus: &Corpus, scenarios: Vec<FaultScenario>, threads: usize) -> ChaosSummary {
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::new(threads).run(corpus, &checker, FaultPass::new(scenarios));
    assert_eq!(stats.observations, corpus.spec.domains);
    pass.into_summary()
}

#[test]
fn chaos_summary_is_thread_invariant() {
    // 300 domains: above the 256-domain threshold, so workers really run.
    let corpus = scan_corpus(300);
    let reference = chaos(
        &corpus,
        FaultScenario::standard_sweep(&corpus),
        THREAD_COUNTS[0],
    );
    assert_eq!(reference.total, 300);
    for &threads in &THREAD_COUNTS[1..] {
        let summary = chaos(&corpus, FaultScenario::standard_sweep(&corpus), threads);
        assert_eq!(summary, reference, "threads={threads} diverged");
    }
}

#[test]
fn zero_fault_scenario_matches_plain_sequential_builds() {
    let corpus = scan_corpus(120);
    let summary = chaos(&corpus, vec![FaultScenario::for_corpus(&corpus, 0.0)], 1);

    // Reference: hand-rolled sequential sweep over the plain repository.
    let checker = IssuanceChecker::new();
    let cache = corpus.intermediate_cache();
    let clients = client_profiles();
    let mut passes: BTreeMap<ClientKind, usize> = BTreeMap::new();
    let mut attempts: BTreeMap<ClientKind, usize> = BTreeMap::new();
    for rank in 0..corpus.spec.domains {
        let obs = corpus.observation(rank);
        let covers = obs
            .served
            .first()
            .map(|leaf| cert_covers_domain(leaf, &obs.domain))
            .unwrap_or(false);
        let ctx = BuildContext {
            store: corpus.programs.unified(),
            aia: Some(&corpus.aia),
            cache: &cache,
            now: scan_time(),
            checker: &checker,
        };
        for (kind, engine) in &clients {
            let outcome = engine.process(&obs.served, &ctx);
            if outcome.accepted() && covers {
                *passes.entry(*kind).or_default() += 1;
            }
            *attempts.entry(*kind).or_default() += outcome.stats.aia_attempts;
            // The zero-fault transport never reports Transient, so the
            // retry loop must never have engaged.
            assert_eq!(outcome.stats.aia_retries, 0);
            assert_eq!(outcome.stats.sim_latency_ms, 0);
            assert!(!outcome.stats.aia_budget_exhausted);
        }
    }

    let baseline = &summary.scenarios[0];
    assert_eq!(baseline.fault_rate, 0.0);
    for kind in ClientKind::ALL {
        let cell = baseline.per_client[&kind];
        assert_eq!(cell.passes, passes[&kind], "{}", kind.name());
        assert_eq!(cell.aia_attempts, attempts[&kind], "{}", kind.name());
        assert_eq!(cell.recovered, 0);
        assert_eq!(cell.aia_retries, 0);
        assert_eq!(cell.sim_latency_ms, 0);
        assert_eq!(cell.budget_exhausted, 0);
    }
}

/// The chaos cells a hand-rolled sweep folds from one plain
/// [`ChainEngine::process`] call per (observation, scenario, client), with
/// nothing shared between builds but the signature cache. One map per
/// scenario, plus the per-scenario transports for fetch accounting.
fn per_build_cells<'c>(
    corpus: &'c Corpus,
    scenarios: &[FaultScenario],
) -> (
    Vec<BTreeMap<ClientKind, ChaosClientCell>>,
    Vec<FaultyTransport<'c>>,
) {
    let checker = IssuanceChecker::new();
    let cache = corpus.intermediate_cache();
    let clients = client_profiles();
    let transports: Vec<FaultyTransport<'c>> = scenarios
        .iter()
        .map(|sc| FaultyTransport::new(&corpus.aia, sc.plan.clone()))
        .collect();
    let mut cells = vec![BTreeMap::<ClientKind, ChaosClientCell>::new(); scenarios.len()];
    for rank in 0..corpus.spec.domains {
        let obs = corpus.observation(rank);
        let covers = obs
            .served
            .first()
            .is_some_and(|leaf| cert_covers_domain(leaf, &obs.domain));
        for (row, transport) in cells.iter_mut().zip(&transports) {
            let ctx = BuildContext {
                store: corpus.programs.unified(),
                aia: Some(transport),
                cache: &cache,
                now: scan_time(),
                checker: &checker,
            };
            for (kind, engine) in &clients {
                let outcome = engine.process(&obs.served, &ctx);
                let stats = &outcome.stats;
                let cell = row.entry(*kind).or_default();
                if outcome.accepted() && covers {
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
        }
    }
    (cells, transports)
}

#[test]
fn faulty_scenarios_match_plain_per_build_processes() {
    let corpus = scan_corpus(300);
    let scenarios = FaultScenario::sweep(&corpus, &[0.1, 0.3, 1.0], None);
    let (expected, transports) = per_build_cells(&corpus, &scenarios);

    // Rate 1.0 must really exercise the retry loop and the permanent
    // failure classes, or the comparison below proves little.
    let heavy = &expected[2];
    assert!(heavy.values().map(|c| c.aia_retries).sum::<usize>() > 0);
    let costs = transports[2].costs();
    assert!(costs.transient_failures > 0, "{costs:?}");
    assert!(costs.dead_hits + costs.corrupt_hits > 0, "{costs:?}");

    for threads in [1, 3] {
        let summary = chaos(&corpus, scenarios.clone(), threads);
        assert_eq!(summary.total, 300);
        assert_eq!(summary.scenarios.len(), expected.len());
        for (scenario, cells) in summary.scenarios.iter().zip(&expected) {
            assert_eq!(
                &scenario.per_client, cells,
                "threads={threads} scenario {}",
                scenario.label
            );
        }
    }
}

#[test]
fn retrying_clients_recover_transient_chains() {
    let corpus = scan_corpus(400);
    let scenarios = FaultScenario::sweep(&corpus, &[0.0, 1.0], None);
    let summary = chaos(&corpus, scenarios, 2);

    let baseline = &summary.scenarios[0];
    let faulty = &summary.scenarios[1];
    let chrome = faulty.per_client[&ClientKind::Chrome];
    let cryptoapi = faulty.per_client[&ClientKind::CryptoApi];

    // Scenarios are independent: the baseline is untouched by the faulty
    // transport running in the same sweep.
    assert_eq!(baseline.per_client[&ClientKind::Chrome].aia_retries, 0);
    assert_eq!(baseline.per_client[&ClientKind::Chrome].sim_latency_ms, 0);

    // The I-4 split: Chrome's 3 attempts ride out every transient URI
    // (plans cap transient failures at 2), CryptoAPI's single shot loses
    // all of them. `recovered` attributes exactly those rescued chains.
    assert!(chrome.aia_retries > 0, "fault rate 1.0 must force retries");
    assert!(
        chrome.recovered > 0,
        "retries must rescue at least one chain"
    );
    assert!(
        chrome.passes > cryptoapi.passes,
        "retrying Chrome ({}) must beat non-retrying CryptoAPI ({})",
        chrome.passes,
        cryptoapi.passes
    );
    assert_eq!(cryptoapi.aia_retries, 0);
    assert_eq!(cryptoapi.recovered, 0);
    assert!(
        chrome.passes - cryptoapi.passes >= chrome.recovered.min(1),
        "the pass gap must cover the recovered chains"
    );
    // Latency only accrues where faults exist.
    assert!(chrome.sim_latency_ms > 0);

    // The rendered table carries the headline counters.
    let table = summary.render_table();
    assert!(table.contains("Chrome"), "{table}");
    assert!(table.contains("recovered"), "{table}");
    assert!(table.contains("fault 100%"), "{table}");
}
