//! Metrics-exposition snapshot over a seeded corpus sweep.
//!
//! Runs the fused (compliance, lint) pipeline over the scan corpus, then
//! a small fault-injection sweep, and dumps the resulting `ccc-obs`
//! registry — Prometheus text by default, the no-serde JSON object
//! format when the output path ends in `.json`.
//!
//! ```text
//! metrics_snapshot [path]             dump to path (default: stdout)
//! ```
//!
//! `CCC_DOMAINS` scales the corpus (default 1000); `CCC_THREADS` picks
//! the worker count. Stable-classified series are byte-identical across
//! worker counts for a fixed corpus — that invariant is pinned by
//! `crates/bench/tests/metrics_snapshot.rs` and the CI
//! `metrics-determinism` job; this binary is the interactive/profiling
//! entry point for the same dump.

use ccc_bench::{
    scan_corpus, touch_pipeline_metrics, CompliancePass, FaultPass, FaultScenario, LintPass,
    Pipeline,
};
use ccc_core::IssuanceChecker;

fn main() {
    let out = std::env::args().nth(1);
    // Unlike the table binaries, argv[1] is the output *path*; the corpus
    // size comes from `CCC_DOMAINS` alone (snapshot-sized default).
    let domains: usize = std::env::var("CCC_DOMAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);
    eprintln!("metrics snapshot: sweeping {domains} synthetic domains…");
    let corpus = scan_corpus(domains);

    let checker = IssuanceChecker::new();
    let (_passes, stats) = Pipeline::from_env().run(
        &corpus,
        &checker,
        (CompliancePass::new(), LintPass::new()),
    );
    eprintln!("{}", stats.render());

    // A one-scenario fault sweep so the netsim fetch and AIA-retry
    // families carry non-zero counts in the dump.
    let chaos_checker = IssuanceChecker::new();
    let scenario = FaultScenario::for_corpus(&corpus, 0.1);
    let (_fault, chaos_stats) =
        Pipeline::from_env().run(&corpus, &chaos_checker, FaultPass::new(vec![scenario]));
    eprintln!("{}", chaos_stats.render());

    // Register the families this run may not have exercised so the dump
    // always enumerates the full schema.
    touch_pipeline_metrics();
    ccc_core::builder::touch_build_metrics();
    ccc_netsim::touch_fetch_metrics();
    let _ = ccc_crypto::verify_stats();

    let snapshot = ccc_obs::MetricsRegistry::global().snapshot();
    let rendered = match out.as_deref() {
        Some(path) if path.ends_with(".json") => ccc_obs::render_json(&snapshot),
        _ => ccc_obs::render_prometheus(&snapshot),
    };
    match out.as_deref() {
        None | Some("-") => print!("{rendered}"),
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}
