//! Golden + determinism snapshot for the `ccc-obs` metrics layer.
//!
//! One test, alone in this file on purpose: integration tests share one
//! process per file, and the metrics registry is process-global — a
//! sibling test would pollute the deltas. The workload is the seeded
//! scan corpus, so the *stable* series (builder, netsim, pipeline
//! totals, span call counts, simulated-clock milliseconds) are exact
//! across machines and worker counts; volatile series (wall durations,
//! cache/verification splits) are excluded via `Snapshot::stable_only`.
//!
//! To regenerate after an intentional metric change:
//!
//! ```text
//! CCC_BLESS=1 cargo test -p ccc-bench --test metrics_snapshot
//! ```

use ccc_bench::{
    scan_corpus, touch_pipeline_metrics, CompliancePass, FaultPass, FaultScenario, LintPass,
    Pipeline,
};
use ccc_core::IssuanceChecker;
use ccc_obs::{render_json, render_prometheus, MetricsRegistry, Snapshot};
use std::path::PathBuf;

/// Above `PARALLEL_THRESHOLD` (256) so the 8-worker run actually forks.
const DOMAINS: usize = 300;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("CCC_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has parent"))
            .expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with CCC_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name} drifted from its golden; re-bless with CCC_BLESS=1 if intentional"
    );
}

/// One fixed workload: a fused (compliance, lint) sweep plus a
/// one-scenario 10% fault sweep over the same seeded corpus.
fn run_workload(threads: usize) -> Snapshot {
    let baseline = MetricsRegistry::global().snapshot();
    let corpus = scan_corpus(DOMAINS);
    let checker = IssuanceChecker::new();
    let _ = Pipeline::new(threads).run(
        &corpus,
        &checker,
        (CompliancePass::new(), LintPass::new()),
    );
    let chaos_checker = IssuanceChecker::new();
    let scenario = FaultScenario::for_corpus(&corpus, 0.1);
    let _ = Pipeline::new(threads).run(&corpus, &chaos_checker, FaultPass::new(vec![scenario]));
    MetricsRegistry::global().snapshot().since(&baseline)
}

#[test]
fn stable_metrics_are_golden_and_thread_invariant() {
    // Register every family first so the snapshot schema is complete
    // regardless of which paths the workload takes.
    touch_pipeline_metrics();
    ccc_core::builder::touch_build_metrics();
    ccc_netsim::touch_fetch_metrics();
    let _ = ccc_crypto::verify_stats();

    let delta_1 = run_workload(1).stable_only();
    let prom_1 = render_prometheus(&delta_1);
    let json_1 = render_json(&delta_1);

    // CCC_THREADS determinism: the stable series of an identical workload
    // on 8 workers must be byte-identical to the single-worker run.
    let delta_8 = run_workload(8).stable_only();
    assert_eq!(
        prom_1,
        render_prometheus(&delta_8),
        "stable Prometheus series differ between 1 and 8 workers"
    );
    assert_eq!(
        json_1,
        render_json(&delta_8),
        "stable JSON series differ between 1 and 8 workers"
    );

    // The JSON render must parse with the in-tree no-serde parser.
    let parsed = ccc_lint::json::parse(&json_1).expect("metrics JSON parses");
    assert!(
        parsed.get("ccc_builder_builds_total").is_some(),
        "builder family missing from JSON dump"
    );

    // Sanity: the workload actually moved the core families.
    assert!(
        delta_1.counter("ccc_builder_builds_total") > 0,
        "no builds recorded"
    );
    assert!(
        delta_1.counter("ccc_netsim_fetch_attempts_total") > 0,
        "no fault-injected fetches recorded"
    );
    assert_eq!(
        delta_1.counter("ccc_pipeline_runs_total"),
        2,
        "expected exactly two pipeline sweeps"
    );

    check_golden("metrics_stable.prom", &prom_1);
    check_golden("metrics_stable.json", &json_1);
}
