//! Criterion benchmark for the fused analysis pipeline: one
//! single-generation sweep fanning to three passes vs. three sequential
//! single-pass sweeps, each regenerating the corpus and verifying leaf
//! signatures from a cold cache.
//!
//! This is the microbenchmark counterpart of the committed
//! `BENCH_pipeline.json` snapshot (`perf_snapshot --pipeline`), at a
//! smaller corpus so `cargo bench --bench pipeline -- --test` stays
//! cheap in CI.

use ccc_bench::{CompliancePass, DifferentialPass, LintPass, Pipeline};
use ccc_core::IssuanceChecker;
use ccc_testgen::{Corpus, CorpusSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Small corpus: large enough that generation cost dominates per-pass
/// bookkeeping, small enough for bench smoke runs.
const DOMAINS: usize = 200;
const SEED: u64 = 833;

fn bench_fused_vs_sequential(c: &mut Criterion) {
    let corpus = Corpus::new(CorpusSpec::calibrated(SEED, DOMAINS));
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DOMAINS as u64));

    // Three single-pass sweeps, each with a fresh checker: every pass
    // pays full observation generation + leaf signature verification.
    group.bench_function("sequential_3_passes", |b| {
        b.iter(|| {
            let pipeline = Pipeline::from_env();
            let c1 = IssuanceChecker::new();
            std::hint::black_box(pipeline.run(&corpus, &c1, CompliancePass::new()));
            let c2 = IssuanceChecker::new();
            std::hint::black_box(pipeline.run(&corpus, &c2, DifferentialPass::new()));
            let c3 = IssuanceChecker::new();
            std::hint::black_box(pipeline.run(&corpus, &c3, LintPass::new()));
        })
    });

    // One fused sweep: observations generated once, one shared cache.
    group.bench_function("fused_3_passes", |b| {
        b.iter(|| {
            let checker = IssuanceChecker::new();
            let ((compliance, differential, lint), stats) = Pipeline::from_env().run(
                &corpus,
                &checker,
                (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
            );
            std::hint::black_box((
                compliance.into_summary(),
                differential.into_summary(),
                lint.into_summary(),
                stats,
            ))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_fused_vs_sequential
}
criterion_main!(benches);
