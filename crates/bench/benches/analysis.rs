//! Criterion benchmarks for the server-side analyses: topology graphs,
//! order analysis, completeness, and corpus generation throughput.

use ccc_core::{analyze_order, CompletenessAnalyzer, IssuanceChecker, TopologyGraph};
use ccc_testgen::{Corpus, CorpusSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const ANALYSIS_CHAINS: usize = 64;

fn bench_analysis(c: &mut Criterion) {
    let corpus = Corpus::new(CorpusSpec::calibrated(55, ANALYSIS_CHAINS));
    // Generated once up front, so the timed loops measure analysis only.
    let observations = corpus.collect();
    let checker = IssuanceChecker::new();
    let analyzer =
        CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
    // Warm the signature cache so the benches measure analysis logic.
    for obs in &observations {
        let _ = analyzer.analyze(&obs.served);
    }

    let mut group = c.benchmark_group("analysis");
    group.throughput(Throughput::Elements(ANALYSIS_CHAINS as u64));
    group.bench_function("topology_build_64_chains", |b| {
        b.iter(|| {
            for obs in &observations {
                std::hint::black_box(TopologyGraph::build(&obs.served, &checker));
            }
        })
    });
    group.bench_function("order_analysis_64_chains", |b| {
        b.iter(|| {
            for obs in &observations {
                std::hint::black_box(analyze_order(&obs.served, &checker));
            }
        })
    });
    group.bench_function("completeness_64_chains", |b| {
        b.iter(|| {
            for obs in &observations {
                std::hint::black_box(analyzer.analyze(&obs.served));
            }
        })
    });
    group.finish();
}

/// Lock-contention comparison: every worker thread hammers ONE shared
/// checker over a warmed cache, so per-lookup lock overhead dominates.
/// `single_mutex` is `with_shards(1)` (the old design's locking); the
/// sharded default should beat it clearly on multi-core hosts.
fn bench_shared_cache_contention(c: &mut Criterion) {
    let corpus = Corpus::new(CorpusSpec::calibrated(57, 512));
    // Every worker thread reads the SAME observation slice concurrently;
    // O(corpus) is fine at 512 chains.
    let observations = corpus.collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);

    let mut group = c.benchmark_group("shared_cache");
    group.throughput(Throughput::Elements(observations.len() as u64));
    for (label, shards) in [("single_mutex", 1usize), ("sharded_64", 64)] {
        group.bench_with_input(
            BenchmarkId::new(format!("corpus_pass_{threads}t"), label),
            &shards,
            |b, &shards| {
                let checker = IssuanceChecker::with_shards(shards);
                // Warm the cache: measure lookup/lock cost, not Schnorr.
                for obs in &observations {
                    let _ = TopologyGraph::build(&obs.served, &checker);
                }
                b.iter(|| {
                    ccc_mc::scope(|scope| {
                        for t in 0..threads {
                            let checker = &checker;
                            let observations = &observations;
                            scope.spawn(move || {
                                for obs in observations.iter().skip(t).step_by(threads) {
                                    std::hint::black_box(TopologyGraph::build(
                                        &obs.served,
                                        checker,
                                    ));
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

fn bench_corpus_generation(c: &mut Criterion) {
    let corpus = Corpus::new(CorpusSpec::calibrated(56, 1_000_000));
    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.throughput(Throughput::Elements(32));
    group.bench_function("generate_32_observations", |b| {
        let mut rank = 0usize;
        b.iter(|| {
            for _ in 0..32 {
                std::hint::black_box(corpus.observation(rank % 1_000_000));
                rank += 1;
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_analysis, bench_shared_cache_contention, bench_corpus_generation
}
criterion_main!(benches);
