//! Concurrency guarantees of the shared [`IssuanceChecker`]:
//!
//! 1. Parallel corpus passes are *bit-identical* to the sequential pass,
//!    whatever the worker count — sharing one signature cache across
//!    threads must never change results, only save work.
//! 2. Hammering one checker from many threads, outside any observation
//!    scope, performs each unique (issuer, subject) verification exactly
//!    once: a miss verifies while holding the map lock, so every other
//!    lookup of that pair is a hit. Its certificates are re-decoded, so
//!    each issuer key is interned under that lock, the one lock nesting
//!    in the program.
//! 3. A pipeline sweep opens one checker scope per observation, so the
//!    shared cache keeps only pairs of two CA certificates: it stays
//!    bounded by the CA population instead of growing with the corpus,
//!    and its counts do not depend on the worker count.

use ccc_bench::pipeline::run_range;
use ccc_bench::{scan_corpus, CompliancePass, DifferentialPass, LintPass, Pipeline};
use ccc_core::{CacheStats, IssuanceChecker};
use ccc_x509::{Certificate, CertificateFingerprint};
use std::collections::HashSet;
use std::sync::Barrier;

/// Thread counts exercised by the equivalence tests: degenerate (1),
/// odd/non-divisor (3), and more threads than this container has cores
/// (16).
const THREAD_COUNTS: [usize; 3] = [1, 3, 16];

#[test]
fn parallel_summary_is_bit_identical_to_sequential() {
    // 200 stays below the 256-domain parallelism threshold (all thread
    // counts take the sequential path); 272 is above it.
    for domains in [200usize, 272] {
        let corpus = scan_corpus(domains);
        let seq_checker = IssuanceChecker::new();
        let pass = run_range(&corpus, &seq_checker, 0, domains, CompliancePass::new());
        let reference = pass.into_summary();
        let seq_stats = seq_checker.snapshot_stats();
        assert_eq!(reference.total, domains);
        for threads in THREAD_COUNTS {
            let checker = IssuanceChecker::new();
            let (pass, _) = Pipeline::new(threads).run(&corpus, &checker, CompliancePass::new());
            let summary = pass.into_summary();
            assert_eq!(
                summary, reference,
                "parallel summary diverged (domains={domains}, threads={threads})"
            );
            // Counter invariants hold after workers are joined.
            let stats = checker.snapshot_stats();
            assert_eq!(stats.hits + stats.misses, stats.lookups);
            assert_eq!(stats.verifications, stats.misses);
            // Each CA pair is verified once per sweep and stays shared;
            // every other pair is verified once per observation that asks
            // for it and dropped with its scope. Both counts are the
            // sequential sweep's, whatever the worker count.
            assert_eq!(stats.verifications, seq_stats.verifications);
            assert_eq!(stats.entries, seq_stats.entries);
            assert!((stats.entries as u64) < stats.verifications);
        }
    }
}

#[test]
fn parallel_differential_is_bit_identical_to_sequential() {
    let domains = 272; // above the parallelism threshold
    let corpus = scan_corpus(domains);
    let seq_checker = IssuanceChecker::new();
    let pass = run_range(&corpus, &seq_checker, 0, domains, DifferentialPass::new());
    let reference = pass.into_summary();
    for threads in THREAD_COUNTS {
        let checker = IssuanceChecker::new();
        let (pass, _) = Pipeline::new(threads).run(&corpus, &checker, DifferentialPass::new());
        let summary = pass.into_summary();
        assert_eq!(summary, reference, "threads={threads}");
    }
}

#[test]
fn hammered_checker_verifies_each_unique_pair_exactly_once() {
    let corpus = scan_corpus(48);
    let observations = corpus.collect();
    // Every ordered (issuer?, subject?) pair within each served list,
    // queried repeatedly by every worker. The served certificates are
    // re-decoded, so no issuer's `PublicKey` holds its interned entry yet:
    // the worker that verifies a pair first interns the issuer key while
    // holding the checker's map lock.
    let mut pairs = Vec::new();
    for obs in &observations {
        let served: Vec<Certificate> = obs
            .served
            .iter()
            .map(|c| Certificate::from_der(c.to_der()).unwrap())
            .collect();
        for a in &served {
            for b in &served {
                pairs.push((a.clone(), b.clone()));
            }
        }
    }
    assert!(pairs.len() > 100, "corpus too small to exercise the cache");
    let unique: HashSet<(CertificateFingerprint, CertificateFingerprint)> = pairs
        .iter()
        .map(|(a, b)| (a.fingerprint(), b.fingerprint()))
        .collect();

    const WORKERS: usize = 8;
    let checker = IssuanceChecker::new();
    let barrier = Barrier::new(WORKERS);
    std::thread::scope(|scope| {
        for t in 0..WORKERS {
            let checker = &checker;
            let pairs = &pairs;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                // Stagger each worker's starting offset so different
                // threads collide on the same keys at the same time.
                for (a, b) in pairs.iter().cycle().skip(t * 7).take(pairs.len()) {
                    std::hint::black_box(checker.signature_verifies(a, b));
                }
            });
        }
    });

    let stats = checker.snapshot_stats();
    assert_eq!(stats.lookups, (pairs.len() * WORKERS) as u64);
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    // The core guarantee: zero duplicate verifications. The first miss
    // on a pair verifies it under the map lock; every later lookup of
    // that pair, on any worker, finds its verdict.
    assert_eq!(
        stats.verifications,
        unique.len() as u64,
        "duplicate signature verifications occurred"
    );
    assert_eq!(stats.entries, unique.len());
    assert_eq!(stats.verifications, stats.misses);
    assert_eq!(stats.saved(), stats.lookups - stats.verifications);
    assert!(stats.hit_rate() > 0.5, "hit rate {:.3}", stats.hit_rate());
}

#[test]
fn fused_sweep_shares_only_a_bounded_set_of_ca_pairs() {
    // Nearly every domain brings a leaf pair no later observation asks
    // for; kept in the shared cache, they would make it grow by about one
    // entry per domain.
    const DOMAINS: usize = 1_200;
    let corpus = scan_corpus(DOMAINS);
    let counts: Vec<CacheStats> = [1, 3]
        .into_iter()
        .map(|threads| {
            let checker = IssuanceChecker::new();
            let _ = Pipeline::new(threads).run(
                &corpus,
                &checker,
                (
                    CompliancePass::new(),
                    DifferentialPass::new(),
                    LintPass::new(),
                ),
            );
            let stats = checker.snapshot_stats();
            assert!(
                stats.entries < DOMAINS / 10,
                "{} shared entries after {DOMAINS} domains on {threads} worker(s)",
                stats.entries
            );
            stats
        })
        .collect();
    // Every counter, hits included: a miss verifies under the map lock,
    // so no lookup's outcome depends on how the workers interleave.
    assert_eq!(counts[0], counts[1], "cache stats at 1 and 3 workers");
}
