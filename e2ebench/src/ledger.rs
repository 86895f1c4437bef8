//! The traced run's per-layer ledger.
//!
//! A traced sweep replays a workload's per-domain sequence of public calls
//! on the same worker split as the untraced run, timing each call into the
//! layer it belongs to. Counts come from the issuance checker's stats and
//! from `ccc_obs` registry deltas read by series name; a series the
//! program no longer registers reads as absent (reported, never a
//! failure).

use crate::stats::{median, nanos, ratio};
use crate::Metric;
use ccc_obs::{SampleValue, Snapshot};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::{Duration, Instant};

/// A layer a traced call is charged to, named after the module it calls.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `Corpus::observation` (ccc-testgen).
    Testgen,
    /// `tlsmsg::decode_tls13` and the DER decode under it (ccc-x509).
    Decode,
    /// `IssuanceChecker` construction and `issues` over every ordered
    /// pair of distinct served certificates (ccc-core / ccc-crypto).
    Verify,
    /// `TopologyGraph::build` on the warm cache.
    Topology,
    /// The aggregate compliance report.
    ComplianceReport,
    /// `CompliancePass::visit`: the ten store analyzers and tallies.
    ComplianceTables,
    /// Path building: `DifferentialPass::visit` or `ChainEngine::process`,
    /// less the AIA fetches timed inside it.
    Builder,
    /// `AiaTransport::fetch_aia` on the fault-injecting transport.
    Fetch,
    /// Lint rules (`LintPass::visit` or `LintEngine::lint_prepared`).
    Lint,
    /// `render::render_jsonl`.
    Render,
}

const LAYERS: usize = 10;

/// Nanoseconds charged per layer.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    ns: [u64; LAYERS],
}

impl Ledger {
    /// Run `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Charge `d` to `layer`.
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.ns[layer as usize] += nanos(d);
    }

    fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.ns.iter_mut().zip(other.ns) {
            *mine += theirs;
        }
    }

    fn us(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 / 1e3
    }

    fn total_us(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e3
    }
}

/// Counts a traced sweep gathers besides time.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Certificates generated (served lists, duplicates included).
    pub certs: u64,
    /// Distinct certificates per served list, summed.
    pub unique_certs: u64,
    /// Captured chains that failed to decode or decoded to other
    /// certificates than were served.
    pub decode_failures: u64,
    /// Lint findings.
    pub findings: u64,
    /// Issuance-checker lookups.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Signature verifications executed.
    pub verifications: u64,
    /// Misses that waited on another thread's verification.
    pub coalesced_waits: u64,
    /// Largest number of memoized pairs one checker held.
    pub cache_entries: u64,
}

impl Counts {
    fn merge(&mut self, other: &Counts) {
        self.certs += other.certs;
        self.unique_certs += other.unique_certs;
        self.decode_failures += other.decode_failures;
        self.findings += other.findings;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.verifications += other.verifications;
        self.coalesced_waits += other.coalesced_waits;
        self.cache_entries = self.cache_entries.max(other.cache_entries);
    }

    /// Fold in one checker's final stats.
    pub fn absorb_checker(&mut self, checker: &ccc_core::IssuanceChecker) {
        let stats = checker.snapshot_stats();
        self.lookups += stats.lookups;
        self.hits += stats.hits;
        self.verifications += stats.verifications;
        self.coalesced_waits += stats.coalesced_waits;
        self.cache_entries = self.cache_entries.max(stats.entries as u64);
    }
}

/// What one worker of a traced sweep measured.
#[derive(Debug, Default)]
pub struct WorkerTrace {
    /// Time per layer.
    pub ledger: Ledger,
    /// Counts.
    pub counts: Counts,
    /// Wall time of the worker's rank loop.
    pub busy: Duration,
}

/// One traced sweep.
#[derive(Debug)]
pub struct Trace {
    /// Domains (chains) swept.
    pub domains: usize,
    /// Wall time of the whole sweep.
    pub wall: Duration,
    /// Every worker's ledger and counts, summed.
    pub worker: WorkerTrace,
    /// The slowest worker's rank loop.
    pub slowest: Duration,
    /// `ccc_obs` registry delta over the sweep.
    pub registry: Snapshot,
}

impl Trace {
    /// Assemble a sweep's trace from its workers (in rank order).
    pub fn new(
        domains: usize,
        wall: Duration,
        workers: &[WorkerTrace],
        registry: Snapshot,
    ) -> Trace {
        let mut total = WorkerTrace::default();
        for w in workers {
            total.ledger.merge(&w.ledger);
            total.counts.merge(&w.counts);
            total.busy += w.busy;
        }
        Trace {
            domains,
            wall,
            worker: total,
            slowest: workers.iter().map(|w| w.busy).max().unwrap_or_default(),
            registry,
        }
    }

    /// Time inside the sweep no layer timer covers: worker loop time
    /// outside the timed calls, plus the serial part of the sweep (fork,
    /// spawn, merge) outside the slowest worker. The faster worker's idle
    /// tail is not counted.
    pub fn unattributed_us(&self) -> f64 {
        let loops = self.worker.busy.as_secs_f64() * 1e6 - self.worker.ledger.total_us();
        let serial = self.wall.saturating_sub(self.slowest).as_secs_f64() * 1e6;
        (loops + serial).max(0.0)
    }

    /// The thread time the attribution check is measured against: every
    /// worker's loop plus the serial part of the sweep.
    pub fn attributable_us(&self) -> f64 {
        (self.worker.busy + self.wall.saturating_sub(self.slowest)).as_secs_f64() * 1e6
    }

    fn per_domain(&self, v: f64) -> f64 {
        ratio(v, self.domains as f64)
    }

    fn series(&self, name: &str, absent: &mut BTreeSet<String>) -> f64 {
        match self.registry.get(name).map(|m| &m.value) {
            Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => *v as f64,
            _ => {
                absent.insert(name.to_string());
                0.0
            }
        }
    }
}

/// Split `0..domains` the way `Pipeline::run` does: one worker below the
/// parallel threshold, else `threads` chunks of `div_ceil` size.
pub fn rank_chunks(domains: usize, threads: usize) -> Vec<Range<usize>> {
    if threads <= 1 || domains < ccc_bench::pipeline::PARALLEL_THRESHOLD {
        return std::iter::once(0..domains).collect();
    }
    let chunk = domains.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(domains)..((t + 1) * chunk).min(domains))
        .collect()
}

/// Run `work` once per item, each on its own scoped thread (a single item
/// runs on the calling thread), and return the results in item order.
pub fn on_workers<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    if items.len() == 1 {
        return items.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    })
}

/// Every certificate of `served` once, in first-appearance order (the
/// node set `TopologyGraph::build` uses).
pub fn unique_certs(served: &[ccc_x509::Certificate]) -> Vec<&ccc_x509::Certificate> {
    let mut unique: Vec<&ccc_x509::Certificate> = Vec::with_capacity(served.len());
    for cert in served {
        if !unique.iter().any(|u| u.fingerprint() == cert.fingerprint()) {
            unique.push(cert);
        }
    }
    unique
}

/// Query `issues` over every ordered pair of distinct certificates in
/// `unique` (exactly the pairs `TopologyGraph::build` queries), warming
/// the checker's cache.
pub fn warm_pairs(unique: &[&ccc_x509::Certificate], checker: &ccc_core::IssuanceChecker) {
    for (i, issuer) in unique.iter().enumerate() {
        for (j, subject) in unique.iter().enumerate() {
            if i != j {
                std::hint::black_box(checker.issues(issuer, subject));
            }
        }
    }
}

/// Untraced figures the ledger compares itself with.
#[derive(Clone, Copy, Debug)]
pub struct Untraced {
    /// Domains per second over the untraced sweeps, at reference host
    /// speed.
    pub domains_per_s: f64,
    /// Process CPU ÷ (wall × threads) over the untraced sweeps.
    pub busy_frac: f64,
    /// Untraced sweeps measured.
    pub sweeps: usize,
}

type Extract = fn(&Trace, &mut BTreeSet<String>) -> f64;

/// The per-layer metrics: name, unit, and how one traced sweep yields it.
/// Each is reported as the median over the run's traced sweeps.
const PER_SWEEP: &[(&str, &str, Extract)] = &[
    ("testgen.us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Testgen))
    }),
    ("testgen.certs_per_domain", "count", |t, _| {
        t.per_domain(t.worker.counts.certs as f64)
    }),
    ("x509.decode_us_per_chain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Decode))
    }),
    ("x509.decode_failures", "count", |t, _| {
        t.worker.counts.decode_failures as f64
    }),
    ("verify.us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Verify))
    }),
    ("verify.lookups_per_domain", "count", |t, _| {
        t.per_domain(t.worker.counts.lookups as f64)
    }),
    ("verify.verifications_per_domain", "count", |t, _| {
        t.per_domain(t.worker.counts.verifications as f64)
    }),
    ("verify.hit_rate", "ratio", |t, _| {
        ratio(t.worker.counts.hits as f64, t.worker.counts.lookups as f64)
    }),
    ("verify.coalesced_waits", "count", |t, _| {
        t.worker.counts.coalesced_waits as f64
    }),
    ("verify.cache_entries", "count", |t, _| {
        t.worker.counts.cache_entries as f64
    }),
    ("verify.cold_multiexps", "count", |t, a| {
        t.series("ccc_verify_cold_multiexps_total", a)
    }),
    ("verify.fixed_base_hits", "count", |t, a| {
        t.series("ccc_verify_fixed_base_hits_total", a)
    }),
    ("verify.tables_built", "count", |t, a| {
        t.series("ccc_verify_tables_built_total", a)
    }),
    ("topology.us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Topology))
    }),
    ("topology.unique_certs_per_domain", "count", |t, _| {
        t.per_domain(t.worker.counts.unique_certs as f64)
    }),
    ("compliance.report_us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::ComplianceReport))
    }),
    ("compliance.tables_us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::ComplianceTables))
    }),
    ("builder.us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Builder))
    }),
    ("builder.builds_per_domain", "count", |t, a| {
        t.per_domain(t.series("ccc_builder_builds_total", a))
    }),
    ("builder.candidates_per_build", "count", |t, a| {
        let builds = t.series("ccc_builder_builds_total", a);
        ratio(t.series("ccc_builder_candidates_total", a), builds)
    }),
    ("builder.backtracks_per_build", "count", |t, a| {
        let builds = t.series("ccc_builder_builds_total", a);
        ratio(t.series("ccc_builder_backtracks_total", a), builds)
    }),
    ("builder.accept_rate", "ratio", |t, a| {
        let builds = t.series("ccc_builder_builds_total", a);
        ratio(t.series("ccc_builder_accepted_total", a), builds)
    }),
    ("builder.aia_retries_per_domain", "count", |t, a| {
        t.per_domain(t.series("ccc_builder_aia_retries_total", a))
    }),
    ("builder.budget_exhausted", "count", |t, a| {
        t.series("ccc_builder_aia_budget_exhausted_total", a)
    }),
    ("netsim.fetch_us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Fetch))
    }),
    ("netsim.fetches_per_domain", "count", |t, a| {
        t.per_domain(t.series("ccc_netsim_fetch_attempts_total", a))
    }),
    ("netsim.success_rate", "ratio", |t, a| {
        let attempts = t.series("ccc_netsim_fetch_attempts_total", a);
        ratio(
            t.series("ccc_netsim_fetch_outcomes_total{class=\"success\"}", a),
            attempts,
        )
    }),
    ("netsim.sim_latency_ms_per_domain", "ms", |t, a| {
        t.per_domain(t.series("ccc_netsim_sim_latency_ms_total", a))
    }),
    ("lint.us_per_domain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Lint))
    }),
    ("lint.findings_per_domain", "count", |t, _| {
        t.per_domain(t.worker.counts.findings as f64)
    }),
    ("lint.render_us_per_chain", "us", |t, _| {
        t.per_domain(t.worker.ledger.us(Layer::Render))
    }),
    ("unattributed.us_per_domain", "us", |t, _| {
        t.per_domain(t.unattributed_us())
    }),
    ("unattributed.frac", "ratio", |t, _| {
        ratio(t.unattributed_us(), t.attributable_us())
    }),
];

/// The per-layer metrics of a traced run, plus the registry series that
/// were absent. Times are multiplied by `scale`, the traced sweeps'
/// factor to reference-host time (see `calib`).
pub fn per_layer(
    traces: &[Trace],
    scale: f64,
    untraced: Untraced,
) -> (Vec<Metric>, BTreeSet<String>) {
    let mut absent = BTreeSet::new();
    let mut metrics: Vec<Metric> = PER_SWEEP
        .iter()
        .map(|&(name, unit, extract)| {
            let values: Vec<f64> = traces
                .iter()
                .map(|t| {
                    let value = extract(t, &mut absent);
                    if unit == "us" {
                        value * scale
                    } else {
                        value
                    }
                })
                .collect();
            Metric {
                name,
                unit,
                value: median(&values),
                samples: values.len(),
            }
        })
        .collect();
    let traced_domains: usize = traces.iter().map(|t| t.domains).sum();
    let traced_wall: f64 = traces.iter().map(|t| t.wall.as_secs_f64()).sum();
    metrics.push(Metric {
        name: "pipeline.busy_frac",
        unit: "ratio",
        value: untraced.busy_frac,
        samples: untraced.sweeps,
    });
    metrics.push(Metric {
        name: "pipeline.trace_overhead",
        unit: "ratio",
        value: ratio(
            untraced.domains_per_s,
            ratio(traced_domains as f64, traced_wall * scale),
        ),
        samples: traces.len().min(untraced.sweeps),
    });
    (metrics, absent)
}
