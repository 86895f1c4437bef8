//! The metric cells and the process-global registry that owns them.
//!
//! Handles are `&'static` references to leaked cells: registration happens
//! once per series (typically behind a `OnceLock` in the instrumented
//! crate) and the hot path touches only a relaxed shim atomic — no lock,
//! no lookup. The registry lock guards only registration and snapshots.

use ccc_mc::{AtomicU64, Mutex, OnceLock, Ordering};
use std::collections::BTreeMap;
use std::fmt;

/// Number of histogram buckets: upper bounds `2^0 .. 2^30` plus `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
///
/// All updates are `Relaxed`: series are cumulative totals read by
/// whole-registry snapshots, never used for cross-thread synchronization
/// (the same contract as the cache counters in `ccc-core`).
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cell: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — cumulative tally, snapshot-read only.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — see `add`.
        self.cell.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter").field("value", &self.get()).finish()
    }
}

/// A last-write-wins instantaneous value.
pub struct Gauge {
    cell: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            cell: AtomicU64::new(0),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        // ordering: Relaxed — last-write-wins display value.
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — see `set`.
        self.cell.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge").field("value", &self.get()).finish()
    }
}

/// A fixed log₂-bucket histogram: bucket `i < 31` counts observations
/// `v ≤ 2^i`; the last bucket is `+Inf`. Fixed buckets keep `observe` a
/// handful of relaxed adds and make snapshots mergeable/diffable without
/// any bucket negotiation.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            // ceil(log2(v)) — the smallest i with v ≤ 2^i.
            let ceil = 64 - (v - 1).leading_zeros() as usize;
            ceil.min(HISTOGRAM_BUCKETS - 1)
        };
        // ordering: Relaxed on all three cells — cumulative tallies,
        // snapshot-read only; a snapshot racing an observe may see the
        // bucket without the count (or vice versa), which `since` deltas
        // absorb by saturating.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn sample(&self) -> HistogramSample {
        HistogramSample {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

/// What kind of metric a series is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic total.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log₂-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Handle {
    fn kind(self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Entry {
    help: &'static str,
    stable: bool,
    handle: Handle,
}

/// A registry of named metric series.
///
/// [`MetricsRegistry::global`] is the process-wide instance every
/// instrumented crate registers into; fresh registries exist for tests.
/// Registration is idempotent: re-registering a name returns the existing
/// cell (and panics if the kind differs — a programming error, not a
/// runtime condition).
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Register (or look up) a stable counter.
    pub fn counter(&self, name: &str, help: &'static str) -> &'static Counter {
        self.counter_with(name, help, true)
    }

    /// Register (or look up) a volatile counter (wall-time or
    /// schedule-dependent totals).
    pub fn counter_volatile(&self, name: &str, help: &'static str) -> &'static Counter {
        self.counter_with(name, help, false)
    }

    fn counter_with(&self, name: &str, help: &'static str, stable: bool) -> &'static Counter {
        match self.register(name, help, stable, || {
            Handle::Counter(Box::leak(Box::new(Counter::new())))
        }) {
            Handle::Counter(c) => c,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Register (or look up) a stable gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> &'static Gauge {
        self.gauge_with(name, help, true)
    }

    /// Register (or look up) a volatile gauge (e.g. worker counts).
    pub fn gauge_volatile(&self, name: &str, help: &'static str) -> &'static Gauge {
        self.gauge_with(name, help, false)
    }

    fn gauge_with(&self, name: &str, help: &'static str, stable: bool) -> &'static Gauge {
        match self.register(name, help, stable, || {
            Handle::Gauge(Box::leak(Box::new(Gauge::new())))
        }) {
            Handle::Gauge(g) => g,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Register (or look up) a stable histogram (simulated-clock
    /// durations, per-build work distributions).
    pub fn histogram(&self, name: &str, help: &'static str) -> &'static Histogram {
        self.histogram_with(name, help, true)
    }

    /// Register (or look up) a volatile histogram (wall-time durations).
    pub fn histogram_volatile(&self, name: &str, help: &'static str) -> &'static Histogram {
        self.histogram_with(name, help, false)
    }

    fn histogram_with(&self, name: &str, help: &'static str, stable: bool) -> &'static Histogram {
        match self.register(name, help, stable, || {
            Handle::Histogram(Box::leak(Box::new(Histogram::new())))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &'static str,
        stable: bool,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(entry) = inner.get(name) {
            return entry.handle;
        }
        let handle = make();
        inner.insert(
            name.to_string(),
            Entry {
                help,
                stable,
                handle,
            },
        );
        handle
    }

    /// A point-in-time copy of every registered series, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        Snapshot {
            entries: inner
                .iter()
                .map(|(name, entry)| MetricSample {
                    name: name.clone(),
                    help: entry.help,
                    kind: entry.handle.kind(),
                    stable: entry.stable,
                    value: match entry.handle {
                        Handle::Counter(c) => SampleValue::Counter(c.get()),
                        Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                        Handle::Histogram(h) => SampleValue::Histogram(h.sample()),
                    },
                })
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("series", &len)
            .finish()
    }
}

/// Point-in-time histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Per-bucket (non-cumulative) observation counts, index-aligned with
    /// the fixed log₂ bounds.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// One series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Full series name, labels included.
    pub name: String,
    /// Help text.
    pub help: &'static str,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// Deterministic for a fixed workload (see crate docs).
    pub stable: bool,
    /// The sampled value.
    pub value: SampleValue,
}

/// The value part of a [`MetricSample`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSample),
}

/// A sorted point-in-time copy of a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples sorted by series name.
    pub entries: Vec<MetricSample>,
}

impl Snapshot {
    /// Look up a series by full name.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// Counter value by name (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name).map(|m| &m.value) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Only the series registered as stable (deterministic for a fixed
    /// workload) — what golden snapshots and the determinism CI job
    /// compare.
    pub fn stable_only(&self) -> Snapshot {
        Snapshot {
            entries: self.entries.iter().filter(|m| m.stable).cloned().collect(),
        }
    }

    /// Delta since an earlier snapshot.
    ///
    /// All subtraction saturates: diffing against a *fresher* baseline
    /// (snapshots taken out of order, or a series reset between them)
    /// clamps to zero instead of wrapping — the same contract as
    /// `CacheStats::since` / `VerifyStats::since`. Gauges keep the
    /// later value (a delta of an instantaneous reading is meaningless);
    /// series absent from `earlier` are passed through whole.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|m| {
                    let mut out = m.clone();
                    if let Some(prev) = earlier.get(&m.name) {
                        out.value = match (&m.value, &prev.value) {
                            (SampleValue::Counter(now), SampleValue::Counter(then)) => {
                                SampleValue::Counter(now.saturating_sub(*then))
                            }
                            (SampleValue::Histogram(now), SampleValue::Histogram(then)) => {
                                SampleValue::Histogram(HistogramSample {
                                    buckets: now
                                        .buckets
                                        .iter()
                                        .zip(then.buckets.iter())
                                        .map(|(n, t)| n.saturating_sub(*t))
                                        .collect(),
                                    count: now.count.saturating_sub(then.count),
                                    sum: now.sum.saturating_sub(then.sum),
                                })
                            }
                            // Gauges (and kind mismatches, which cannot
                            // happen within one registry) keep the later
                            // reading.
                            _ => m.value.clone(),
                        };
                    }
                    out
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t_total", "help");
        let b = reg.counter("t_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", "help");
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let Some(MetricSample {
            value: SampleValue::Histogram(s),
            ..
        }) = snap.get("h")
        else {
            panic!("histogram sample missing");
        };
        assert_eq!(s.buckets[0], 2); // 0, 1 ≤ 2^0
        assert_eq!(s.buckets[1], 1); // 2 ≤ 2^1
        assert_eq!(s.buckets[2], 2); // 3, 4 ≤ 2^2
        assert_eq!(s.buckets[10], 1); // 1024 ≤ 2^10
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1); // +Inf
        assert_eq!(s.count, 7);
    }

    /// The satellite-3 ordering case: an older snapshot diffed against a
    /// fresher baseline must clamp to zero, not wrap.
    #[test]
    fn since_saturates_when_baseline_is_fresher() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "help");
        let h = reg.histogram("h_ms", "help");
        c.add(5);
        h.observe(100);
        let older = reg.snapshot();
        c.add(5);
        h.observe(100);
        let fresher = reg.snapshot();
        let delta = older.since(&fresher);
        assert_eq!(delta.counter("c_total"), 0);
        let Some(MetricSample {
            value: SampleValue::Histogram(s),
            ..
        }) = delta.get("h_ms")
        else {
            panic!("histogram sample missing");
        };
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert!(s.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn stable_only_filters_volatile_series() {
        let reg = MetricsRegistry::new();
        reg.counter("keep_total", "help").inc();
        reg.counter_volatile("drop_total", "help").inc();
        reg.gauge_volatile("drop_gauge", "help").set(8);
        let stable = reg.snapshot().stable_only();
        assert_eq!(stable.entries.len(), 1);
        assert_eq!(stable.entries[0].name, "keep_total");
    }
}
