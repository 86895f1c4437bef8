//! Process-wide observability: a metrics registry plus a span API.
//!
//! The paper's tables are aggregate measurements; a production-scale
//! reproduction additionally has to answer *where time and failures go* —
//! builder backtracking, AIA retries, verify routing — without re-running
//! a profiling binary. This crate is the substrate the other layers hang
//! that telemetry on:
//!
//! - [`MetricsRegistry`]: a process-global registry of named counters,
//!   gauges, and fixed log₂-bucket histograms. Every cell is a `ccc-mc`
//!   shim atomic, so when the ccc-crypto and ccc-core model tests turn on
//!   `ccc-mc/model-check` the model checker explores metric updates
//!   together with the cache state they instrument (and
//!   `ci/check_raw_sync.sh` enforces the shim use).
//! - [`span!`]: scope guards that record nested wall durations into
//!   histograms named after the `parent/child` span path.
//! - [`render_prometheus`] / [`render_json`]: two renderers over a
//!   [`Snapshot`] — Prometheus text exposition and the same compact
//!   no-serde JSON shape as `ccc-lint`'s `json` module (objects with
//!   ordered keys, no whitespace), so `json::parse` round-trips it.
//!
//! ## Naming scheme
//!
//! Series are `ccc_<subsystem>_<what>[_<unit>][_total]`, with optional
//! labels baked into the series name (`ccc_netsim_fetch_outcomes_total{class="dead"}`).
//! Counters end in `_total`; quantities carry their unit (`_ms`, `_us`).
//!
//! ## Stable vs. volatile
//!
//! Each metric is registered as **stable** (bit-identical for a fixed
//! workload regardless of worker count, wall clock, or scheduling — counts
//! of deterministic work, simulated-clock milliseconds) or **volatile**
//! (wall-time durations, thread gauges, schedule-dependent routing such as
//! fixed-base-table hit counts). [`Snapshot::stable_only`] filters to the
//! former; the determinism CI job and the golden snapshots compare only
//! stable series, while the full exposition always includes both (volatile
//! families are flagged with a `# VOLATILE` comment line).

pub mod registry;
pub mod render;
pub mod span;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSample, MetricKind, MetricSample, MetricsRegistry,
    SampleValue, Snapshot, HISTOGRAM_BUCKETS,
};
pub use render::{render_json, render_prometheus};
pub use span::SpanGuard;

/// Enter a named span: `let _guard = span!("cmd.matrix");`.
///
/// The guard records the wall duration of its scope into the volatile
/// histogram `ccc_span_wall_us{span="<path>"}` and bumps the stable
/// counter `ccc_span_calls_total{span="<path>"}`, where `<path>` is the
/// `/`-joined chain of spans open on this thread (guards must be dropped
/// in LIFO order, which scope-bound `let` bindings guarantee).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
