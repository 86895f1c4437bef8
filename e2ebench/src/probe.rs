//! Per-domain latency inside an untraced pipeline sweep.

use crate::stats::nanos;
use ccc_bench::{AnalysisPass, ObservationMemo, PassContext};
use ccc_testgen::DomainObservation;
use std::time::Instant;

/// An analysis pass that only timestamps its visits. Placed first in the
/// fused tuple, the gap between two of its visits on one worker is
/// everything the sweep spends on one domain: the other passes' visits of
/// the previous observation plus generating the next one. One clock read
/// per domain; it reports no leaf pass (`pass_count` 0), so the
/// pipeline's own counters match a run without it.
#[derive(Debug, Default)]
pub struct LatencyProbe {
    last: Option<Instant>,
    /// Per-domain gaps in nanoseconds, worker by worker in rank order.
    pub samples_ns: Vec<u64>,
}

impl<'c> AnalysisPass<'c> for LatencyProbe {
    fn name(&self) -> &'static str {
        "latency-probe"
    }

    fn begin(&self, _ctx: PassContext<'c>) -> Self {
        LatencyProbe::default()
    }

    fn visit(&mut self, _obs: &DomainObservation, _memo: &ObservationMemo) {
        let now = Instant::now();
        if let Some(prev) = self.last.replace(now) {
            self.samples_ns.push(nanos(now - prev));
        }
    }

    fn merge(&mut self, other: Self) {
        self.samples_ns.extend(other.samples_ns);
    }

    fn pass_count(&self) -> usize {
        0
    }
}
