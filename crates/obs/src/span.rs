//! Scope-guard spans feeding the registry's histograms.
//!
//! A span names a phase (`"cmd.matrix"`, `"pipeline.run"`); entering one
//! pushes it onto a thread-local stack so nested spans record under their
//! full `parent/child` path. Two series per path:
//!
//! - `ccc_span_calls_total{span="<path>"}` — stable counter of entries;
//! - `ccc_span_wall_us{span="<path>"}` — volatile histogram of wall
//!   durations (microseconds).

use crate::registry::MetricsRegistry;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records on drop. Created via [`crate::span!`] or
/// [`SpanGuard::enter`]. Guards must close in LIFO order (scope-bound
/// `let` bindings guarantee this).
#[derive(Debug)]
pub struct SpanGuard {
    path: String,
    start: Instant,
}

impl SpanGuard {
    /// Enter a span named `name`, nesting under any span already open on
    /// this thread.
    pub fn enter(name: &'static str) -> SpanGuard {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        MetricsRegistry::global()
            .counter(
                &format!("ccc_span_calls_total{{span=\"{path}\"}}"),
                "Times each span path was entered.",
            )
            .inc();
        SpanGuard {
            path,
            start: Instant::now(),
        }
    }

    /// The full `parent/child` path this guard records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        MetricsRegistry::global()
            .histogram_volatile(
                &format!("ccc_span_wall_us{{span=\"{}\"}}", self.path),
                "Wall-clock span duration in microseconds (volatile).",
            )
            .observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_slash_paths() {
        {
            let outer = crate::span!("obs_test.outer");
            assert_eq!(outer.path(), "obs_test.outer");
            {
                let inner = crate::span!("obs_test.inner");
                assert_eq!(inner.path(), "obs_test.outer/obs_test.inner");
            }
        }
        let snap = MetricsRegistry::global().snapshot();
        assert_eq!(
            snap.counter("ccc_span_calls_total{span=\"obs_test.outer\"}"),
            1
        );
        assert_eq!(
            snap.counter("ccc_span_calls_total{span=\"obs_test.outer/obs_test.inner\"}"),
            1
        );
        // The wall histogram exists and is volatile.
        let wall = snap
            .get("ccc_span_wall_us{span=\"obs_test.outer\"}")
            .expect("wall histogram registered");
        assert!(!wall.stable);
    }
}
