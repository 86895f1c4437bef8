//! Snapshot renderers: Prometheus text exposition and compact JSON.

use crate::registry::{SampleValue, Snapshot, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Split a full series name into its family (base) name and the inner
/// label list: `a_total{class="dead"}` → `("a_total", Some("class=\"dead\""))`.
fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Join an optional existing label list with one extra `k="v"` pair.
fn with_label(labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(inner) => format!("{{{inner},{extra}}}"),
        None => format!("{{{extra}}}"),
    }
}

/// The upper bound of histogram bucket `i` as a Prometheus `le` value.
fn bucket_bound(i: usize) -> String {
    if i == HISTOGRAM_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        (1u64 << i).to_string()
    }
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// `# HELP` / `# TYPE` headers are emitted once per family (series with
/// the same base name are adjacent thanks to the snapshot's sort order);
/// volatile families additionally carry a `# VOLATILE <family>` comment
/// line, which exposition parsers ignore and the determinism tooling keys
/// on. Histograms expand into cumulative `_bucket{le=...}` series plus
/// `_sum` / `_count`, per the format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for m in &snap.entries {
        let (family, labels) = split_name(&m.name);
        if family != last_family {
            let _ = writeln!(out, "# HELP {family} {}", m.help);
            let _ = writeln!(out, "# TYPE {family} {}", m.kind.as_str());
            if !m.stable {
                let _ = writeln!(out, "# VOLATILE {family}");
            }
            last_family = family.to_string();
        }
        match &m.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                let _ = writeln!(out, "{} {v}", m.name);
            }
            SampleValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, bucket) in h.buckets.iter().enumerate() {
                    cumulative = cumulative.saturating_add(*bucket);
                    let le = format!("le=\"{}\"", bucket_bound(i));
                    let _ = writeln!(
                        out,
                        "{family}_bucket{} {cumulative}",
                        with_label(labels, &le)
                    );
                }
                let suffix = labels.map(|l| format!("{{{l}}}")).unwrap_or_default();
                let _ = writeln!(out, "{family}_sum{suffix} {}", h.sum);
                let _ = writeln!(out, "{family}_count{suffix} {}", h.count);
            }
        }
    }
    out
}

/// JSON string escaping, byte-compatible with `ccc-lint`'s `json::escape`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a snapshot as one compact JSON object keyed by series name, in
/// the same no-serde shape `ccc-lint`'s `json` module emits (ordered
/// keys, no whitespace) — `json::parse` round-trips the output.
///
/// Per series: `{"kind":...,"stable":...,"help":...,` then `"value"` for
/// counters/gauges or `"count"`/`"sum"`/`"buckets"` (non-cumulative,
/// index-aligned with the fixed log₂ bounds) for histograms.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    for (i, m) in snap.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"kind\":\"{}\",\"stable\":{},\"help\":\"{}\",",
            escape(&m.name),
            m.kind.as_str(),
            m.stable,
            escape(m.help)
        );
        match &m.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                let _ = write!(out, "\"value\":{v}}}");
            }
            SampleValue::Histogram(h) => {
                let _ = write!(out, "\"count\":{},\"sum\":{},\"buckets\":[", h.count, h.sum);
                for (j, bucket) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{bucket}");
                }
                out.push_str("]}");
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("ccc_demo_builds_total", "Builds processed.")
            .add(3);
        reg.counter_volatile("ccc_demo_wall_us_total", "Wall microseconds (volatile).")
            .add(1234);
        reg.counter(
            "ccc_demo_outcomes_total{class=\"dead\"}",
            "Outcomes by class.",
        )
        .add(2);
        reg.counter(
            "ccc_demo_outcomes_total{class=\"ok\"}",
            "Outcomes by class.",
        )
        .add(7);
        reg.histogram("ccc_demo_latency_ms", "Per-build simulated latency.")
            .observe(5);
        reg
    }

    #[test]
    fn prometheus_families_labels_and_histograms() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE ccc_demo_builds_total counter"));
        assert!(text.contains("ccc_demo_builds_total 3"));
        // One header per family even with several labeled series.
        assert_eq!(
            text.matches("# TYPE ccc_demo_outcomes_total counter")
                .count(),
            1
        );
        assert!(text.contains("ccc_demo_outcomes_total{class=\"dead\"} 2"));
        assert!(text.contains("ccc_demo_outcomes_total{class=\"ok\"} 7"));
        // Histogram expansion: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("# TYPE ccc_demo_latency_ms histogram"));
        assert!(text.contains("ccc_demo_latency_ms_bucket{le=\"4\"} 0"));
        assert!(text.contains("ccc_demo_latency_ms_bucket{le=\"8\"} 1"));
        assert!(text.contains("ccc_demo_latency_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ccc_demo_latency_ms_sum 5"));
        assert!(text.contains("ccc_demo_latency_ms_count 1"));
        // Volatile families are flagged; stable ones are not.
        assert!(text.contains("# VOLATILE ccc_demo_wall_us_total"));
        assert!(!text.contains("# VOLATILE ccc_demo_builds_total"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            value.parse::<u64>().expect("sample values are integers");
        }
    }

    #[test]
    fn json_is_compact_and_ordered() {
        let json = render_json(&sample_registry().snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains(": "), "compact form has no whitespace");
        assert!(json.contains("\"ccc_demo_builds_total\":{\"kind\":\"counter\",\"stable\":true,"));
        assert!(json.contains("\"stable\":false"));
        assert!(json.contains("\"buckets\":[0,0,0,1,0"));
        // Keys appear in snapshot (sorted) order.
        let builds = json.find("ccc_demo_builds_total").expect("builds key");
        let wall = json.find("ccc_demo_wall_us_total").expect("wall key");
        assert!(builds < wall);
    }
}
