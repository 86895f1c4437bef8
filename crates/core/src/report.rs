//! Plain-text table rendering for experiment reports.
//!
//! The bench binaries print tables shaped like the paper's; this module
//! keeps the formatting in one place (column alignment, percentage
//! rendering) so every table looks consistent.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are free-form strings).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of string slices.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<w$}");
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Format `count` with a percentage of `total`: `1,234 (5.6%)`.
///
/// An empty bucket (`total == 0`, so necessarily `count == 0`) renders as
/// `0 (0.0%)` rather than propagating the `0/0` division into `NaN%` —
/// the lint histogram hits this whenever a rule never fired.
pub fn count_pct(count: usize, total: usize) -> String {
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * count as f64 / total as f64
    };
    format!("{} ({pct:.1}%)", group_thousands(count))
}

/// Thousands separators: 1234567 → "1,234,567".
pub fn group_thousands(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Check mark / cross rendering for capability tables.
pub fn check(b: bool) -> &'static str {
    if b {
        "Y"
    } else {
        "x"
    }
}

/// One-line rendering of an [`IssuanceChecker`](crate::IssuanceChecker)
/// [`CacheStats`](crate::topology::CacheStats) snapshot, e.g.:
///
/// ```text
/// signature cache: 1,024 lookups, 960 hits (93.8%), 64 verified, 960 verifications saved
/// ```
///
/// Used by the table/figure binaries and the CLI `matrix` command to show
/// how much work the shared sharded cache avoided.
pub fn render_cache_stats(stats: &crate::topology::CacheStats) -> String {
    let mut line = format!(
        "signature cache: {} lookups, {} hits ({:.1}%), {} verified, {} verifications saved",
        group_thousands(stats.lookups as usize),
        group_thousands(stats.hits as usize),
        100.0 * stats.hit_rate(),
        group_thousands(stats.verifications as usize),
        group_thousands(stats.saved() as usize),
    );
    if stats.coalesced_waits > 0 {
        let _ = write!(
            line,
            " ({} coalesced)",
            group_thousands(stats.coalesced_waits as usize)
        );
    }
    // Verification breakdown (per-key table vs plain pow_mont for y^(q−e)),
    // only when any verification ran during the window (keeps zero-activity
    // renders — and historical output — unchanged).
    if stats.fixed_base_hits > 0 || stats.cold_multiexps > 0 || stats.tables_built > 0 {
        let _ = write!(
            line,
            "; verify routes: {} table hits, {} cold multi-exps, {} tables built",
            group_thousands(stats.fixed_base_hits as usize),
            group_thousands(stats.cold_multiexps as usize),
            group_thousands(stats.tables_built as usize),
        );
    }
    line
}

/// Two-line rendering of a fused sweep's per-phase wall-time split, in
/// the same one-line-metric style as [`render_cache_stats`]:
///
/// ```text
/// pipeline: 1,000 observation(s) generated once, consumed by 3 pass(es)
/// phase split: generation 1.243s (62.1%) · analysis 0.758s (37.9%)
/// ```
///
/// `generation` is the time spent producing the inputs (corpus
/// observation synthesis, or chain parsing for the CLI), `analysis` the
/// time spent inside the registered passes; both are summed across
/// workers, so they are CPU time on parallel sweeps.
pub fn render_phase_split(
    generation: std::time::Duration,
    analysis: std::time::Duration,
    observations: usize,
    passes: usize,
) -> String {
    let total = (generation + analysis).as_secs_f64();
    let pct = |d: std::time::Duration| {
        if total <= f64::EPSILON {
            0.0
        } else {
            100.0 * d.as_secs_f64() / total
        }
    };
    format!(
        "pipeline: {} observation(s) generated once, consumed by {} pass(es)\n\
         phase split: generation {:.3}s ({:.1}%) · analysis {:.3}s ({:.1}%)",
        group_thousands(observations),
        passes,
        generation.as_secs_f64(),
        pct(generation),
        analysis.as_secs_f64(),
        pct(analysis),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_split_renders_percentages() {
        let text = render_phase_split(
            std::time::Duration::from_millis(750),
            std::time::Duration::from_millis(250),
            1234,
            3,
        );
        assert!(text.contains("1,234 observation(s)"), "{text}");
        assert!(text.contains("consumed by 3 pass(es)"), "{text}");
        assert!(text.contains("generation 0.750s (75.0%)"), "{text}");
        assert!(text.contains("analysis 0.250s (25.0%)"), "{text}");
    }

    #[test]
    fn phase_split_zero_duration_is_finite() {
        let text = render_phase_split(
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
            0,
            1,
        );
        assert!(text.contains("(0.0%)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(906336), "906,336");
        assert_eq!(group_thousands(1234567), "1,234,567");
    }

    #[test]
    fn count_pct_format() {
        assert_eq!(count_pct(838354, 906336), "838,354 (92.5%)");
        // 0/0 must render as a plain zero percentage, not NaN%.
        assert_eq!(count_pct(0, 0), "0 (0.0%)");
        assert_eq!(count_pct(5, 0), "5 (0.0%)");
    }

    #[test]
    fn table_rendering_aligns() {
        let mut t = TextTable::new("Demo", &["Type", "Count"]);
        t.row(&["Duplicate".to_string(), "5,974".to_string()]);
        t.row(&["Reversed".to_string(), "8,566".to_string()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("Type"));
        assert!(lines[3].starts_with("Duplicate"));
    }

    #[test]
    fn check_marks() {
        assert_eq!(check(true), "Y");
        assert_eq!(check(false), "x");
    }

    #[test]
    fn cache_stats_line() {
        let stats = crate::topology::CacheStats {
            lookups: 1024,
            hits: 960,
            misses: 64,
            verifications: 64,
            coalesced_waits: 0,
            entries: 64,
            ..Default::default()
        };
        let line = render_cache_stats(&stats);
        assert_eq!(
            line,
            "signature cache: 1,024 lookups, 960 hits (93.8%), 64 verified, \
             960 verifications saved"
        );
        let contended = crate::topology::CacheStats {
            coalesced_waits: 3,
            ..stats
        };
        assert!(render_cache_stats(&contended).ends_with("(3 coalesced)"));
    }

    #[test]
    fn cache_stats_line_with_verify_routes() {
        let stats = crate::topology::CacheStats {
            lookups: 100,
            hits: 40,
            misses: 60,
            verifications: 60,
            coalesced_waits: 0,
            fixed_base_hits: 52,
            cold_multiexps: 8,
            tables_built: 2,
            entries: 60,
        };
        let line = render_cache_stats(&stats);
        assert!(
            line.ends_with("verify routes: 52 table hits, 8 cold multi-exps, 2 tables built"),
            "{line}"
        );
    }
}
