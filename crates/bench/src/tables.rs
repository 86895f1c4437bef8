//! The corpus tables of the paper's §4 and §5.2, rendered from one sweep.
//!
//! Tables 3, 5, 7, 8, 10 and 11 read one [`CorpusSummary`] and §5.2 one
//! [`DifferentialSummary`]; the `tables` binary fills both in a single
//! fused [`Pipeline::run`](crate::Pipeline::run) and prints the seven in
//! this order. Each function returns its table's stdout text, and every
//! "Paper" cell comes from [`crate::paper`].

use crate::{paper, CorpusSummary, DefectCounts, DifferentialSummary};
use ccc_core::report::{count_pct, group_thousands, TextTable};
use ccc_core::{Completeness, LeafPlacement};
use ccc_netsim::httpserver::HttpServerKind;
use ccc_rootstore::RootProgram;
use std::fmt::Write as _;

/// A table row: its label and the count it reads from a bucket.
type DefectRow = (&'static str, fn(&DefectCounts) -> usize);

/// Table 3: leaf certificate deployment.
pub fn table3(s: &CorpusSummary) -> String {
    let mut table = TextTable::new(
        "Table 3 — Leaf certificate deployment",
        &["Place/Match", "This run", "Paper (Tranco 1M)"],
    );
    for class in LeafPlacement::ALL {
        let count = s.placement.get(&class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper::placement(class).render(),
        ]);
    }
    format!("{}\n", table.render())
}

/// Table 5: chains with non-compliant issuance order, plus the §4.2
/// duplicate-role breakdown.
pub fn table5(s: &CorpusSummary) -> String {
    let mut table = TextTable::new(
        "Table 5 — Chains with non-compliant issuance order",
        &["Type", "This run (% of order-non-compliant)", "Paper"],
    );
    let rows = [
        (
            "Duplicate Certificates",
            s.dup_chains,
            paper::DUPLICATE_CHAINS,
        ),
        (
            "Irrelevant Certificates",
            s.irrelevant_chains,
            paper::IRRELEVANT_CHAINS,
        ),
        (
            "Multiple Paths",
            s.multipath_chains,
            paper::MULTIPATH_CHAINS,
        ),
        (
            "Reversed Sequences",
            s.reversed_chains,
            paper::REVERSED_CHAINS,
        ),
    ];
    for (label, count, figure) in rows {
        table.row(&[
            label.to_string(),
            count_pct(count, s.order_noncompliant),
            figure.render(),
        ]);
    }
    table.row(&[
        "Total".to_string(),
        group_thousands(s.order_noncompliant),
        group_thousands(paper::ORDER_NONCOMPLIANT),
    ]);

    let mut detail = TextTable::new(
        "Duplicate breakdown (§4.2)",
        &["Role", "Chains (this run)", "Paper"],
    );
    let roles = [
        ("Duplicated leaf", s.dup_leaf_chains, paper::DUPLICATED_LEAF),
        (
            "Duplicated intermediate",
            s.dup_intermediate_chains,
            paper::DUPLICATED_INTERMEDIATE,
        ),
        ("Duplicated root", s.dup_root_chains, paper::DUPLICATED_ROOT),
    ];
    for (role, count, published) in roles {
        detail.row(&[
            role.to_string(),
            group_thousands(count),
            group_thousands(published),
        ]);
    }
    let (all_reversed, reversed) = paper::ALL_PATHS_REVERSED;
    format!(
        "{}\n{}\nall-paths-reversed chains: {} (paper: {} of {})\n\
         longest served list: {} certificates (paper max: {})\n",
        table.render(),
        detail.render(),
        group_thousands(s.all_paths_reversed_chains),
        group_thousands(all_reversed),
        group_thousands(reversed),
        s.longest_list,
        paper::LONGEST_LIST,
    )
}

/// Table 7: completeness of certificate chains, plus the §4.3
/// AIA-recoverability breakdown.
pub fn table7(s: &CorpusSummary) -> String {
    let mut table = TextTable::new(
        "Table 7 — Completeness of certificate chain",
        &["Type", "This run", "Paper"],
    );
    for class in Completeness::ALL {
        let count = s.completeness.get(&class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper::completeness(class).render(),
        ]);
    }

    let incomplete = s
        .completeness
        .get(&Completeness::Incomplete)
        .copied()
        .unwrap_or(0);
    let mut aia = TextTable::new(
        "Incomplete-chain recoverability (§4.3)",
        &["Outcome", "This run", "Paper"],
    );
    aia.row(&[
        "completable via recursive AIA".to_string(),
        count_pct(s.aia_completable, incomplete),
        paper::AIA_COMPLETABLE.render(),
    ]);
    aia.row(&[
        "missing exactly one intermediate".to_string(),
        count_pct(s.missing_single_intermediate, incomplete),
        paper::MISSING_SINGLE_INTERMEDIATE.render(),
    ]);
    // Sorted by label, so the rows keep the order the goldens pin.
    let mut reasons: Vec<_> = s.incomplete_reasons.iter().collect();
    reasons.sort_by_key(|(reason, _)| reason.label());
    for (reason, count) in reasons {
        aia.row(&[
            reason.label().to_string(),
            group_thousands(*count),
            paper::incomplete_reason(*reason).render(),
        ]);
    }
    format!(
        "{}\n{}\nchains whose omitted root was located via AIA download rather than \
         store SKID match: {}\n",
        table.render(),
        aia.render(),
        group_thousands(s.root_via_aia)
    )
}

/// Table 8: additional incomplete chains per root store, with and
/// without AIA. "Additional" is relative to the unified-store + AIA
/// baseline, as in the paper.
pub fn table8(s: &CorpusSummary) -> String {
    let baseline = s.unified_incomplete_with_aia;
    let mut table = TextTable::new(
        "Table 8 — Additional incomplete chains per root store × AIA",
        &["Root Store", "Mozilla", "Chrome", "Microsoft", "Apple"],
    );
    let additional = |n: usize| group_thousands(n.saturating_sub(baseline));
    let mut with_aia = vec!["AIA Supported".to_string()];
    let mut without_aia = vec!["AIA Not Supported".to_string()];
    let mut paper_with_aia = Vec::new();
    let mut paper_without_aia = Vec::new();
    for program in RootProgram::ALL {
        let sc = s
            .store_completeness
            .get(&program)
            .cloned()
            .unwrap_or_default();
        with_aia.push(additional(sc.incomplete_with_aia));
        without_aia.push(additional(sc.incomplete_without_aia));
        let (published_with, published_without) = paper::additional_incomplete(program);
        paper_with_aia.push(group_thousands(published_with));
        paper_without_aia.push(group_thousands(published_without));
    }
    table.row(&with_aia);
    table.row(&without_aia);
    format!(
        "{}\n\
         paper (Tranco 1M):      AIA supported:     {}\n\
         paper (Tranco 1M):      AIA not supported: {}\n\
         baseline (unified store + AIA) incomplete here: {} of {}\n\
         scale note: paper counts are absolute over {} chains; compare \
         rates — the shape to check is (a) tiny per-store differences when \
         AIA is on, (b) a jump of roughly a quarter of all chains when AIA \
         is off (terminal intermediates whose AKID cannot be matched to a \
         store SKID).\n",
        table.render(),
        paper_with_aia.join(" | "),
        paper_without_aia.join(" | "),
        group_thousands(baseline),
        group_thousands(s.total),
        group_thousands(paper::CHAINS),
    )
}

/// The server buckets in Table 10 column order.
fn server_columns() -> Vec<&'static str> {
    let mut seen = Vec::new();
    for kind in HttpServerKind::ALL {
        let label = kind.display_name();
        if !seen.contains(&label) {
            seen.push(label);
        }
    }
    seen
}

/// Table 10: HTTP servers used by domains with non-compliant chains.
pub fn table10(s: &CorpusSummary) -> String {
    let columns = server_columns();
    let mut header = vec!["Non-compliant Type"];
    header.extend(columns.iter().copied());
    header.push("Total");
    let mut table = TextTable::new(
        "Table 10 — HTTP servers of domains with non-compliant chains",
        &header,
    );
    let rows: [DefectRow; 7] = [
        ("Overview (any)", |d| d.any),
        ("Duplicate Certificates", |d| d.duplicates),
        ("Duplicate Leaf", |d| d.duplicate_leaf),
        ("Irrelevant Certificates", |d| d.irrelevant),
        ("Multiple Paths", |d| d.multipath),
        ("Reversed Sequences", |d| d.reversed),
        ("Incomplete Chain", |d| d.incomplete),
    ];
    for (label, count) in rows {
        let counts: Vec<usize> = columns
            .iter()
            .map(|c| s.by_server.get(c).map(count).unwrap_or(0))
            .collect();
        let total: usize = counts.iter().sum();
        let mut row = vec![label.to_string()];
        row.extend(counts.iter().map(|&c| count_pct(c, total)));
        row.push(group_thousands(total));
        table.row(&row);
    }
    format!("{}\n{}\n", table.render(), paper::TABLE10_SHAPE)
}

/// Table 11's CA columns, in the paper's order.
const CA_ORDER: [&str; 9] = [
    "Let's Encrypt",
    "Digicert",
    "Sectigo Limited",
    "ZeroSSL",
    "GoGetSSL",
    "TAIWAN-CA",
    "cyber_Folks S.A.",
    "Trustico",
    "Other CAs",
];

/// Table 11: CAs and resellers of non-compliant chains.
pub fn table11(s: &CorpusSummary) -> String {
    let mut header = vec!["Type"];
    header.extend(CA_ORDER);
    let mut table = TextTable::new(
        "Table 11 — CAs / resellers of non-compliant chains (% of that CA's issuance)",
        &header,
    );
    let rows: [DefectRow; 6] = [
        ("Non-compliant", |d| d.any),
        ("Duplicate Certificates", |d| d.duplicates),
        ("Irrelevant Certificates", |d| d.irrelevant),
        ("Multiple Paths", |d| d.multipath),
        ("Reversed Sequences", |d| d.reversed),
        ("Incomplete Chain", |d| d.incomplete),
    ];
    for (label, count) in rows {
        let mut row = vec![label.to_string()];
        for ca in CA_ORDER {
            match s.by_ca.get(ca) {
                Some(d) => row.push(count_pct(count(d), d.total)),
                None => row.push("0".to_string()),
            }
        }
        table.row(&row);
    }
    let mut totals = vec!["Total issued".to_string()];
    for ca in CA_ORDER {
        totals.push(
            s.by_ca
                .get(ca)
                .map(|d| group_thousands(d.total))
                .unwrap_or_else(|| "0".to_string()),
        );
    }
    table.row(&totals);
    format!("{}\n{}\n", table.render(), paper::TABLE11_RATES)
}

/// §5.2: agreement across browsers and libraries over the non-compliant
/// chains, the I-1…I-4 discrepancy causes, and the corpus-wide
/// availability impact.
pub fn section52(d: &DifferentialSummary) -> String {
    let r = &d.report;
    let mut table = TextTable::new(
        "Section 5.2 — differential results over non-compliant chains",
        &["Metric", "This run", "Paper"],
    );
    let rows = [
        (
            "non-compliant chains tested",
            group_thousands(r.total),
            paper::NONCOMPLIANT_TESTED,
        ),
        (
            "passed all browsers",
            count_pct(r.all_browsers_pass, r.total),
            paper::ALL_BROWSERS_PASS,
        ),
        (
            "passed all 4 libraries",
            count_pct(r.all_libraries_pass, r.total),
            paper::ALL_LIBRARIES_PASS,
        ),
        (
            "browser discrepancies",
            count_pct(r.browser_discrepancies, r.total),
            paper::BROWSER_DISCREPANCIES,
        ),
        (
            "library discrepancies",
            count_pct(r.library_discrepancies, r.total),
            paper::LIBRARY_DISCREPANCIES,
        ),
    ];
    for (metric, measured, figure) in rows {
        table.row(&[metric.to_string(), measured, figure.render()]);
    }

    let mut causes = TextTable::new(
        "Discrepancy causes (I-1 … I-4)",
        &["Cause", "Chains (this run)", "Paper"],
    );
    for (cause, count) in &r.causes {
        causes.row(&[
            cause.label().to_string(),
            group_thousands(*count),
            paper::cause(*cause).render(),
        ]);
    }

    let mut per_client = TextTable::new(
        "Per-client acceptance over non-compliant chains",
        &["Client", "Accepted"],
    );
    for (kind, pass) in &r.per_client_pass {
        per_client.row(&[kind.name().to_string(), count_pct(*pass, r.total)]);
    }

    let mut out = format!(
        "{}\n{}\n{}\n",
        table.render(),
        causes.render(),
        per_client.render()
    );
    let _ = writeln!(
        out,
        "corpus-wide availability impact: {} of all chains fail in >=1 library \
         (paper: {} incl. hostname/expiry errors outside chain building); \
         {} fail in >=1 browser (paper: {}).",
        count_pct(d.corpus_library_failures, d.corpus_total),
        paper::LIBRARY_FAILURES,
        count_pct(d.corpus_browser_failures, d.corpus_total),
        paper::BROWSER_FAILURES,
    );
    if !d.cause_examples.is_empty() {
        out.push_str("\nexample chains per cause:\n");
        for (cause, domain) in &d.cause_examples {
            let _ = writeln!(out, "  {:<26} {domain}", cause.label());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_renders_an_empty_sweep() {
        let s = CorpusSummary::default();
        for table in [
            table3(&s),
            table5(&s),
            table7(&s),
            table8(&s),
            table10(&s),
            table11(&s),
        ] {
            assert!(table.starts_with("== Table "), "{table}");
        }
        assert!(section52(&DifferentialSummary::default()).starts_with("== Section 5.2 "));
    }
}
