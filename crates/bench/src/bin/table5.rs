//! Regenerates paper Table 5: chains with non-compliant issuance order,
//! plus the §4.2 duplicate-role breakdown.
//!
//! `cargo run --release --bin table5 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, CompliancePass, Pipeline};
use ccc_core::report::{count_pct, group_thousands, TextTable};
use ccc_core::IssuanceChecker;

fn main() -> Result<(), String> {
    let domains = domains_from_env()?;
    eprintln!("scanning {domains} synthetic domains…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, CompliancePass::new());
    let s = pass.into_summary();

    let mut table = TextTable::new(
        "Table 5 — Chains with non-compliant issuance order",
        &["Type", "This run (% of order-non-compliant)", "Paper"],
    );
    let rows = [
        ("Duplicate Certificates", s.dup_chains, "5,974 (35.2%)"),
        ("Irrelevant Certificates", s.irrelevant_chains, "3,032 (17.9%)"),
        ("Multiple Paths", s.multipath_chains, "246 (1.5%)"),
        ("Reversed Sequences", s.reversed_chains, "8,566 (50.5%)"),
    ];
    for (label, count, paper) in rows {
        table.row(&[
            label.to_string(),
            count_pct(count, s.order_noncompliant),
            paper.to_string(),
        ]);
    }
    table.row(&[
        "Total".to_string(),
        group_thousands(s.order_noncompliant),
        "16,952".to_string(),
    ]);
    println!("{}", table.render());

    let mut detail = TextTable::new(
        "Duplicate breakdown (§4.2)",
        &["Role", "Chains (this run)", "Paper"],
    );
    detail.row(&[
        "Duplicated leaf".to_string(),
        group_thousands(s.dup_leaf_chains),
        "4,730".to_string(),
    ]);
    detail.row(&[
        "Duplicated intermediate".to_string(),
        group_thousands(s.dup_intermediate_chains),
        "1,354".to_string(),
    ]);
    detail.row(&[
        "Duplicated root".to_string(),
        group_thousands(s.dup_root_chains),
        "401".to_string(),
    ]);
    println!("{}", detail.render());
    println!(
        "all-paths-reversed chains: {} (paper: 8,370 of 8,566)\nlongest served list: {} certificates (paper max: 29)",
        group_thousands(s.all_paths_reversed_chains),
        s.longest_list
    );
    eprintln!("{}", stats.render());
    Ok(())
}
