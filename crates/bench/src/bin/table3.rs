//! Regenerates paper Table 3: leaf certificate deployment classes.
//!
//! `cargo run --release --bin table3 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, CompliancePass, Pipeline};
use ccc_core::report::{count_pct, TextTable};
use ccc_core::IssuanceChecker;
use ccc_core::LeafPlacement;

fn main() -> Result<(), String> {
    let domains = domains_from_env()?;
    eprintln!("scanning {domains} synthetic domains…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, CompliancePass::new());
    let s = pass.into_summary();

    let paper: &[(&str, &str)] = &[
        ("Correctly Placed and Matched", "838,354 (92.5%)"),
        ("Correctly Placed but Mismatched", "62,536 (6.9%)"),
        ("Incorrectly Placed but Matched", "0 (~0%)"),
        ("Incorrectly Placed and Mismatched", "1 (~0%)"),
        ("Other", "5,445 (0.6%)"),
    ];

    let mut table = TextTable::new(
        "Table 3 — Leaf certificate deployment",
        &["Place/Match", "This run", "Paper (Tranco 1M)"],
    );
    for (class, paper_cell) in [
        LeafPlacement::CorrectlyPlacedMatched,
        LeafPlacement::CorrectlyPlacedMismatched,
        LeafPlacement::IncorrectlyPlacedMatched,
        LeafPlacement::IncorrectlyPlacedMismatched,
        LeafPlacement::Other,
    ]
    .iter()
    .zip(paper)
    {
        let count = s.placement.get(class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper_cell.1.to_string(),
        ]);
    }
    println!("{}", table.render());
    eprintln!("{}", stats.render());
    Ok(())
}
