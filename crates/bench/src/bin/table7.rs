//! Regenerates paper Table 7: completeness of certificate chains, plus the
//! §4.3 AIA-recoverability breakdown.
//!
//! `cargo run --release --bin table7 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, CompliancePass, Pipeline};
use ccc_core::report::{count_pct, group_thousands, TextTable};
use ccc_core::Completeness;
use ccc_core::IssuanceChecker;

fn main() -> Result<(), String> {
    let domains = domains_from_env()?;
    eprintln!("scanning {domains} synthetic domains…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, CompliancePass::new());
    let s = pass.into_summary();

    let mut table = TextTable::new(
        "Table 7 — Completeness of certificate chain",
        &["Type", "This run", "Paper"],
    );
    let rows = [
        (Completeness::CompleteWithRoot, "79,144 (8.7%)"),
        (Completeness::CompleteWithoutRoot, "815,105 (89.9%)"),
        (Completeness::Incomplete, "12,087 (1.3%)"),
    ];
    for (class, paper) in rows {
        let count = s.completeness.get(&class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper.to_string(),
        ]);
    }
    println!("{}", table.render());

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
        "11,419 (94.5%)".to_string(),
    ]);
    aia.row(&[
        "missing exactly one intermediate".to_string(),
        count_pct(s.missing_single_intermediate, incomplete),
        "8,729 (72.2%)".to_string(),
    ]);
    for (reason, count) in &s.incomplete_reasons {
        let paper = match *reason {
            "AIA field missing" => "579",
            "AIA URI dead" => "88",
            "AIA served wrong certificate" => "1",
            _ => "-",
        };
        aia.row(&[
            reason.to_string(),
            group_thousands(*count),
            paper.to_string(),
        ]);
    }
    println!("{}", aia.render());
    println!(
        "chains whose omitted root was located via AIA download rather than \
         store SKID match: {}",
        group_thousands(s.root_via_aia)
    );
    eprintln!("{}", stats.render());
    Ok(())
}
