//! Regenerates paper Table 8: additional incomplete chains per root store,
//! with and without AIA support.
//!
//! "Additional" is relative to the unified-store + AIA baseline, exactly as
//! in the paper.
//!
//! `cargo run --release --bin table8 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, CompliancePass, Pipeline};
use ccc_core::report::{group_thousands, TextTable};
use ccc_core::IssuanceChecker;
use ccc_rootstore::RootProgram;

fn main() {
    let domains = domains_from_env();
    eprintln!("scanning {domains} synthetic domains…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, CompliancePass::new());
    let s = pass.into_summary();

    let baseline = s.unified_incomplete_with_aia;
    let mut table = TextTable::new(
        "Table 8 — Additional incomplete chains per root store × AIA",
        &["Root Store", "Mozilla", "Chrome", "Microsoft", "Apple"],
    );
    let additional = |n: usize| -> String { group_thousands(n.saturating_sub(baseline)) };
    let mut with_aia = vec!["AIA Supported".to_string()];
    let mut without_aia = vec!["AIA Not Supported".to_string()];
    for program in RootProgram::ALL {
        let sc = &s.store_completeness[&program];
        with_aia.push(additional(sc.incomplete_with_aia));
        without_aia.push(additional(sc.incomplete_without_aia));
    }
    table.row(&with_aia);
    table.row(&without_aia);
    println!("{}", table.render());

    println!(
        "paper (Tranco 1M):      AIA supported:     66 | 66 | 5 | 4\n\
         paper (Tranco 1M):      AIA not supported: 225,608 | 225,608 | 225,538 | 225,360\n\
         baseline (unified store + AIA) incomplete here: {} of {}\n\
         scale note: paper counts are absolute over 906,336 chains; compare \
         rates — the shape to check is (a) tiny per-store differences when \
         AIA is on, (b) a jump of roughly a quarter of all chains when AIA \
         is off (terminal intermediates whose AKID cannot be matched to a \
         store SKID).",
        group_thousands(baseline),
        group_thousands(s.total),
    );
    eprintln!("{}", stats.render());
}
