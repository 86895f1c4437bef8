//! Regenerates the paper's §5.2 differential-testing statistics: agreement
//! rates across browsers and libraries over non-compliant chains, the
//! I-1…I-4 discrepancy causes, and the corpus-wide availability impact.
//!
//! `cargo run --release --bin section52 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, DifferentialPass, Pipeline};
use ccc_core::report::{count_pct, TextTable};
use ccc_core::IssuanceChecker;

fn main() {
    let domains = domains_from_env();
    eprintln!("generating {domains} domains and running all 8 clients on each…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, DifferentialPass::new());
    let d = pass.into_summary();
    let r = &d.report;

    let mut table = TextTable::new(
        "Section 5.2 — differential results over non-compliant chains",
        &["Metric", "This run", "Paper"],
    );
    table.row(&[
        "non-compliant chains tested".into(),
        r.total.to_string(),
        "26,361".into(),
    ]);
    table.row(&[
        "passed all browsers".into(),
        count_pct(r.all_browsers_pass, r.total),
        "61.1% (3 browsers)".into(),
    ]);
    table.row(&[
        "passed all 4 libraries".into(),
        count_pct(r.all_libraries_pass, r.total),
        "47.4%".into(),
    ]);
    table.row(&[
        "browser discrepancies".into(),
        count_pct(r.browser_discrepancies, r.total),
        "3,295 chains".into(),
    ]);
    table.row(&[
        "library discrepancies".into(),
        count_pct(r.library_discrepancies, r.total),
        "10,804 chains".into(),
    ]);
    println!("{}", table.render());

    let mut causes = TextTable::new(
        "Discrepancy causes (I-1 … I-4)",
        &["Cause", "Chains (this run)", "Paper"],
    );
    let paper_cause = |label: &str| -> &'static str {
        match label {
            "I-1 order reorganization" => "51",
            "I-2 overly long chains" => "10",
            "I-3 backtracking" => "1",
            "I-4 AIA completion" => "8,553 (libraries) / 1,074 (Firefox)",
            _ => "-",
        }
    };
    for (cause, count) in &r.causes {
        causes.row(&[
            cause.label().to_string(),
            count.to_string(),
            paper_cause(cause.label()).to_string(),
        ]);
    }
    println!("{}", causes.render());

    let mut per_client = TextTable::new(
        "Per-client acceptance over non-compliant chains",
        &["Client", "Accepted"],
    );
    for (kind, pass) in &r.per_client_pass {
        per_client.row(&[kind.name().to_string(), count_pct(*pass, r.total)]);
    }
    println!("{}", per_client.render());

    println!(
        "corpus-wide availability impact: {} of all chains fail in >=1 library \
         (paper: 40.9% incl. hostname/expiry errors outside chain building); \
         {} fail in >=1 browser (paper: 12.5%).",
        count_pct(d.corpus_library_failures, d.corpus_total),
        count_pct(d.corpus_browser_failures, d.corpus_total),
    );
    if !d.cause_examples.is_empty() {
        println!("\nexample chains per cause:");
        for (cause, domain) in &d.cause_examples {
            println!("  {:<26} {domain}", cause.label());
        }
    }
    eprintln!("{}", stats.render());
}
