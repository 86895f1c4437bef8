//! Regenerates paper Table 11: CAs/resellers of non-compliant chains.
//!
//! `cargo run --release --bin table11 [domains]`

use ccc_bench::{domains_from_env, scan_corpus, CompliancePass, Pipeline};
use ccc_core::report::{count_pct, group_thousands, TextTable};
use ccc_core::IssuanceChecker;

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

/// A defect-count projection used for table rows.
type CountFn<'a> = &'a dyn Fn(&ccc_bench::DefectCounts) -> usize;

fn main() -> Result<(), String> {
    let domains = domains_from_env()?;
    eprintln!("scanning {domains} synthetic domains…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::from_env().run(&corpus, &checker, CompliancePass::new());
    let s = pass.into_summary();

    let mut header = vec!["Type"];
    header.extend(CA_ORDER);
    let mut table = TextTable::new(
        "Table 11 — CAs / resellers of non-compliant chains (% of that CA's issuance)",
        &header,
    );
    let rows: Vec<(&str, CountFn<'_>)> = vec![
        ("Non-compliant", &|d| d.any),
        ("Duplicate Certificates", &|d| d.duplicates),
        ("Irrelevant Certificates", &|d| d.irrelevant),
        ("Multiple Paths", &|d| d.multipath),
        ("Reversed Sequences", &|d| d.reversed),
        ("Incomplete Chain", &|d| d.incomplete),
    ];
    for (label, f) in rows {
        let mut row = vec![label.to_string()];
        for ca in CA_ORDER {
            match s.by_ca.get(ca) {
                Some(d) => row.push(count_pct(f(d), d.total)),
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
    println!("{}", table.render());
    println!(
        "paper Table 11 rates: non-compliance — LE 1.2%, Digicert 7.9%, Sectigo 10.7%,\n\
         ZeroSSL 2.5%, GoGetSSL 16.7%, TAIWAN-CA 50.4%, cyber_Folks 66.2%, Trustico 65.7%;\n\
         reversed sequences dominate the three reversed-bundle resellers; TAIWAN-CA's\n\
         non-compliance is mostly incomplete chains (41.9%)."
    );
    eprintln!("{}", stats.render());
    Ok(())
}
