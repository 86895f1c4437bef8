//! Regenerates the paper's corpus tables — Tables 3, 5, 7, 8, 10 and 11
//! and the §5.2 differential statistics — from one fused sweep of the
//! scan corpus.
//!
//! `cargo run --release -p ccc-bench --bin tables [domains]`
//!
//! Stdout carries only the tables, byte-identical for any `CCC_THREADS`
//! worker count. Stderr names the host, seed and domain count, then the
//! sweep's phase split and cache statistics.

use ccc_bench::{
    domains_from_args, scan_corpus, tables, CompliancePass, DifferentialPass, Host, Pipeline,
    SCAN_SEED,
};
use ccc_core::report::group_thousands;
use ccc_core::IssuanceChecker;

fn main() -> Result<(), String> {
    let domains = domains_from_args()?;
    eprintln!(
        "host: {}; seed {SCAN_SEED}, {} domains",
        Host::probe(),
        group_thousands(domains)
    );
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let ((compliance, differential), stats) = Pipeline::from_env().run(
        &corpus,
        &checker,
        (CompliancePass::new(), DifferentialPass::new()),
    );
    let s = compliance.into_summary();
    let d = differential.into_summary();
    for table in [
        tables::table3(&s),
        tables::table5(&s),
        tables::table7(&s),
        tables::table8(&s),
        tables::table10(&s),
        tables::table11(&s),
        tables::section52(&d),
    ] {
        print!("{table}");
    }
    eprintln!("{}", stats.render());
    Ok(())
}
