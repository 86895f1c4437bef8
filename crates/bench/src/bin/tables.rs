//! Regenerates the paper's corpus tables — Tables 3, 5, 7, 8, 10 and 11
//! and the §5.2 differential statistics — from one fused sweep of the
//! scan corpus.
//!
//! `cargo run --release -p ccc-bench --bin tables [domains]`
//!
//! Stdout carries only the tables, byte-identical for any `CCC_THREADS`
//! worker count. Stderr names the host, seed and domain count, then the
//! sweep's phase split, worker count and cache statistics, and ends with
//! the process's peak resident set where `/proc/self/status` reports it.

use ccc_bench::{
    domains_from_args, peak_rss_kib, scan_corpus, tables, CompliancePass, DifferentialPass, Host,
    Pipeline, SCAN_SEED,
};
use ccc_core::report::group_thousands;
use ccc_core::IssuanceChecker;

fn main() -> Result<(), String> {
    let domains = domains_from_args()?;
    let pipeline = Pipeline::from_env()?;
    eprintln!(
        "host: {}; seed {SCAN_SEED}, {} domains",
        Host::probe(),
        group_thousands(domains)
    );
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();
    let ((compliance, differential), stats) = pipeline.run(
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
    if let Some(kib) = peak_rss_kib() {
        eprintln!("peak RSS: {:.1} MB (VmHWM)", kib as f64 / 1024.0);
    }
    Ok(())
}
