//! Corpus-wide lint pass: severity × rule histogram plus the
//! compliance/lint consistency cross-check.
//!
//! ```text
//! cargo run --release --bin table_lint [domains] [--baseline f] [--write-baseline f]
//! ```
//!
//! Exit status is non-zero when (a) any chain violates the
//! "non-compliant ⇔ ≥1 error finding" contract, or (b) Error-severity
//! findings remain after baseline suppression. CI runs this with the
//! committed `ci/lint-baseline.json`, so the job fails only on *new*
//! errors.

use ccc_bench::{parse_domains, scan_corpus, CompliancePass, LintPass, Pipeline};
use ccc_core::report::{count_pct, group_thousands, TextTable};
use ccc_core::IssuanceChecker;
use ccc_lint::{registry, Baseline, Severity};
use std::process::ExitCode;

/// Default corpus size for the lint table (smaller than the analysis
/// tables: the lint pass retains per-finding detail).
const DEFAULT_DOMAINS: usize = 1_000;

struct Args {
    domains: usize,
    baseline: Option<String>,
    write_baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        domains: match std::env::var("CCC_DOMAINS") {
            Ok(v) => parse_domains(&v)?,
            Err(_) => DEFAULT_DOMAINS,
        },
        baseline: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?);
            }
            "--write-baseline" => {
                args.write_baseline = Some(it.next().ok_or("--write-baseline needs a path")?);
            }
            other => args.domains = parse_domains(other)?,
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("table_lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("linting {} synthetic domains…", args.domains);
    let corpus = scan_corpus(args.domains);
    let checker = IssuanceChecker::new();
    // Fused sweep: one observation generation feeds both the compliance
    // analysis and the lint engine (DESIGN.md §12). The compliance leg
    // replaces the per-chain analyze_compliance call the lint summary
    // used to make internally, and doubles as a cross-check below.
    let ((compliance, lint), stats) = Pipeline::from_env().run(
        &corpus,
        &checker,
        (CompliancePass::new(), LintPass::new()),
    );
    let compliance = compliance.into_summary();
    let s = lint.into_summary();
    if s.noncompliant_chains != compliance.noncompliant {
        eprintln!(
            "CONSISTENCY FAILURE: lint saw {} non-compliant chain(s), compliance pass saw {}",
            s.noncompliant_chains, compliance.noncompliant
        );
        return ExitCode::FAILURE;
    }

    // Severity × rule histogram, registry order within severity bands.
    let mut table = TextTable::new(
        "Lint findings by rule",
        &["Rule", "Scope", "Findings", "Chains (% of corpus)", "Citation"],
    );
    for severity in Severity::ALL {
        for rule in registry().iter().filter(|r| r.severity() == severity) {
            let hits = s.rule_hits.get(rule.id()).copied().unwrap_or(0);
            let chains = s.chains_by_rule.get(rule.id()).copied().unwrap_or(0);
            table.row(&[
                format!("{} {}", severity.label(), rule.id()),
                rule.scope().label().to_string(),
                group_thousands(hits),
                count_pct(chains, s.total),
                rule.citation().to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    let mut totals = TextTable::new("Findings by severity", &["Severity", "Findings"]);
    for severity in Severity::ALL {
        totals.row(&[
            severity.label().to_string(),
            group_thousands(s.severity_count(severity)),
        ]);
    }
    println!("{}", totals.render());

    println!(
        "chains: {} linted, {} non-compliant (analyze_compliance), {} with ≥1 error finding",
        group_thousands(s.total),
        group_thousands(s.noncompliant_chains),
        group_thousands(s.chains_with_error),
    );
    // Phase split + cache delta for the fused sweep (stderr: stdout stays
    // deterministic for output diffing).
    eprintln!("{}", stats.render());

    // Consistency cross-check: the engine and analyze_compliance are
    // mutual test oracles.
    if !s.is_consistent() {
        eprintln!(
            "CONSISTENCY FAILURE: {} chain(s) violate the non-compliant ⇔ error-finding contract:",
            s.consistency_violations.len()
        );
        for v in s.consistency_violations.iter().take(20) {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    println!("consistency: non-compliant ⇔ ≥1 error finding held for all chains");

    if let Some(path) = &args.write_baseline {
        let baseline = Baseline::from_findings(s.error_findings.iter());
        if let Err(e) = std::fs::write(path, baseline.to_json()) {
            eprintln!("table_lint: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline: wrote {} suppression(s) to {path}", baseline.len());
        return ExitCode::SUCCESS;
    }

    let baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("table_lint: parsing {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("table_lint: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Baseline::empty(),
    };
    let new_errors = baseline.filter(s.error_findings.clone());
    let suppressed = s.error_findings.len() - new_errors.len();
    if suppressed > 0 {
        println!(
            "baseline: suppressed {} of {} error finding(s)",
            group_thousands(suppressed),
            group_thousands(s.error_findings.len())
        );
    }
    if new_errors.is_empty() {
        println!("no new error findings");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} new error finding(s):", group_thousands(new_errors.len()));
        for f in new_errors.iter().take(20) {
            eprintln!("  {}: {f}", f.domain);
        }
        if new_errors.len() > 20 {
            eprintln!("  … and {} more", new_errors.len() - 20);
        }
        ExitCode::FAILURE
    }
}
