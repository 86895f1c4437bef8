//! I-4 availability under deterministic network-fault injection: every
//! observation swept through every (fault scenario × client profile)
//! pair on the fused pipeline.
//!
//! ```text
//! cargo run --release --bin table_chaos [domains] [--fault-seed n] [--rates a,b,c]
//! ```
//!
//! stdout carries only the chaos table and summary lines — byte-identical
//! for any `CCC_THREADS` worker count, because every fetch outcome is a
//! pure function of (fault seed, URI, attempt) and latency accrues on
//! per-build simulated clocks. Timings go to stderr.

use ccc_bench::{chaos_sweep, parse_domains, FaultScenario, Pipeline};
use std::process::ExitCode;

/// Default corpus size for the chaos table (each domain costs scenarios ×
/// eight client builds, so the default stays small).
const DEFAULT_DOMAINS: usize = 1_000;

struct Args {
    domains: usize,
    pipeline: Pipeline,
    fault_seed: Option<u64>,
    rates: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        domains: DEFAULT_DOMAINS,
        pipeline: Pipeline::from_env()?,
        fault_seed: None,
        rates: FaultScenario::STANDARD_RATES.to_vec(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fault-seed" => {
                let v = it.next().ok_or("--fault-seed needs a value")?;
                args.fault_seed = Some(v.parse().map_err(|_| format!("bad fault seed '{v}'"))?);
            }
            "--rates" => {
                let v = it.next().ok_or("--rates needs a comma-separated list")?;
                args.rates = FaultScenario::parse_rates(&v)?;
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
            eprintln!("table_chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (summary, stats) = chaos_sweep(args.pipeline, args.domains, &args.rates, args.fault_seed);
    println!("{}", summary.render_table());
    print!("{}", summary.render_totals());
    // Timings to stderr: stdout stays deterministic for output diffing.
    eprintln!("{}", stats.render());
    ExitCode::SUCCESS
}
