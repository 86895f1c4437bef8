//! End-to-end benchmark for chain-chaos.
//!
//! ```text
//! e2ebench --workload scan|chaos|ingest [--seed N] [--seconds S] [--trace 0|1]
//!          [--domains N] [--print-reference]
//! ```
//!
//! One process runs one workload. Set-up is repeated (mean reported as
//! `setup_s`); an untimed reference sweep fixes the summaries every later
//! sweep must reproduce; timed sweeps then run for `--seconds`. Every
//! set-up and sweep is preceded by a host-speed calibration unit and its
//! times are reported at reference-host speed (see `calib`). With
//! `--trace 1` half the time goes to untraced sweeps and half to traced
//! ones, and the per-layer ledger is reported instead of the end-to-end
//! metrics. The last line of standard output is the result object; the
//! line before it is a report with the host block, raw figures, sample
//! counts and any failures. See README.md in this directory.

mod calib;
mod chaos;
mod host;
mod ingest;
mod ledger;
mod probe;
mod scan;
mod stats;

use host::Host;
use ledger::{Trace, Untraced};
use stats::{median, percentile, process_cpu, ratio};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The corpus seed every regeneration binary uses (`SCAN_SEED`).
const DEFAULT_SEED: u64 = ccc_bench::SCAN_SEED;

/// Sweeps timed per phase even when `--seconds` runs out first.
const MIN_SWEEPS: usize = 3;

/// Set-ups per run: at least `MIN_SETUPS`, then more while they take
/// under `SETUP_BUDGET_S` in total, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;

/// End-to-end metrics printed in the report but left out of the result
/// object (and of BENCHMARK.json). Per-domain cost is a mixture whose
/// halves meet near the median, so which mode the median lands in changes
/// with the seed's corpus: across seeds it moves by more than any bound a
/// comparison could use.
const UNGATED: &[&str] = &["chain_us_p50"];

/// Summary counts of reference sweeps at the default seed, one
/// `workload seed domains key value` line each.
const REFERENCE: &str = include_str!("../reference.txt");

/// One workload's hooks for the shared run loop.
pub trait Workload {
    /// Name on the command line.
    const NAME: &'static str;
    /// Worker threads the workload runs with.
    const THREADS: usize;
    /// Domains (chains) per sweep unless `--domains` overrides it.
    const DEFAULT_DOMAINS: usize;
    /// Whether `attempted`/`failed` count chains rather than sweeps.
    const COUNTS_CHAINS: bool;
    /// What set-up builds.
    type State;
    /// What one sweep produces; every sweep of a run must produce the
    /// same value.
    type Summary: PartialEq;

    /// Build the corpus and any workload inputs.
    fn setup(seed: u64, domains: usize) -> Self::State;
    /// One untraced sweep.
    fn sweep(state: &Self::State) -> Sweep<Self::Summary>;
    /// One traced sweep, replayed from public calls.
    fn traced(state: &Self::State) -> (Sweep<Self::Summary>, Trace);
    /// Checks on the reference sweep beyond sweep-to-sweep equality.
    fn check(state: &Self::State, summary: &Self::Summary) -> Vec<String>;
    /// Public summary counts compared with the committed reference.
    fn counts(summary: &Self::Summary) -> Vec<(String, u64)>;
}

/// What one sweep returns.
#[derive(Debug)]
pub struct Sweep<S> {
    /// The sweep's summary.
    pub summary: S,
    /// Per-domain (per-chain) latencies in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Chains that failed their own check (ingest).
    pub failed_chains: u64,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
    /// Samples the value was taken over.
    pub samples: usize,
}

#[derive(Debug)]
struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    domains: Option<usize>,
    print_reference: bool,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        domains: None,
        print_reference: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-reference" {
            cfg.print_reference = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--domains" => cfg.domains = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", cfg.seconds));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "scan" => run::<scan::Scan>(&cfg),
        "chaos" => run::<chaos::Chaos>(&cfg),
        "ingest" => run::<ingest::Ingest>(&cfg),
        other => {
            eprintln!("e2ebench: unknown --workload {other:?} (scan|chaos|ingest)");
            return ExitCode::from(2);
        }
    };
    if let Some(result) = result {
        result.print(&cfg);
    }
    ExitCode::SUCCESS
}

/// Counts attempted and failed units and keeps the first failure notes.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn record(&mut self, units: u64, failed: u64, what: &str, notes: Vec<String>) {
        self.attempted += units;
        self.failed += failed.min(units);
        for note in notes {
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {note}"));
            }
        }
    }

    /// Gate one sweep against the reference summary.
    fn sweep<S: PartialEq>(&mut self, units: u64, sweep: &Sweep<S>, reference: &S, what: &str) {
        let mut notes = Vec::new();
        let mut failed = sweep.failed_chains;
        if sweep.failed_chains > 0 {
            notes.push(format!(
                "{} chain(s) failed to decode or round-trip",
                sweep.failed_chains
            ));
        }
        if sweep.summary != *reference {
            notes.push("summary differs from the reference sweep".to_string());
            failed = units;
        }
        self.record(units, failed, what, notes);
    }
}

/// Everything one run prints.
#[derive(Debug)]
struct RunResult {
    workload: &'static str,
    domains: usize,
    threads: usize,
    gate: Gate,
    metrics: Vec<Metric>,
    /// End-to-end metrics reported but not in the result object.
    ungated: Vec<Metric>,
    /// The end-to-end metrics without host-speed scaling.
    raw: Vec<Metric>,
    /// Mean calibration unit of the untraced sweeps.
    unit_s: f64,
    sweeps: usize,
    traced_sweeps: usize,
    absent: BTreeSet<String>,
    flags: Vec<String>,
}

fn run<W: Workload>(cfg: &Config) -> Option<RunResult> {
    let domains = cfg.domains.unwrap_or(W::DEFAULT_DOMAINS);
    let units = if W::COUNTS_CHAINS { domains as u64 } else { 1 };

    // Set-up, repeated so its mean is steady; only the last one is kept
    // (each earlier one is dropped before the next is built).
    let mut setup = Calibrated::default();
    let mut state = None;
    while setup.walls.len() < MIN_SETUPS
        || (setup.walls.len() < MAX_SETUPS && setup.total() < SETUP_BUDGET_S)
    {
        drop(state.take());
        setup.units.push(calib::measure(1));
        let start = Instant::now();
        let built = W::setup(cfg.seed, domains);
        setup.walls.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    setup.units.push(calib::measure(1));
    let state = state.expect("at least one set-up ran");

    let mut gate = Gate::default();
    let reference = W::sweep(&state);
    let counts = W::counts(&reference.summary);
    if cfg.print_reference {
        for (key, value) in &counts {
            println!("{} {} {domains} {key} {value}", W::NAME, cfg.seed);
        }
        return None;
    }
    let mut notes = W::check(&state, &reference.summary);
    notes.extend(compare_reference(W::NAME, cfg.seed, domains, &counts));
    let failed = if notes.is_empty() {
        reference.failed_chains
    } else {
        units
    };
    gate.record(units, failed, "reference sweep", notes);

    // Untraced sweeps, each preceded by a calibration unit (and one more
    // after the last).
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let mut sweeps = Calibrated::default();
    let mut cpu_s = 0.0;
    let (mut p50_us, mut p99_us, mut latencies) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    while sweeps.walls.len() < MIN_SWEEPS || start.elapsed() < budget {
        sweeps.units.push(calib::measure(W::THREADS));
        let cpu_start = process_cpu();
        let sweep_start = Instant::now();
        let mut sweep = W::sweep(&state);
        sweeps.walls.push(sweep_start.elapsed().as_secs_f64());
        cpu_s += process_cpu().saturating_sub(cpu_start).as_secs_f64();
        // Percentiles per sweep, so the samples never outgrow one sweep
        // and inflate the process's peak RSS.
        latencies += sweep.latencies_ns.len();
        p50_us.push(percentile(&mut sweep.latencies_ns, 0.50) as f64 / 1e3);
        p99_us.push(percentile(&mut sweep.latencies_ns, 0.99) as f64 / 1e3);
        let what = format!("untraced sweep {}", sweeps.walls.len());
        gate.sweep(units, &sweep, &reference.summary, &what);
    }
    sweeps.units.push(calib::measure(W::THREADS));

    let swept = (sweeps.walls.len() * domains) as f64;
    let mut result = RunResult {
        workload: W::NAME,
        domains,
        threads: W::THREADS,
        gate,
        metrics: Vec::new(),
        ungated: Vec::new(),
        raw: Vec::new(),
        unit_s: sweeps.mean_unit(),
        sweeps: sweeps.walls.len(),
        traced_sweeps: 0,
        absent: BTreeSet::new(),
        flags: Vec::new(),
    };
    if cfg.trace {
        let untraced = Untraced {
            domains_per_s: ratio(swept, sweeps.total() * sweeps.scale()),
            busy_frac: ratio(cpu_s, sweeps.total() * W::THREADS as f64),
            sweeps: sweeps.walls.len(),
        };
        let mut traces = Vec::new();
        let mut traced = Calibrated::default();
        let start = Instant::now();
        while traces.len() < MIN_SWEEPS || start.elapsed() < budget {
            traced.units.push(calib::measure(W::THREADS));
            let (sweep, trace) = W::traced(&state);
            let what = format!("traced sweep {}", traces.len() + 1);
            result.gate.sweep(units, &sweep, &reference.summary, &what);
            traces.push(trace);
        }
        traced.units.push(calib::measure(W::THREADS));
        let (metrics, absent) = ledger::per_layer(&traces, traced.scale(), untraced);
        let worst = traces
            .iter()
            .map(|t| ratio(t.unattributed_us(), t.attributable_us()))
            .fold(0.0, f64::max);
        if worst > 0.1 {
            result.flags.push(format!(
                "unattributed time is {:.1}% of traced thread time (over 10%)",
                worst * 100.0
            ));
        }
        result.traced_sweeps = traces.len();
        result.metrics = metrics;
        result.absent = absent;
    } else {
        let (p50, p99) = (median(&p50_us), median(&p99_us));
        let metrics = |setup_scale: f64, sweep_scale: f64| {
            let metric = |name, value, unit, samples| Metric {
                name,
                value,
                unit,
                samples,
            };
            vec![
                metric(
                    "setup_s",
                    setup.mean() * setup_scale,
                    "s",
                    setup.walls.len(),
                ),
                metric(
                    "domains_per_s",
                    ratio(swept, sweeps.total() * sweep_scale),
                    "1/s",
                    sweeps.walls.len(),
                ),
                metric(
                    "cpu_us_per_domain",
                    ratio(cpu_s * sweep_scale * 1e6, swept),
                    "us",
                    sweeps.walls.len(),
                ),
                metric(
                    "peak_rss_mb",
                    stats::peak_rss_kib() as f64 / 1024.0,
                    "MB",
                    1,
                ),
                metric("chain_us_p50", p50 * sweep_scale, "us", latencies),
                metric("chain_us_p99", p99 * sweep_scale, "us", latencies),
            ]
        };
        (result.ungated, result.metrics) = metrics(setup.scale(), sweeps.scale())
            .into_iter()
            .partition(|m| UNGATED.contains(&m.name));
        result.raw = metrics(1.0, 1.0);
    }
    Some(result)
}

/// Wall times of repeated set-ups or sweeps, and the calibration units
/// timed before each of them and after the last.
#[derive(Debug, Default)]
struct Calibrated {
    walls: Vec<f64>,
    units: Vec<f64>,
}

impl Calibrated {
    fn total(&self) -> f64 {
        self.walls.iter().sum()
    }

    fn mean(&self) -> f64 {
        ratio(self.total(), self.walls.len() as f64)
    }

    fn mean_unit(&self) -> f64 {
        ratio(self.units.iter().sum(), self.units.len() as f64)
    }

    /// The run's factor to reference-host time.
    fn scale(&self) -> f64 {
        calib::scale(self.mean_unit())
    }
}

/// Compare a reference sweep's counts with the committed ones for the
/// same workload, seed and size (nothing to compare for other seeds).
fn compare_reference(
    workload: &str,
    seed: u64,
    domains: usize,
    counts: &[(String, u64)],
) -> Vec<String> {
    let prefix = format!("{workload} {seed} {domains} ");
    let expected: Vec<(&str, &str)> = REFERENCE
        .lines()
        .filter_map(|line| line.strip_prefix(prefix.as_str()))
        .filter_map(|rest| rest.rsplit_once(' '))
        .collect();
    let mut failures = Vec::new();
    for (key, value) in &expected {
        match counts.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got.to_string() == *value => {}
            Some((_, got)) => failures.push(format!("{key} = {got}, reference {value}")),
            None => failures.push(format!("{key} missing (reference {value})")),
        }
    }
    failures
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values as Rust prints them (every digit kept),
/// anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `"name": {"value": v, "unit": "u"}` for each metric, comma-separated.
fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl RunResult {
    fn print(&self, cfg: &Config) {
        let host = Host::probe();
        let failed_frac = ratio(self.gate.failed as f64, self.gate.attempted as f64);
        println!(
            "# e2ebench {} seed={} domains={} threads={} trace={} sweeps={} traced_sweeps={}",
            self.workload,
            cfg.seed,
            self.domains,
            self.threads,
            u8::from(cfg.trace),
            self.sweeps,
            self.traced_sweeps
        );
        println!(
            "# host nproc={} cpu={:?} kernel={} rustc={:?} commit={}",
            host.nproc, host.cpu_model, host.kernel, host.rustc, host.commit
        );
        println!(
            "# calibration unit {:.5} s (reference {} s); times below are at reference speed",
            self.unit_s,
            calib::REFERENCE_S
        );
        for m in self.metrics.iter().chain(&self.ungated) {
            let raw = self
                .raw
                .iter()
                .find(|r| r.name == m.name)
                .map(|r| format!("  raw {:.4}", r.value))
                .unwrap_or_default();
            println!(
                "{:<34} {:>14.4} {:<6} ({} samples){raw}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "failed_frac {failed_frac} ({} of {} failed)",
            self.gate.failed, self.gate.attempted
        );
        for note in self.gate.notes.iter().chain(&self.flags) {
            println!("! {note}");
        }

        let list = |items: &mut dyn Iterator<Item = &String>| -> String {
            items.map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
        };
        let samples: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.ungated)
            .map(|m| format!("{}: {}", json_str(m.name), m.samples))
            .collect();
        let mut report = String::from("{\"report\": {");
        let _ = write!(
            report,
            "\"workload\": {}, \"sweeps\": {}, \"traced_sweeps\": {}, \"failed_frac\": {}, \
             \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \
             \"commit\": {}, \"seed\": {}, \"n\": {}, \"threads\": {}}}, \
             \"calibration\": {{\"reference_unit_s\": {}, \"mean_unit_s\": {}}}, \
             \"samples\": {{{}}}, \"ungated\": {{{}}}, \"raw\": {{{}}}, \"failures\": [{}], \
             \"flags\": [{}], \"absent_series\": [{}]}}}}",
            json_str(self.workload),
            self.sweeps,
            self.traced_sweeps,
            json_num(failed_frac),
            host.nproc,
            json_str(&host.cpu_model),
            json_str(&host.kernel),
            json_str(host.rustc),
            json_str(&host.commit),
            cfg.seed,
            self.domains,
            self.threads,
            json_num(calib::REFERENCE_S),
            json_num(self.unit_s),
            samples.join(", "),
            metrics_json(&self.ungated),
            metrics_json(&self.raw),
            list(&mut self.gate.notes.iter()),
            list(&mut self.flags.iter()),
            list(&mut self.absent.iter()),
        );
        println!("{report}");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.failed == 0,
            self.gate.attempted,
            self.gate.failed,
            metrics_json(&self.metrics)
        );
    }
}
