//! The chain-chaos command-line tool.
//!
//! ```text
//! chain-chaos demo-pki --out <dir>       generate a demo PKI as PEM files
//! chain-chaos analyze <chain.pem> [--domain D] [--store roots.pem]
//!                                        server-side compliance analysis
//! chain-chaos build <chain.pem> --store roots.pem [--client NAME]
//!                                        [--domain D] [--time YYYY-MM-DD]
//!                                        run one client's chain construction
//! chain-chaos matrix <chain.pem> --store roots.pem [--time YYYY-MM-DD]
//!                                        run all eight client profiles
//! chain-chaos lint <chain.pem> [--domain D] [--store roots.pem]
//!                              [--format text|json|sarif] [--time YYYY-MM-DD]
//!                              [--baseline f] [--write-baseline f]
//!                                        static-analysis pass over the chain
//! chain-chaos chaos [--domains N] [--fault-seed S] [--rates a,b,c]
//!                                        I-4 availability under deterministic
//!                                        network-fault injection
//! chain-chaos metrics [--metrics <path>] dump the metric families (no work)
//! ```
//!
//! `lint` exits non-zero iff Error-severity findings remain after baseline
//! suppression, so it drops into CI pipelines directly; `--write-baseline`
//! records only the Error-severity findings.
//!
//! An option the subcommand does not read, or one given twice, is an
//! error naming it, raised before any work runs. `--help`, the one option
//! without a value, prints the usage to stdout with any command.
//!
//! Every subcommand additionally accepts `--metrics <path>`: after the
//! command finishes, the process-global `ccc-obs` registry is dumped to
//! `<path>` — Prometheus text exposition by default, the no-serde JSON
//! object format when the path ends in `.json`, stdout when the path is
//! `-`.

use chain_chaos::asn1::Time;
use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::report::TextTable;
use chain_chaos::core::{
    analyze_order_with_graph, classify_leaf_placement, BuildContext, CompletenessAnalyzer,
    IssuanceChecker, TopologyGraph,
};
use chain_chaos::crypto::{Group, KeyPair};
use chain_chaos::lint::{render, Baseline, LintEngine, Severity};
use chain_chaos::netsim::AiaRepository;
use chain_chaos::rootstore::RootStore;
use chain_chaos::x509::pem;
use chain_chaos::x509::{Certificate, CertificateBuilder, DistinguishedName};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match name {
                    "help" => String::new(),
                    _ => iter
                        .next()
                        .ok_or_else(|| format!("option --{name} needs a value"))?,
                };
                options.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reject, by name, an option `command` does not read (every command
    /// also takes `--metrics` and `--help`) or one given twice. An unknown
    /// command passes, so that it gets the usage text.
    fn check_options(&self, command: &str) -> Result<(), String> {
        let reads: &[&str] = match command {
            "demo-pki" => &["out"],
            "analyze" => &["domain", "store"],
            "build" => &["store", "client", "domain", "time"],
            "matrix" => &["store", "domain", "time"],
            "lint" => &[
                "domain",
                "store",
                "format",
                "time",
                "baseline",
                "write-baseline",
            ],
            "chaos" => &["domains", "fault-seed", "rates"],
            "metrics" => &[],
            _ => return Ok(()),
        };
        for (i, (name, _)) in self.options.iter().enumerate() {
            if !["metrics", "help"].contains(&name.as_str()) && !reads.contains(&name.as_str()) {
                return Err(format!("{command} does not take --{name}"));
            }
            if self.options[..i].iter().any(|(earlier, _)| earlier == name) {
                return Err(format!("option --{name} given twice"));
            }
        }
        Ok(())
    }
}

fn load_chain(path: &str) -> Result<Vec<Certificate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    pem::decode_chain(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_store(args: &Args) -> Result<RootStore, String> {
    match args.opt("store") {
        Some(path) => Ok(RootStore::new("cli", load_chain(path)?)),
        None => Ok(RootStore::new("empty", Vec::new())),
    }
}

fn parse_time(args: &Args) -> Result<Time, String> {
    match args.opt("time") {
        None => Ok(Time::from_ymd(2024, 7, 1).expect("valid")),
        Some(spec) => {
            let parts: Vec<&str> = spec.split('-').collect();
            if parts.len() != 3 {
                return Err(format!("--time must be YYYY-MM-DD, got {spec}"));
            }
            let y: i32 = parts[0].parse().map_err(|_| "bad year".to_string())?;
            let m: u8 = parts[1].parse().map_err(|_| "bad month".to_string())?;
            let d: u8 = parts[2].parse().map_err(|_| "bad day".to_string())?;
            Time::from_ymd(y, m, d).ok_or_else(|| format!("invalid date {spec}"))
        }
    }
}

fn cmd_demo_pki(args: &Args) -> Result<(), String> {
    let out = args.opt("out").unwrap_or("demo-pki");
    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;

    let g = Group::simulation_256();
    let root_kp = KeyPair::from_seed(g, b"cli-demo-root");
    let int_kp = KeyPair::from_seed(g, b"cli-demo-int");
    let leaf_kp = KeyPair::from_seed(g, b"cli-demo-leaf");
    let root_dn = DistinguishedName::cn_o("Demo Root CA", "chain-chaos demo");
    let int_dn = DistinguishedName::cn_o("Demo Issuing CA", "chain-chaos demo");
    let root = CertificateBuilder::ca_profile(root_dn.clone())
        .validity(
            Time::from_ymd(2020, 1, 1).expect("valid"),
            Time::from_ymd(2040, 1, 1).expect("valid"),
        )
        .self_signed(&root_kp);
    let int =
        CertificateBuilder::ca_profile(int_dn.clone()).issued_by(&int_kp.public, root_dn, &root_kp);
    let leaf = CertificateBuilder::leaf_profile("demo.example").issued_by(
        &leaf_kp.public,
        int_dn,
        &int_kp,
    );

    let write = |name: &str, content: String| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("cannot write {name}: {e}"))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    write("root.pem", pem::encode_certificate(&root))?;
    write("intermediate.pem", pem::encode_certificate(&int))?;
    write("leaf.pem", pem::encode_certificate(&leaf))?;
    write(
        "fullchain.pem",
        pem::encode_chain(&[leaf.clone(), int.clone()]),
    )?;
    write(
        "reversed-chain.pem",
        pem::encode_chain(&[leaf.clone(), root.clone(), int.clone()]),
    )?;
    write("lonely-leaf.pem", pem::encode_certificate(&leaf))?;
    println!(
        "\ntry:\n  chain-chaos analyze {0}/reversed-chain.pem --domain demo.example --store {0}/root.pem\n  chain-chaos matrix {0}/reversed-chain.pem --store {0}/root.pem",
        out
    );
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: chain-chaos analyze <chain.pem> [--domain D] [--store roots.pem]")?;
    let served = load_chain(path)?;
    let store = load_store(args)?;
    let checker = IssuanceChecker::new();
    let aia = AiaRepository::empty();

    println!("{}: {} certificates", path, served.len());
    for (i, cert) in served.iter().enumerate() {
        let v = cert.validity();
        println!(
            "  [{i}] subject={} issuer={}{}",
            cert.subject(),
            cert.issuer(),
            if cert.is_self_issued() {
                " (self-issued)"
            } else {
                ""
            }
        );
        println!(
            "      validity {} .. {}  fp={}",
            v.not_before,
            v.not_after,
            cert.fingerprint().short()
        );
    }

    let graph = TopologyGraph::build(&served, &checker);
    println!("\ntopology: {}", graph.describe());
    let order = analyze_order_with_graph(&graph);
    println!(
        "issuance order: duplicates={} irrelevant={} paths={} reversed={} => {}",
        order.duplicates.total(),
        order.irrelevant,
        order.path_count,
        order.reversed_paths,
        if order.is_compliant() {
            "COMPLIANT"
        } else {
            "NON-COMPLIANT"
        }
    );

    if let Some(domain) = args.opt("domain") {
        let placement = classify_leaf_placement(domain, &served);
        println!("leaf placement for {domain}: {}", placement.label());
    }

    let analyzer = CompletenessAnalyzer::new(&checker, &store, Some(&aia));
    let completeness = analyzer.analyze_graph(&graph);
    println!(
        "completeness (against {} trusted roots): {}",
        store.len(),
        completeness.completeness.label()
    );
    Ok(())
}

fn run_engine(
    kind: ClientKind,
    served: &[Certificate],
    store: &RootStore,
    now: Time,
    domain: Option<&str>,
    checker: &IssuanceChecker,
) -> (String, String) {
    let aia = AiaRepository::empty();
    let ctx = BuildContext {
        store,
        aia: Some(&aia),
        cache: &[],
        now,
        checker,
    };
    let outcome = kind.engine().process(served, &ctx);
    let verdict = match &outcome.verdict {
        Ok(()) => match domain {
            Some(d)
                if !chain_chaos::core::leaf::cert_covers_domain(
                    served.first().expect("non-empty"),
                    d,
                ) =>
            {
                "REJECTED: hostname mismatch".to_string()
            }
            _ => "accepted".to_string(),
        },
        Err(e) => format!("REJECTED: {e}"),
    };
    let path = outcome
        .path
        .iter()
        .map(|c| c.subject().common_name().unwrap_or("?").to_string())
        .collect::<Vec<_>>()
        .join(" <- ");
    (verdict, path)
}

fn cmd_build(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or(
        "usage: chain-chaos build <chain.pem> --store roots.pem [--client NAME] [--domain D]",
    )?;
    let served = load_chain(path)?;
    if served.is_empty() {
        return Err("empty chain".into());
    }
    let store = load_store(args)?;
    let now = parse_time(args)?;
    let client_name = args.opt("client").unwrap_or("chrome").to_lowercase();
    let kind = ClientKind::ALL
        .iter()
        .find(|k| k.name().to_lowercase().replace(' ', "") == client_name.replace(' ', ""))
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown client {client_name}; options: {}",
                ClientKind::ALL.map(|k| k.name()).join(", ")
            )
        })?;
    let checker = IssuanceChecker::new();
    let (verdict, built) = run_engine(kind, &served, &store, now, args.opt("domain"), &checker);
    println!("{}: {verdict}", kind.name());
    if !built.is_empty() {
        println!("constructed path: {built}");
    }
    Ok(())
}

fn cmd_matrix(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: chain-chaos matrix <chain.pem> --store roots.pem [--domain D]")?;
    // Phase accounting mirrors the corpus pipeline: parsing the served
    // chain is the "generation" phase (done once), the eight client
    // engines are the passes consuming that single observation.
    let gen_start = std::time::Instant::now();
    let served = load_chain(path)?;
    let store = load_store(args)?;
    let generation = gen_start.elapsed();
    let now = parse_time(args)?;
    let mut table = TextTable::new(
        "Client verdicts",
        &["Client", "Verdict", "Constructed path"],
    );
    // One shared signature cache across all eight client profiles: each
    // (issuer, subject) pair is verified once, later clients hit the cache.
    let checker = IssuanceChecker::new();
    let analysis_start = std::time::Instant::now();
    for kind in ClientKind::ALL {
        let (verdict, built) = run_engine(kind, &served, &store, now, args.opt("domain"), &checker);
        table.row(&[kind.name().to_string(), verdict, built]);
    }
    let analysis = analysis_start.elapsed();
    println!("{}", table.render());
    // The wall-clock split goes to stderr, as in `lint`, so stdout is the
    // same on every run.
    eprintln!(
        "{}",
        chain_chaos::core::report::render_phase_split(
            generation,
            analysis,
            1,
            ClientKind::ALL.len()
        )
    );
    let stats = checker.snapshot_stats();
    println!("{}", chain_chaos::core::report::render_cache_stats(&stats));
    Ok(())
}

/// Default lint domain: the leaf's first SAN dNSName, else its subject
/// CN, else a placeholder (the domain participates in finding
/// fingerprints, so it must be deterministic for a given input).
fn lint_domain<'a>(args: &'a Args, served: &'a [Certificate]) -> &'a str {
    if let Some(d) = args.opt("domain") {
        return d;
    }
    let Some(leaf) = served.first() else {
        return "unknown.invalid";
    };
    if let Some(name) = leaf.san().and_then(|san| san.dns_names().next()) {
        return name;
    }
    leaf.subject().common_name().unwrap_or("unknown.invalid")
}

fn cmd_lint(args: &Args) -> Result<ExitCode, String> {
    let path = args.positional.get(1).ok_or(
        "usage: chain-chaos lint <chain.pem> [--domain D] [--store roots.pem] \
         [--format text|json|sarif] [--time YYYY-MM-DD] [--baseline f] [--write-baseline f]",
    )?;
    let gen_start = std::time::Instant::now();
    let served = load_chain(path)?;
    let store = load_store(args)?;
    let generation = gen_start.elapsed();
    let now = parse_time(args)?;
    let checker = IssuanceChecker::new();
    let aia = AiaRepository::empty();
    let engine = LintEngine::new(&checker, &store, Some(&aia), now);
    let domain = lint_domain(args, &served).to_string();
    let analysis_start = std::time::Instant::now();
    let findings = engine.lint_chain(&domain, &served);
    let analysis = analysis_start.elapsed();
    // Load-vs-lint wall split on stderr: stdout carries only findings so
    // json/sarif output stays machine-parseable.
    eprintln!(
        "{}",
        chain_chaos::core::report::render_phase_split(
            generation,
            analysis,
            1,
            chain_chaos::lint::registry().len(),
        )
    );

    if let Some(out) = args.opt("write-baseline") {
        let baseline =
            Baseline::from_findings(findings.iter().filter(|f| f.severity == Severity::Error));
        std::fs::write(out, baseline.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {} suppression(s) to {out}", baseline.len());
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match args.opt("baseline") {
        Some(bpath) => {
            let text =
                std::fs::read_to_string(bpath).map_err(|e| format!("cannot read {bpath}: {e}"))?;
            Baseline::parse(&text).map_err(|e| format!("{bpath}: {e}"))?
        }
        None => Baseline::empty(),
    };
    let findings = baseline.filter(findings);

    match args.opt("format").unwrap_or("text") {
        "text" => print!("{}", render::render_text(&findings)),
        "json" => print!("{}", render::render_jsonl(&findings)),
        "sarif" => print!("{}", render::render_sarif(&findings)),
        other => return Err(format!("unknown --format {other} (text|json|sarif)")),
    }
    let has_error = findings.iter().any(|f| f.severity == Severity::Error);
    Ok(if has_error {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `chain-chaos chaos`: sweep the synthetic scan corpus through every
/// (fault scenario × client profile) pair and print the I-4 availability
/// table. Output is byte-identical for any `CCC_THREADS` worker count.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use chain_chaos::bench::{chaos_sweep, parse_domains, FaultScenario, Pipeline};

    let domains = match args.opt("domains") {
        Some(v) => parse_domains(v)?,
        None => 1_000,
    };
    let fault_seed: Option<u64> = match args.opt("fault-seed") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --fault-seed '{v}'"))?),
        None => None,
    };
    let rates = match args.opt("rates") {
        Some(v) => FaultScenario::parse_rates(v)?,
        None => FaultScenario::STANDARD_RATES.to_vec(),
    };
    let (summary, stats) = chaos_sweep(Pipeline::from_env()?, domains, &rates, fault_seed);

    println!("{}", summary.render_table());
    print!("{}", summary.render_totals());
    eprintln!("{}", stats.render());
    Ok(())
}

/// `chain-chaos metrics`: register every family and dump the (all-zero)
/// exposition — a schema preview and a smoke test for scrape tooling.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    let path = args.opt("metrics").unwrap_or("-");
    dump_metrics(path)
}

/// Render the process-global registry to `path` (Prometheus text, or the
/// no-serde JSON object format when `path` ends in `.json`; `-` writes
/// Prometheus to stdout, `-.json`/`.json` alone are not special-cased).
fn dump_metrics(path: &str) -> Result<(), String> {
    // Every family, so the dump's shape does not depend on the command.
    chain_chaos::bench::touch_all_metrics();
    let snapshot = chain_chaos::obs::MetricsRegistry::global().snapshot();
    let rendered = if path.ends_with(".json") {
        chain_chaos::obs::render_json(&snapshot)
    } else {
        chain_chaos::obs::render_prometheus(&snapshot)
    };
    if path == "-" {
        print!("{rendered}");
        Ok(())
    } else {
        std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

const USAGE: &str = "\
chain-chaos — Web PKI certificate chain compliance toolkit

commands:
  demo-pki --out <dir>
  analyze <chain.pem> [--domain D] [--store roots.pem]
  build   <chain.pem> --store roots.pem [--client NAME] [--domain D] [--time YYYY-MM-DD]
  matrix  <chain.pem> --store roots.pem [--domain D] [--time YYYY-MM-DD]
  lint    <chain.pem> [--domain D] [--store roots.pem] [--format text|json|sarif]
          [--time YYYY-MM-DD] [--baseline f] [--write-baseline f]
  chaos   [--domains N] [--fault-seed S] [--rates a,b,c]
  metrics [--metrics <path>]

every command accepts --metrics <path> to dump the ccc-obs
registry afterwards (Prometheus text; *.json for JSON; - for stdout)";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let command = args.positional.first().map(String::as_str).unwrap_or("");
    if let Err(e) = args.check_options(command) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if args.opt("help").is_some() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let _span = match command {
        "demo-pki" => Some(chain_chaos::obs::span!("cmd.demo-pki")),
        "analyze" => Some(chain_chaos::obs::span!("cmd.analyze")),
        "build" => Some(chain_chaos::obs::span!("cmd.build")),
        "matrix" => Some(chain_chaos::obs::span!("cmd.matrix")),
        "lint" => Some(chain_chaos::obs::span!("cmd.lint")),
        "chaos" => Some(chain_chaos::obs::span!("cmd.chaos")),
        _ => None,
    };
    let result = match command {
        "demo-pki" => cmd_demo_pki(&args).map(|()| ExitCode::SUCCESS),
        "analyze" => cmd_analyze(&args).map(|()| ExitCode::SUCCESS),
        "build" => cmd_build(&args).map(|()| ExitCode::SUCCESS),
        "matrix" => cmd_matrix(&args).map(|()| ExitCode::SUCCESS),
        "lint" => cmd_lint(&args),
        "chaos" => cmd_chaos(&args).map(|()| ExitCode::SUCCESS),
        "metrics" => cmd_metrics(&args).map(|()| ExitCode::SUCCESS),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Close the command span before dumping so its duration is recorded.
    drop(_span);
    if let Some(path) = args.opt("metrics") {
        if command != "metrics" {
            if let Err(e) = dump_metrics(path) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
