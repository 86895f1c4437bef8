//! Chain doctor: diagnose the paper's case-study topologies (Figures 2–5)
//! and print, for each, the issuance graph, the compliance findings, the
//! per-client verdicts, and the fix the paper's Section 6 recommends.
//!
//! Run with: `cargo run --example chain_doctor`

use chain_chaos::core::clients::client_profiles;
use chain_chaos::core::report::TextTable;
use chain_chaos::core::{
    analyze_compliance_with_graph, BuildContext, CompletenessAnalyzer, IssuanceChecker,
    NonCompliance, TopologyGraph,
};
use chain_chaos::testgen::scenarios::{Scenario, ScenarioSet};

fn recommend(findings: &[NonCompliance]) -> Vec<&'static str> {
    let mut recs = Vec::new();
    for finding in findings {
        recs.push(match finding {
            NonCompliance::LeafMisplaced => {
                "place the server certificate first in the configured chain file"
            }
            NonCompliance::DuplicateCertificates => {
                "remove duplicate certificates; keep the leaf only in the certificate file, \
                 not the chain file"
            }
            NonCompliance::IrrelevantCertificates => {
                "remove stale or unrelated certificates left over from renewals or co-hosted \
                 domains"
            }
            NonCompliance::MultiplePaths => {
                "order cross-signed certificates by issuance so each certificate directly \
                 certifies the one preceding it"
            }
            NonCompliance::ReversedSequence => {
                "reverse the ca-bundle into issuance order before concatenating (several \
                 resellers deliver it reversed)"
            }
            NonCompliance::IncompleteChain => {
                "include every intermediate certificate; only the root may be omitted"
            }
        });
    }
    if recs.is_empty() {
        recs.push("deployment is structurally compliant");
    }
    recs
}

fn diagnose(set: &ScenarioSet, scenario: &Scenario) {
    println!("────────────────────────────────────────────────────────────");
    println!("{} — {}", scenario.name, scenario.description);
    println!(
        "domain: {}   served: {} certificates",
        scenario.domain,
        scenario.served.len()
    );

    let checker = IssuanceChecker::new();
    let graph = TopologyGraph::build(&scenario.served, &checker);
    println!("topology: {}", graph.describe());

    let analyzer = CompletenessAnalyzer::new(&checker, &set.store, Some(&set.aia));
    let report =
        analyze_compliance_with_graph(&scenario.domain, &scenario.served, &graph, &analyzer);
    if report.findings.is_empty() {
        println!("findings: none (compliant)");
    } else {
        let labels: Vec<&str> = report.findings.iter().map(|f| f.label()).collect();
        println!("findings: {}", labels.join(", "));
    }

    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new("", &["Client", "Verdict"]);
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        table.row(&[
            kind.name().to_string(),
            match &outcome.verdict {
                Ok(()) => "accepted".to_string(),
                Err(e) => format!("REJECTED: {e}"),
            },
        ]);
    }
    println!("{}", table.render());
    println!("recommendations:");
    for rec in recommend(&report.findings) {
        println!("  - {rec}");
    }
    println!();
}

fn main() {
    let set = ScenarioSet::new(5);
    let scenarios = vec![
        set.figure2a(),
        set.figure2b(),
        set.figure2c(),
        set.figure2d(),
        set.figure3(),
        set.figure4(),
        set.figure5().0,
    ];
    for scenario in &scenarios {
        diagnose(&set, scenario);
    }
}
