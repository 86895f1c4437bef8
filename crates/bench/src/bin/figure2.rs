//! Regenerates paper Figure 2: the four server-side chain topology
//! examples, rendered as issuance graphs with their order analyses.
//!
//! `cargo run --release --bin figure2`

use ccc_core::{analyze_order_with_graph, IssuanceChecker, TopologyGraph};
use ccc_testgen::scenarios::ScenarioSet;

fn main() {
    let set = ScenarioSet::new(5);
    let checker = IssuanceChecker::new();
    for scenario in [
        set.figure2a(),
        set.figure2b(),
        set.figure2c(),
        set.figure2d(),
    ] {
        let graph = TopologyGraph::build(&scenario.served, &checker);
        let order = analyze_order_with_graph(&graph);
        println!("{} — {}", scenario.name, scenario.description);
        println!("  served ({} certs):", scenario.served.len());
        for (i, cert) in scenario.served.iter().enumerate() {
            println!(
                "    [{i}] {}{}",
                cert.subject(),
                if cert.is_self_issued() {
                    "  (self-signed)"
                } else {
                    ""
                }
            );
        }
        println!("  graph: {}", graph.describe());
        println!(
            "  order analysis: duplicates={} irrelevant={} paths={} reversed_paths={} compliant={}",
            order.duplicates.total(),
            order.irrelevant,
            order.path_count,
            order.reversed_paths,
            order.is_compliant()
        );
        println!();
    }
    println!(
        "paper Figure 2: (a) compliant 4-cert chain; (b) webcanny.com's five stale\n\
         leaves; (c) USERTrust cross-sign creating two paths with a reversed\n\
         insertion; (d) archives.gov.tw's foreign hierarchy with a duplicate."
    );
}
