//! Client capability matrix — regenerates the paper's Table 9 by running
//! the nine Table 2 test chains against all eight client profiles.
//!
//! Run with: `cargo run --example capability_matrix`

use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::report::{check, TextTable};
use chain_chaos::testgen::CapabilitySuite;

fn main() {
    let suite = CapabilitySuite::new(1);
    let mut table = TextTable::new(
        "Differences in the capabilities of TLS implementations (paper Table 9)",
        &[
            "Type",
            "OpenSSL",
            "GnuTLS",
            "MbedTLS",
            "CryptoAPI",
            "Chrome",
            "Edge",
            "Safari",
            "Firefox",
        ],
    );

    let rows: Vec<Vec<String>> = {
        let evaluated: Vec<_> = ClientKind::ALL
            .iter()
            .map(|k| {
                eprintln!("evaluating {}…", k.name());
                suite.evaluate(&k.engine())
            })
            .collect();
        let col = |f: &dyn Fn(&chain_chaos::testgen::CapabilityRow) -> String| -> Vec<String> {
            evaluated.iter().map(f).collect()
        };
        vec![
            [
                vec!["Order Reorganization".to_string()],
                col(&|r| check(r.order_reorganization).to_string()),
            ]
            .concat(),
            [
                vec!["Redundancy Elimination".to_string()],
                col(&|r| check(r.redundancy_elimination).to_string()),
            ]
            .concat(),
            [
                vec!["AIA Completion".to_string()],
                col(&|r| check(r.aia_completion).to_string()),
            ]
            .concat(),
            [
                vec!["Validity Priority".to_string()],
                col(&|r| r.validity_priority.label().to_string()),
            ]
            .concat(),
            [
                vec!["KID Matching Priority".to_string()],
                col(&|r| r.kid_priority.label().to_string()),
            ]
            .concat(),
            [
                vec!["KeyUsage Correctness Priority".to_string()],
                col(&|r| {
                    if r.key_usage_priority {
                        "KUP".into()
                    } else {
                        "-".into()
                    }
                }),
            ]
            .concat(),
            [
                vec!["Basic Constraints Priority".to_string()],
                col(&|r| {
                    if r.basic_constraints_priority {
                        "BP".into()
                    } else {
                        "-".into()
                    }
                }),
            ]
            .concat(),
            [
                vec!["Path Length Constraint".to_string()],
                col(&|r| r.max_path_len.label()),
            ]
            .concat(),
            [
                vec!["Self-signed Leaf Certificate".to_string()],
                col(&|r| check(r.self_signed_leaf).to_string()),
            ]
            .concat(),
        ]
    };
    for row in rows {
        table.row(&row);
    }
    println!("{}", table.render());
    println!(
        "Y = supported, x = not supported, - = no priority ordering\n\
         VP1 = first valid, VP2 = most recent then longest among valid\n\
         KP1 = match/absence over mismatch, KP2 = match over absence over mismatch\n\
         KUP/BP = correct KeyUsage / BasicConstraints preferred"
    );
}
