//! Regenerates paper Table 9: the client capability matrix, by running the
//! nine Table 2 test chains against all eight client profiles.
//!
//! `cargo run --release --bin table9`

use ccc_core::clients::ClientKind;
use ccc_core::report::{check, TextTable};
use ccc_testgen::{CapabilityRow, CapabilitySuite};

fn main() {
    let suite = CapabilitySuite::new(1);
    let rows: Vec<(ClientKind, CapabilityRow)> = ClientKind::ALL
        .iter()
        .map(|&k| {
            eprintln!("evaluating {}…", k.name());
            (k, suite.evaluate(&k.engine()))
        })
        .collect();

    let mut header = vec!["Type"];
    header.extend(ClientKind::ALL.iter().map(|k| k.name()));
    let mut table = TextTable::new("Table 9 — Capabilities of TLS implementations", &header);

    let push = |table: &mut TextTable, label: &str, f: &dyn Fn(&CapabilityRow) -> String| {
        let mut row = vec![label.to_string()];
        row.extend(rows.iter().map(|(_, r)| f(r)));
        table.row(&row);
    };
    push(&mut table, "Order Reorganization", &|r| {
        check(r.order_reorganization).into()
    });
    push(&mut table, "Redundancy Elimination", &|r| {
        check(r.redundancy_elimination).into()
    });
    push(&mut table, "AIA Completion", &|r| {
        check(r.aia_completion).into()
    });
    push(&mut table, "Validity Priority", &|r| {
        r.validity_priority.label().into()
    });
    push(&mut table, "KID Matching Priority", &|r| {
        r.kid_priority.label().into()
    });
    push(&mut table, "KeyUsage Correctness Priority", &|r| {
        if r.key_usage_priority {
            "KUP".into()
        } else {
            "-".into()
        }
    });
    push(&mut table, "Basic Constraints Priority", &|r| {
        if r.basic_constraints_priority {
            "BP".into()
        } else {
            "-".into()
        }
    });
    push(&mut table, "Path Length Constraint", &|r| {
        r.max_path_len.label()
    });
    push(&mut table, "Self-signed Leaf Certificate", &|r| {
        check(r.self_signed_leaf).into()
    });

    println!("{}", table.render());
    println!(
        "paper Table 9 values: reorganization x only for MbedTLS; AIA only CryptoAPI +\n\
         Chrome/Edge/Safari; VP1 OpenSSL/MbedTLS/Firefox, VP2 CryptoAPI + browsers;\n\
         KP1 OpenSSL/GnuTLS/Safari, KP2 CryptoAPI/Chrome/Edge; limits >52/=16/=10/=13/\n\
         >52/=21/>52/=8; self-signed leaf allowed only by MbedTLS and Safari."
    );
}
