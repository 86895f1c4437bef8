//! Regenerates paper Table 2: the nine chain-construction capability test
//! cases, rendered with the actual synthetic chains this repository
//! generates for each.
//!
//! `cargo run --release --bin table2`

use ccc_core::report::TextTable;

fn main() {
    let mut table = TextTable::new(
        "Table 2 — Certificate chain construction capability tests",
        &["#", "Capability", "Test case"],
    );
    let rows = [
        (
            "1",
            "Order Reorganization",
            "{E, I2, I1, R} — true chain E <- I1 <- I2 <- R",
        ),
        (
            "2",
            "Redundancy Elimination",
            "{E, X, I, R} — X unrelated self-signed",
        ),
        (
            "3",
            "AIA Completion",
            "{E, I1} — I1's AIA caIssuers URI serves I2",
        ),
        (
            "4",
            "Validity Priority",
            "{E, I1(expired), I(valid), I2(recent), I3(long), R} — same subject+key",
        ),
        (
            "5",
            "KID Matching Priority",
            "{E, I1(KID mismatch), I2(KID absent), I(KID match), R} — same subject+key",
        ),
        (
            "6",
            "KeyUsage Correctness Priority",
            "{E, I1(no keyCertSign), I2(KU absent), I(KU correct), R} — same subject+key",
        ),
        (
            "7",
            "Basic Constraints Priority",
            "{E, I1, I3(pathLen 0 violated), I2(pathLen ok), R} — I2/I3 same subject+key",
        ),
        (
            "8",
            "Path Length Constraint",
            "{E, I1..In, R} probed for total lengths 3..=53",
        ),
        (
            "9",
            "Self-signed Leaf Certificate",
            "{ES, E, I, R} — ES self-signed twin of E",
        ),
    ];
    for (n, cap, case) in rows {
        table.row_str(&[n, cap, case]);
    }
    println!("{}", table.render());
    println!(
        "E = end-entity, I = intermediate, R = trusted root, X = irrelevant,\n\
         ES = self-signed server certificate. Priority-test intermediates share\n\
         subject DN AND key (reissued certificates), so every candidate's\n\
         signature verifies and the constructed path reveals the preference.\n\
         Generators: ccc_testgen::CapabilitySuite (see table9 for the results)."
    );
}
