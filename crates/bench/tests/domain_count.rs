//! A domain count that is not a non-negative integer stops the table
//! binaries with an error naming it, whether it comes from the first
//! argument or from `CCC_DOMAINS`, instead of silently running the
//! default corpus.

use std::process::{Command, Output};

fn assert_rejected(out: Output, value: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.contains(&format!("'{value}'")), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn bad_positional_count_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_table5"))
        .arg("10k")
        .env_remove("CCC_DOMAINS")
        .output()
        .unwrap();
    assert_rejected(out, "10k");
}

#[test]
fn bad_env_count_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_table_chaos"))
        .env("CCC_DOMAINS", "5k")
        .output()
        .unwrap();
    assert_rejected(out, "5k");
}
