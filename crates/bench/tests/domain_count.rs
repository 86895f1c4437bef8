//! A domain count that is not a non-negative integer stops the table
//! binaries with an error naming it, instead of silently running the
//! default corpus. `tables` reads it through `domains_from_args`, and
//! `table_chaos` through its own argument parser. A `CCC_THREADS` value
//! that is not a worker count stops them the same way, instead of
//! silently running on every core.

use std::process::{Command, Output};

fn assert_rejected(out: Output, value: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.contains(&format!("'{value}'")), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn bad_positional_count_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("10k")
        .output()
        .unwrap();
    assert_rejected(out, "10k");
}

#[test]
fn bad_chaos_count_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_table_chaos"))
        .arg("5k")
        .output()
        .unwrap();
    assert_rejected(out, "5k");
}

#[test]
fn bad_thread_count_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("10")
        .env("CCC_THREADS", "nope")
        .output()
        .unwrap();
    assert_rejected(out, "nope");
}
