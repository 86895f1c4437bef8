//! Tiny-`n` self-test: every workload, at the default seed and one other,
//! untraced and traced, must print every metric BENCHMARK.json names with
//! its unit, and fail nothing.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`
//! (debug builds of the signature arithmetic are slow).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ccc-e2ebench");
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric object in `section` of BENCHMARK.json.
fn metrics_in(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
        .collect()
}

fn string_field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = rest[open..].find('"').expect("closed string") + open;
    rest[open..close].to_string()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn check_workload(workload: &str) {
    for seed in ["833", "7"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "0",
                "--trace",
                trace,
                "--domains",
                "300",
            ];
            let (ok, stdout) = run(&args);
            assert!(ok, "{args:?} failed:\n{stdout}");
            let lines: Vec<&str> = stdout.lines().collect();
            let result = lines.last().expect("a result line");
            let report = lines[lines.len() - 2];
            let context = format!("{args:?}\n{report}\n{result}");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{context}"
            );
            assert!(result.contains("\"failed\": 0, "), "{context}");
            assert!(report.contains("\"failed_frac\": 0, "), "{context}");
            let expected = metrics_in(section);
            assert_eq!(
                result.matches("\"value\": ").count(),
                expected.len(),
                "{context}"
            );
            for (name, unit) in expected {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&prefix)
                    .unwrap_or_else(|| panic!("{name} missing\n{context}"));
                let object = &result[at + prefix.len()..];
                let object = &object[..object.find('}').expect("metric object ends")];
                let (value, unit_field) = object.split_once(", ").expect("value, unit");
                let value: f64 = value
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}: {e}\n{context}"));
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{name} = {value}\n{context}"
                );
                assert_eq!(
                    unit_field,
                    format!("\"unit\": \"{unit}\""),
                    "{name}\n{context}"
                );
            }
        }
    }
}

#[test]
fn scan_emits_every_metric_and_fails_nothing() {
    check_workload("scan");
}

#[test]
fn chaos_emits_every_metric_and_fails_nothing() {
    check_workload("chaos");
}

#[test]
fn ingest_emits_every_metric_and_fails_nothing() {
    check_workload("ingest");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds"],
        &["--trace", "2"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
