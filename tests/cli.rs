//! Integration tests for the `chain-chaos` CLI binary, driven through the
//! real executable with PEM files on disk.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chain-chaos"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chain-chaos-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Stdout of `chain-chaos analyze reversed-chain.pem --domain demo.example
/// --store root.pem`, run inside a directory `chain-chaos demo-pki --out`
/// wrote. Regenerate only when a change is meant to alter it:
///
/// ```text
/// chain-chaos demo-pki --out demo && cd demo
/// chain-chaos analyze reversed-chain.pem --domain demo.example --store root.pem
/// ```
const ANALYZE_REVERSED: &str = "\
reversed-chain.pem: 3 certificates
  [0] subject=CN=demo.example issuer=C=SC, O=chain-chaos demo, CN=Demo Issuing CA
      validity 2024-01-01T00:00:00Z .. 2026-01-01T00:00:00Z  fp=809c4ed59bd7
  [1] subject=C=SC, O=chain-chaos demo, CN=Demo Root CA issuer=C=SC, O=chain-chaos demo, CN=Demo Root CA (self-issued)
      validity 2020-01-01T00:00:00Z .. 2040-01-01T00:00:00Z  fp=7959f1af0de9
  [2] subject=C=SC, O=chain-chaos demo, CN=Demo Issuing CA issuer=C=SC, O=chain-chaos demo, CN=Demo Root CA
      validity 2024-01-01T00:00:00Z .. 2026-01-01T00:00:00Z  fp=65c16d79c365

topology: C0 <- C2 <- C1
issuance order: duplicates=0 irrelevant=0 paths=1 reversed=1 => NON-COMPLIANT
leaf placement for demo.example: Correctly Placed and Matched
completeness (against 1 trusted roots): Complete Chain w/ Root
";

/// Stdout of `chain-chaos matrix reversed-chain.pem --store root.pem --domain
/// demo.example`, run inside the demo directory: every client accepts (the
/// forward scan reaches the root through the store), and the shared
/// checker verifies four pairs for all eight.
const MATRIX_REVERSED: &str = "\
== Client verdicts ==
Client          Verdict   Constructed path
-------------------------------------------------------------------------
OpenSSL         accepted  demo.example <- Demo Issuing CA <- Demo Root CA
GnuTLS          accepted  demo.example <- Demo Issuing CA <- Demo Root CA
MbedTLS         accepted  demo.example <- Demo Issuing CA <- Demo Root CA
CryptoAPI       accepted  demo.example <- Demo Issuing CA <- Demo Root CA
Chrome          accepted  demo.example <- Demo Issuing CA <- Demo Root CA
Microsoft Edge  accepted  demo.example <- Demo Issuing CA <- Demo Root CA
Safari          accepted  demo.example <- Demo Issuing CA <- Demo Root CA
Firefox         accepted  demo.example <- Demo Issuing CA <- Demo Root CA

signature cache: 28 lookups, 24 hits (85.7%), 4 verified, 24 verifications saved
";

/// Stdout of `chain-chaos matrix lonely-leaf.pem --store root.pem`: the
/// intermediate is neither served, cached nor fetchable, so every client
/// stops at the leaf without asking the checker anything.
const MATRIX_LONELY_LEAF: &str = "\
== Client verdicts ==
Client          Verdict                                     Constructed path
----------------------------------------------------------------------------
OpenSSL         REJECTED: no issuer found (unknown issuer)  demo.example
GnuTLS          REJECTED: no issuer found (unknown issuer)  demo.example
MbedTLS         REJECTED: no issuer found (unknown issuer)  demo.example
CryptoAPI       REJECTED: no issuer found (unknown issuer)  demo.example
Chrome          REJECTED: no issuer found (unknown issuer)  demo.example
Microsoft Edge  REJECTED: no issuer found (unknown issuer)  demo.example
Safari          REJECTED: no issuer found (unknown issuer)  demo.example
Firefox         REJECTED: no issuer found (unknown issuer)  demo.example

signature cache: 0 lookups, 0 hits (0.0%), 0 verified, 0 verifications saved
";

/// Stdout of `chain-chaos matrix fullchain.pem --store root.pem --domain
/// other.example`: every client builds the chain, then rejects the name.
const MATRIX_OTHER_DOMAIN: &str = "\
== Client verdicts ==
Client          Verdict                      Constructed path
--------------------------------------------------------------------------------------------
OpenSSL         REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
GnuTLS          REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
MbedTLS         REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
CryptoAPI       REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
Chrome          REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
Microsoft Edge  REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
Safari          REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA
Firefox         REJECTED: hostname mismatch  demo.example <- Demo Issuing CA <- Demo Root CA

signature cache: 27 lookups, 24 hits (88.9%), 3 verified, 24 verifications saved
";

#[test]
fn no_args_prints_usage_and_fails() {
    let output = bin().output().expect("run");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("commands:"), "{err}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [
        &["--help"][..],
        &["demo-pki", "--help"],
        &["analyze", "--help"],
        &["build", "--help"],
        &["matrix", "--help"],
        &["lint", "--help"],
        &["chaos", "--help"],
        &["metrics", "--help"],
    ] {
        let output = bin().args(args).output().expect("run");
        let out = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{args:?} exited {:?}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(out.contains("commands:"), "{args:?}: {out}");
        assert!(output.stderr.is_empty(), "{args:?} wrote to stderr");
    }
}

#[test]
fn demo_pki_analyze_and_matrix_roundtrip() {
    let dir = tempdir("roundtrip");
    let out = dir.to_str().unwrap();

    // Generate the demo PKI.
    let output = bin()
        .args(["demo-pki", "--out", out])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for file in [
        "root.pem",
        "intermediate.pem",
        "leaf.pem",
        "fullchain.pem",
        "reversed-chain.pem",
    ] {
        assert!(dir.join(file).exists(), "{file} missing");
    }

    // Analyze the reversed chain from inside the demo directory, so the
    // printed path is relative and the whole stdout is pinned.
    let output = bin()
        .current_dir(&dir)
        .args([
            "analyze",
            "reversed-chain.pem",
            "--domain",
            "demo.example",
            "--store",
            "root.pem",
        ])
        .output()
        .expect("run");
    assert!(output.status.success());
    assert_eq!(String::from_utf8_lossy(&output.stdout), ANALYZE_REVERSED);
    // Matrix: the whole stdout of each case, the same on every run (the
    // wall-clock phase split goes to stderr).
    for (args, expected) in [
        (
            &["reversed-chain.pem", "--domain", "demo.example"][..],
            MATRIX_REVERSED,
        ),
        (&["lonely-leaf.pem"], MATRIX_LONELY_LEAF),
        (
            &["fullchain.pem", "--domain", "other.example"],
            MATRIX_OTHER_DOMAIN,
        ),
    ] {
        let output = bin()
            .current_dir(&dir)
            .arg("matrix")
            .args(args)
            .args(["--store", "root.pem"])
            .output()
            .expect("run");
        assert!(output.status.success(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            expected,
            "{args:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_detects_untrusted_and_hostname_issues() {
    let dir = tempdir("build");
    let out = dir.to_str().unwrap();
    bin()
        .args(["demo-pki", "--out", out])
        .output()
        .expect("run");
    let chain = dir.join("fullchain.pem");
    let root = dir.join("root.pem");

    // Without a store: untrusted root.
    let output = bin()
        .args(["build", chain.to_str().unwrap(), "--client", "chrome"])
        .output()
        .expect("run");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("REJECTED"), "{text}");

    // With the store: accepted.
    let output = bin()
        .args([
            "build",
            chain.to_str().unwrap(),
            "--client",
            "chrome",
            "--store",
            root.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("accepted"), "{text}");
    assert!(text.contains("demo.example <-"), "{text}");

    // Wrong domain: hostname mismatch.
    let output = bin()
        .args([
            "build",
            chain.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--domain",
            "other.example",
        ])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("hostname mismatch"), "{text}");

    // Expired clock: rejected.
    let output = bin()
        .args([
            "build",
            chain.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--time",
            "2039-01-01",
        ])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("expired"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_reports_findings_and_respects_baselines() {
    let dir = tempdir("lint");
    let out = dir.to_str().unwrap();
    bin()
        .args(["demo-pki", "--out", out])
        .output()
        .expect("run");
    let reversed = dir.join("reversed-chain.pem");
    let root = dir.join("root.pem");

    // Reversed chain: error finding, non-zero exit.
    let output = bin()
        .args([
            "lint",
            reversed.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(!output.status.success(), "reversed chain must fail lint");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("e_chain_reversed_order"), "{text}");
    assert!(text.contains("w_root_included"), "{text}");

    // SARIF output parses as the expected envelope.
    let output = bin()
        .args([
            "lint",
            reversed.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--format",
            "sarif",
        ])
        .output()
        .expect("run");
    let sarif = String::from_utf8_lossy(&output.stdout);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"ccc-lint\""), "{sarif}");
    assert!(sarif.contains("e_chain_reversed_order"), "{sarif}");

    // Baseline round-trip: the baseline records the error finding only,
    // so a re-lint passes and still reports the warning.
    let baseline = dir.join("baseline.json");
    let output = bin()
        .args([
            "lint",
            reversed.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--write-baseline",
            baseline.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(output.status.success());
    let output = bin()
        .args([
            "lint",
            reversed.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "baselined lint must pass: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains(", 0 error,"), "{text}");
    assert!(text.contains("w_root_included"), "{text}");

    // Clean chain passes without a baseline (no errors; info findings ok).
    let full = dir.join("fullchain.pem");
    let output = bin()
        .args([
            "lint",
            full.to_str().unwrap(),
            "--store",
            root.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("run");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains("\"severity\":\"error\""), "{line}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_produce_clean_errors() {
    let output = bin()
        .args(["analyze", "/nonexistent/file.pem"])
        .output()
        .expect("run");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("cannot read"), "{err}");

    let dir = tempdir("bad");
    let junk = dir.join("junk.pem");
    std::fs::write(&junk, "this is not pem").unwrap();
    let output = bin()
        .args(["analyze", junk.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!output.status.success());

    let output = bin()
        .args(["build", junk.to_str().unwrap(), "--client", "netscape"])
        .output()
        .expect("run");
    assert!(!output.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_chaos_domain_count_is_rejected() {
    // The CLI reads `--domains` through the same parser as `table_chaos`:
    // a count that is not a non-negative integer is an error naming it,
    // not a sweep of some other size.
    let output = bin()
        .args(["chaos", "--domains", "5k"])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "exit {:?}: {err}", output.status);
    assert!(err.contains("'5k'"), "{err}");
    assert!(output.stdout.is_empty());
}

#[test]
fn options_a_command_does_not_read_are_rejected() {
    // Each case is refused before any work runs: nothing on stdout, and
    // the lint case's chain file need not exist.
    for (args, named) in [
        (&["chaos", "--domain", "300"][..], "--domain"),
        (&["lint", "missing.pem", "--fromat", "json"][..], "--fromat"),
        (
            &["analyze", "missing.pem", "--time", "2024-01-01"][..],
            "--time",
        ),
        (
            &["chaos", "--domains", "10", "--domains", "20"][..],
            "--domains",
        ),
        (
            &["chaos", "--metrics", "-", "--metrics", "-"][..],
            "--metrics",
        ),
    ] {
        let output = bin().args(args).output().expect("run");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "{args:?} exited {:?}",
            output.status
        );
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(!err.contains("cannot read"), "{args:?} did work: {err}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
    // `--metrics` is accepted by every command.
    let output = bin()
        .args(["chaos", "--domains", "0", "--metrics", "-"])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
