//! Golden snapshot tests for the JSONL and SARIF renderers.
//!
//! The linted chain is fully synthetic and seed-deterministic, so the
//! rendered bytes are stable across machines and thread counts. To
//! regenerate after an intentional renderer/rule change:
//!
//! ```text
//! CCC_BLESS=1 cargo test -p ccc-lint --test snapshots
//! ```

use ccc_core::IssuanceChecker;
use ccc_lint::json::{self, Value};
use ccc_lint::{registry, render, LintEngine, Severity};
use ccc_netsim::AiaRepository;
use ccc_rootstore::{CaUniverse, RootPrograms};
use ccc_testgen::corpus::scan_time;
use ccc_x509::Certificate;
use std::path::PathBuf;

/// The fixed chain: leaf under root 0's first intermediate, served as
/// `[leaf, root, intermediate]` — reversed tail plus an included root, so
/// both Error- and Warn-severity rules fire.
fn fixture_chain() -> (String, Vec<Certificate>, CaUniverse) {
    let universe = CaUniverse::default_with_seed(42);
    let int = &universe.roots[0].intermediates[0];
    let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"lint-golden");
    let leaf = ccc_x509::CertificateBuilder::leaf_profile("golden.sim")
        .aia_ca_issuers(int.aia_uri.clone())
        .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
    let served = vec![leaf, universe.roots[0].cert.clone(), int.cert.clone()];
    ("golden.sim".to_string(), served, universe)
}

fn lint_fixture() -> Vec<ccc_lint::Finding> {
    let (domain, served, universe) = fixture_chain();
    let programs = RootPrograms::from_universe(&universe);
    let aia = AiaRepository::new(universe.aia_publications());
    let checker = IssuanceChecker::new();
    let engine = LintEngine::new(&checker, programs.unified(), Some(&aia), scan_time());
    engine.lint_chain(&domain, &served)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("CCC_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has parent"))
            .expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with CCC_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "{name} drifted from its golden snapshot; if intentional, re-bless with CCC_BLESS=1"
    );
}

#[test]
fn fixture_chain_fires_expected_rules() {
    let findings = lint_fixture();
    let ids: Vec<&str> = findings.iter().map(|f| f.rule_id).collect();
    assert!(ids.contains(&"e_chain_reversed_order"), "{ids:?}");
    assert!(ids.contains(&"w_root_included"), "{ids:?}");
    assert!(findings.iter().any(|f| f.severity == Severity::Error));
}

#[test]
fn jsonl_snapshot_is_stable() {
    check_golden("chain.jsonl", &render::render_jsonl(&lint_fixture()));
}

#[test]
fn sarif_snapshot_is_stable() {
    check_golden("chain.sarif.json", &render::render_sarif(&lint_fixture()));
}

#[test]
fn text_snapshot_is_stable() {
    check_golden("chain.txt", &render::render_text(&lint_fixture()));
}

/// Programmatic SARIF 2.1.0 shape validation, independent of the golden
/// bytes: required top-level fields, rules metadata for the whole
/// registry, results referencing valid ruleIndex values and severities.
#[test]
fn sarif_output_validates_structurally() {
    let sarif = render::render_sarif(&lint_fixture());
    let doc = json::parse(&sarif).expect("SARIF output is valid JSON");

    assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
    assert!(doc
        .get("$schema")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("sarif-2.1.0")));

    let runs = doc.get("runs").and_then(Value::as_array).expect("runs[]");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(Value::as_str), Some("ccc-lint"));

    let rules = driver
        .get("rules")
        .and_then(Value::as_array)
        .expect("rules[]");
    assert_eq!(rules.len(), registry().len());
    for (rule_meta, rule) in rules.iter().zip(registry()) {
        assert_eq!(rule_meta.get("id").and_then(Value::as_str), Some(rule.id));
        assert!(rule_meta
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Value::as_str)
            .is_some_and(|t| !t.is_empty()));
        let level = rule_meta
            .get("defaultConfiguration")
            .and_then(|c| c.get("level"))
            .and_then(Value::as_str)
            .expect("defaultConfiguration.level");
        assert!(matches!(level, "error" | "warning" | "note"), "{level}");
    }

    let results = runs[0]
        .get("results")
        .and_then(Value::as_array)
        .expect("results[]");
    assert!(!results.is_empty());
    for result in results {
        let rule_id = result
            .get("ruleId")
            .and_then(Value::as_str)
            .expect("ruleId");
        let idx = result
            .get("ruleIndex")
            .and_then(Value::as_f64)
            .expect("ruleIndex") as usize;
        assert_eq!(rules[idx].get("id").and_then(Value::as_str), Some(rule_id));
        assert!(result
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .is_some());
        let locations = result
            .get("locations")
            .and_then(Value::as_array)
            .expect("locations[]");
        let uri = locations[0]
            .get("physicalLocation")
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str)
            .expect("artifact uri");
        assert!(uri.starts_with("chain://"), "{uri}");
    }
}

/// Each JSONL line is a standalone JSON object with the full field set.
#[test]
fn jsonl_output_validates_structurally() {
    let findings = lint_fixture();
    let text = render::render_jsonl(&findings);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), findings.len());
    for (line, finding) in lines.iter().zip(&findings) {
        let obj = json::parse(line).expect("JSONL line parses");
        assert_eq!(
            obj.get("rule").and_then(Value::as_str),
            Some(finding.rule_id)
        );
        assert_eq!(
            obj.get("severity").and_then(Value::as_str),
            Some(finding.severity.label())
        );
        assert_eq!(
            obj.get("domain").and_then(Value::as_str),
            Some("golden.sim")
        );
        assert_eq!(
            obj.get("fingerprint").and_then(Value::as_str),
            Some(finding.fingerprint.as_str())
        );
        for key in ["message", "cert", "byteOffset", "byteLength"] {
            assert!(obj.get(key).is_some(), "missing {key}");
        }
    }
}
