//! Finding renderers: human text, JSON lines, and SARIF 2.1.0.
//!
//! All three are hand-rolled (no serde) and deterministic: identical
//! finding vectors render to identical bytes, which is what makes the
//! golden snapshot tests meaningful.

use crate::diag::{Finding, Severity};
use crate::json::escape;
use crate::rules::registry;
use std::fmt::Write as _;

/// Human-readable rendering: one line per finding plus a severity recap.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = write!(out, "{}: {} [{}]", f.severity.label(), f.message, f.rule_id);
        if let Some(i) = f.cert_index {
            let _ = write!(out, " (cert #{i}");
            if let (Some(off), Some(len)) = (f.byte_offset, f.byte_length) {
                let _ = write!(out, ", bytes {off}..{})", off + len);
            } else {
                out.push(')');
            }
        }
        out.push('\n');
    }
    let mut recap = format!("{} finding(s)", findings.len());
    for severity in Severity::ALL {
        let n = findings.iter().filter(|f| f.severity == severity).count();
        let _ = write!(recap, ", {n} {}", severity.label());
    }
    let _ = writeln!(out, "{recap}");
    out
}

/// JSON-lines rendering: one self-contained object per finding.
pub fn render_jsonl(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"domain\":\"{}\",\"message\":\"{}\"",
            escape(f.rule_id),
            f.severity.label(),
            escape(&f.domain),
            escape(&f.message)
        );
        match f.cert_index {
            Some(i) => {
                let _ = write!(out, ",\"cert\":{i}");
            }
            None => out.push_str(",\"cert\":null"),
        }
        match (f.byte_offset, f.byte_length) {
            (Some(off), Some(len)) => {
                let _ = write!(out, ",\"byteOffset\":{off},\"byteLength\":{len}");
            }
            _ => out.push_str(",\"byteOffset\":null,\"byteLength\":null"),
        }
        let _ = writeln!(out, ",\"fingerprint\":\"{}\"}}", escape(&f.fingerprint));
    }
    out
}

/// SARIF 2.1.0 rendering against the lint registry.
///
/// The `tool.driver.rules` array always lists the *complete* registry (in
/// registry order), so `ruleIndex` is stable and consumers can show
/// metadata for rules that did not fire. Each result carries the queried
/// domain as the artifact (`chain://<domain>`) and, when the finding is
/// certificate-attributed, a byte region into the concatenated served DER
/// stream.
pub fn render_sarif(findings: &[Finding]) -> String {
    let rules = registry();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    let _ = writeln!(
        out,
        "          \"name\": \"ccc-lint\",\n          \"version\": \"{}\",\n          \"informationUri\": \"https://example.invalid/chain-chaos\",\n          \"rules\": [",
        env!("CARGO_PKG_VERSION")
    );
    for (i, rule) in rules.iter().enumerate() {
        let comma = if i + 1 < rules.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"defaultConfiguration\": {{\"level\": \"{}\"}}, \"properties\": {{\"citation\": \"{}\", \"scope\": \"{}\"}}}}{comma}",
            escape(rule.id),
            escape(rule.description),
            rule.severity().sarif_level(),
            escape(rule.citation),
            rule.scope.label()
        );
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = rules.iter().position(|r| r.id == f.rule_id).unwrap_or(0);
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let mut location = format!(
            "{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"chain://{}\"}}",
            escape(&f.domain)
        );
        if let (Some(off), Some(len)) = (f.byte_offset, f.byte_length) {
            let _ = write!(
                location,
                ", \"region\": {{\"byteOffset\": {off}, \"byteLength\": {len}}}"
            );
        }
        location.push_str("}}");
        let _ = writeln!(
            out,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {rule_index}, \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \"partialFingerprints\": {{\"cccFinding/v1\": \"{}\"}}, \"locations\": [{location}]}}{comma}",
            escape(f.rule_id),
            f.severity.sarif_level(),
            escape(&f.message),
            escape(&f.fingerprint)
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule_id: "e_chain_reversed_order",
                severity: Severity::Error,
                domain: "d.sim".to_string(),
                message: "1 of 1 path(s) reversed".to_string(),
                cert_index: None,
                byte_offset: None,
                byte_length: None,
                fingerprint: "00aa".to_string(),
            },
            Finding {
                rule_id: "w_root_included",
                severity: Severity::Warn,
                domain: "d.sim".to_string(),
                message: "self-signed \"root\" served".to_string(),
                cert_index: Some(2),
                byte_offset: Some(1024),
                byte_length: Some(512),
                fingerprint: "00bb".to_string(),
            },
        ]
    }

    #[test]
    fn text_lines_and_recap() {
        let text = render_text(&sample());
        assert!(text.contains("error: 1 of 1 path(s) reversed [e_chain_reversed_order]"));
        assert!(text.contains("(cert #2, bytes 1024..1536)"));
        assert!(text.ends_with("2 finding(s), 1 error, 1 warn, 0 info, 0 notice\n"));
    }

    #[test]
    fn jsonl_each_line_parses() {
        let text = render_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("rule").and_then(Value::as_str),
            Some("e_chain_reversed_order")
        );
        assert_eq!(first.get("cert"), Some(&Value::Null));
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("cert").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            second.get("byteLength").and_then(Value::as_f64),
            Some(512.0)
        );
        // The embedded quotes survived escaping.
        assert_eq!(
            second.get("message").and_then(Value::as_str),
            Some("self-signed \"root\" served")
        );
    }

    #[test]
    fn sarif_shape_is_valid() {
        let doc = json::parse(&render_sarif(&sample())).unwrap();
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(driver.get("name").and_then(Value::as_str), Some("ccc-lint"));
        let rules = driver.get("rules").and_then(Value::as_array).unwrap();
        assert_eq!(rules.len(), registry().len());
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        // ruleIndex points back into the rules table.
        for result in results {
            let idx = result.get("ruleIndex").and_then(Value::as_f64).unwrap() as usize;
            let id = result.get("ruleId").and_then(Value::as_str).unwrap();
            assert_eq!(rules[idx].get("id").and_then(Value::as_str), Some(id));
        }
        // The cert-attributed result carries a byte region.
        let region = results[1]
            .get("locations")
            .and_then(Value::as_array)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .unwrap();
        assert_eq!(
            region.get("byteOffset").and_then(Value::as_f64),
            Some(1024.0)
        );
    }

    #[test]
    fn empty_findings_still_render() {
        assert_eq!(render_jsonl(&[]), "");
        assert!(render_text(&[]).starts_with("0 finding(s)"));
        let doc = json::parse(&render_sarif(&[])).unwrap();
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert!(results.is_empty());
    }
}
