//! Finding baselines: suppress known findings so CI fails only on *new*
//! ones.
//!
//! A baseline is a set of `(rule-id, fingerprint)` pairs. Fingerprints are
//! content-derived (see [`Finding`]), so a baseline survives re-ordering,
//! corpus re-generation with the same seed, and renderer changes — it
//! breaks only when the underlying observation changes.

use crate::diag::Finding;
use crate::json::{self, Value};
use std::collections::BTreeSet;

/// Current on-disk format version.
const VERSION: f64 = 1.0;

/// A set of suppressed `(rule-id, fingerprint)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    suppressions: BTreeSet<(String, String)>,
}

impl Baseline {
    /// An empty baseline (suppresses nothing).
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Baseline covering every finding in `findings`.
    pub fn from_findings<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> Baseline {
        let suppressions = findings
            .into_iter()
            .map(|f| (f.rule_id.to_string(), f.fingerprint.clone()))
            .collect();
        Baseline { suppressions }
    }

    /// Parse the JSON baseline format:
    ///
    /// ```json
    /// {"version":1,"suppressions":[{"rule":"e_x","fingerprint":"ab..."}]}
    /// ```
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("version")
            .and_then(Value::as_f64)
            .ok_or("baseline: missing 'version'")?;
        if version != VERSION {
            return Err(format!("baseline: unsupported version {version}"));
        }
        let items = doc
            .get("suppressions")
            .and_then(Value::as_array)
            .ok_or("baseline: missing 'suppressions' array")?;
        let mut suppressions = BTreeSet::new();
        for (i, item) in items.iter().enumerate() {
            let rule = item
                .get("rule")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("baseline: suppression #{i} missing 'rule'"))?;
            let fingerprint = item
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("baseline: suppression #{i} missing 'fingerprint'"))?;
            suppressions.insert((rule.to_string(), fingerprint.to_string()));
        }
        Ok(Baseline { suppressions })
    }

    /// Serialize deterministically (sorted by rule, then fingerprint) with
    /// one suppression per line, so baselines diff cleanly in review.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"suppressions\": [");
        for (i, (rule, fingerprint)) in self.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"fingerprint\": \"{}\"}}",
                json::escape(rule),
                json::escape(fingerprint)
            ));
        }
        if !self.suppressions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Is this finding suppressed?
    pub fn is_suppressed(&self, finding: &Finding) -> bool {
        self.suppressions
            .contains(&(finding.rule_id.to_string(), finding.fingerprint.clone()))
    }

    /// Drop suppressed findings, keeping order.
    pub fn filter(&self, findings: Vec<Finding>) -> Vec<Finding> {
        if self.suppressions.is_empty() {
            return findings;
        }
        findings
            .into_iter()
            .filter(|f| !self.is_suppressed(f))
            .collect()
    }

    /// Number of suppressions.
    pub fn len(&self) -> usize {
        self.suppressions.len()
    }

    /// True when nothing is suppressed.
    pub fn is_empty(&self) -> bool {
        self.suppressions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn finding(rule_id: &'static str, fingerprint: &str) -> Finding {
        Finding {
            rule_id,
            severity: Severity::Error,
            domain: "d.sim".to_string(),
            message: "m".to_string(),
            cert_index: None,
            byte_offset: None,
            byte_length: None,
            fingerprint: fingerprint.to_string(),
        }
    }

    #[test]
    fn round_trip_and_filtering() {
        let a = finding("e_chain_incomplete", "00aa");
        let b = finding("e_chain_incomplete", "00bb");
        let c = finding("e_kid_mismatch", "00aa");
        let baseline = Baseline::from_findings([&a, &c]);
        assert_eq!(baseline.len(), 2);
        assert!(baseline.is_suppressed(&a));
        assert!(!baseline.is_suppressed(&b));
        assert!(baseline.is_suppressed(&c));

        let text = baseline.to_json();
        let reparsed = Baseline::parse(&text).unwrap();
        assert_eq!(baseline, reparsed);

        let kept = baseline.filter(vec![a, b.clone(), c]);
        assert_eq!(kept, vec![b]);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let baseline = Baseline::empty();
        assert!(baseline.is_empty());
        let reparsed = Baseline::parse(&baseline.to_json()).unwrap();
        assert!(reparsed.is_empty());
    }

    #[test]
    fn version_must_be_exactly_one() {
        for version in ["1.5", "1.9999", "2", "0"] {
            let text = format!(r#"{{"version":{version},"suppressions":[]}}"#);
            assert_eq!(
                Baseline::parse(&text),
                Err(format!("baseline: unsupported version {version}")),
                "{text}"
            );
        }
        for version in ["1", "1.0"] {
            let text = format!(r#"{{"version":{version},"suppressions":[]}}"#);
            assert_eq!(Baseline::parse(&text), Ok(Baseline::empty()), "{text}");
        }
    }

    #[test]
    fn rejects_bad_versions_and_shapes() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(r#"{"version":2,"suppressions":[]}"#).is_err());
        assert!(Baseline::parse(r#"{"version":1}"#).is_err());
        assert!(Baseline::parse(r#"{"version":1,"suppressions":[{"rule":"e_x"}]}"#).is_err());
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn serialization_is_sorted_and_line_per_entry() {
        let b = finding("w_b", "02");
        let a = finding("e_a", "01");
        let baseline = Baseline::from_findings([&b, &a]);
        let text = baseline.to_json();
        let first = text.find("e_a").unwrap();
        let second = text.find("w_b").unwrap();
        assert!(first < second, "{text}");
        assert_eq!(text.matches("\n    {").count(), 2);
    }
}
