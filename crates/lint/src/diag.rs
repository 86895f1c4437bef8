//! Diagnostic primitives: severity ladder, findings, and the per-chain
//! evaluation context handed to every rule.

use crate::rules::Rule;
use ccc_asn1::{Parser, Tag, Time};
use ccc_core::{ComplianceReport, IssuanceChecker, TopologyGraph};
use ccc_x509::Certificate;
use std::fmt;

/// Severity ladder, ordered from least to most severe so
/// `severity >= Severity::Warn` filters read naturally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational observation worth surfacing (SARIF `note`).
    Notice,
    /// Non-actionable context (SARIF `note`).
    Info,
    /// Violates a SHOULD or best practice (SARIF `warning`).
    Warn,
    /// Violates a MUST; the chain is non-compliant (SARIF `error`).
    Error,
}

impl Severity {
    /// All severities, most severe first (table order).
    pub const ALL: [Severity; 4] = [
        Severity::Error,
        Severity::Warn,
        Severity::Info,
        Severity::Notice,
    ];

    /// Human label, matches the rule-ID prefix convention
    /// (`e_`/`w_`/`i_`/`n_`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
            Severity::Notice => "notice",
        }
    }

    /// SARIF 2.1.0 `level` value.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Info | Severity::Notice => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured diagnostic emitted by a rule.
///
/// Equality is structural; corpus lint summaries compare whole finding
/// vectors to assert bit-identical results across thread counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Stable rule ID (`e_chain_reversed_order`, …).
    pub rule_id: &'static str,
    /// Severity copied from the rule (denormalized for renderers).
    pub severity: Severity,
    /// The queried domain the chain was served for (the lint "artifact").
    pub domain: String,
    /// Human-readable explanation, deterministic for a given chain.
    pub message: String,
    /// Index of the offending certificate in the served list, when the
    /// finding is attributable to one certificate.
    pub cert_index: Option<usize>,
    /// Byte offset of the relevant DER region within the *concatenated*
    /// served-chain DER stream, when available.
    pub byte_offset: Option<usize>,
    /// Length in bytes of that region.
    pub byte_length: Option<usize>,
    /// Stable content fingerprint: `sha256(rule ‖ domain ‖ site)[..16]`
    /// hex. Baselines suppress by `(rule_id, fingerprint)`.
    pub fingerprint: String,
}

impl Finding {
    /// Stable content fingerprint shared by chain rules and the
    /// concurrency bridge (`crate::concurrency`).
    pub(crate) fn fingerprint_for(rule_id: &str, domain: &str, site: &str) -> String {
        let mut material = Vec::with_capacity(rule_id.len() + domain.len() + site.len() + 2);
        material.extend_from_slice(rule_id.as_bytes());
        material.push(0);
        material.extend_from_slice(domain.as_bytes());
        material.push(0);
        material.extend_from_slice(site.as_bytes());
        let digest = ccc_crypto::sha256(&material);
        digest[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [{}]", self.severity, self.message, self.rule_id)?;
        if let Some(i) = self.cert_index {
            write!(f, " (cert #{i})")?;
        }
        Ok(())
    }
}

/// Everything a rule may inspect about one (domain, served list)
/// observation. Built once per chain by the
/// [`LintEngine`](crate::LintEngine); rules are pure functions of this
/// context, which is what makes corpus linting embarrassingly parallel
/// and thread-count-invariant.
#[derive(Debug)]
pub struct ChainContext<'a> {
    /// The queried domain.
    pub domain: &'a str,
    /// The served certificate list, in wire order.
    pub served: &'a [Certificate],
    /// Issuance topology over `served` (duplicates collapsed).
    pub graph: &'a TopologyGraph,
    /// The aggregate compliance verdict for the same observation — chain
    /// rules read this directly, which is what guarantees the
    /// "non-compliant ⇔ ≥1 error finding" equivalence by construction.
    pub report: &'a ComplianceReport,
    /// The simulated scan instant (never the ambient clock).
    pub now: Time,
    /// The shared signature cache. Rules that need signature facts (e.g.
    /// the self-signed-root check) route through this instead of
    /// re-running Schnorr verification per chain — under the fused
    /// pipeline the same `(cert, cert)` pair is already memoized by the
    /// compliance analysis.
    pub checker: &'a IssuanceChecker,
    /// `der_offsets[i]` is the byte offset of `served[i]` within the
    /// concatenated served DER stream; one extra trailing entry holds the
    /// total length.
    pub der_offsets: Vec<usize>,
}

impl<'a> ChainContext<'a> {
    /// Assemble a context (computes the concatenated-DER offsets).
    pub fn new(
        domain: &'a str,
        served: &'a [Certificate],
        graph: &'a TopologyGraph,
        report: &'a ComplianceReport,
        now: Time,
        checker: &'a IssuanceChecker,
    ) -> ChainContext<'a> {
        let mut der_offsets = Vec::with_capacity(served.len() + 1);
        let mut offset = 0usize;
        for cert in served {
            der_offsets.push(offset);
            offset += cert.to_der().len();
        }
        der_offsets.push(offset);
        ChainContext {
            domain,
            served,
            graph,
            report,
            now,
            checker,
            der_offsets,
        }
    }

    /// Chain-level finding (no specific certificate).
    pub fn finding(&self, rule: &Rule, message: impl Into<String>) -> Finding {
        Finding {
            rule_id: rule.id,
            severity: rule.severity(),
            domain: self.domain.to_string(),
            message: message.into(),
            cert_index: None,
            byte_offset: None,
            byte_length: None,
            fingerprint: Finding::fingerprint_for(rule.id, self.domain, "chain"),
        }
    }

    /// Finding attributed to `served[index]`, with byte-range provenance
    /// covering that certificate in the concatenated DER stream.
    pub fn finding_at(&self, rule: &Rule, index: usize, message: impl Into<String>) -> Finding {
        let site = format!("cert:{index}:{}", self.served[index].fingerprint());
        Finding {
            rule_id: rule.id,
            severity: rule.severity(),
            domain: self.domain.to_string(),
            message: message.into(),
            cert_index: Some(index),
            byte_offset: Some(self.der_offsets[index]),
            byte_length: Some(self.der_offsets[index + 1] - self.der_offsets[index]),
            fingerprint: Finding::fingerprint_for(rule.id, self.domain, &site),
        }
    }

    /// Like [`finding_at`](Self::finding_at), but narrowed to the byte
    /// range of the certificate's `Validity` SEQUENCE when it can be
    /// located inside the DER (it always can for well-formed input; the
    /// fallback is the whole certificate).
    pub fn finding_at_validity(
        &self,
        rule: &Rule,
        index: usize,
        message: impl Into<String>,
    ) -> Finding {
        let mut f = self.finding_at(rule, index, message);
        if let Some((start, len)) = validity_byte_range(&self.served[index]) {
            f.byte_offset = Some(self.der_offsets[index] + start);
            f.byte_length = Some(len);
        }
        f
    }
}

/// Locate the `Validity` SEQUENCE of a certificate inside its own DER by
/// walking its TLVs: the Certificate SEQUENCE, then the TBSCertificate
/// that opens it, then past the optional `[0]` version, the serial number,
/// the signature algorithm and the issuer. Returns `(offset, length)`, or
/// `None` when the DER does not have that shape.
pub fn validity_byte_range(cert: &Certificate) -> Option<(usize, usize)> {
    let der = cert.to_der();
    // The Certificate SEQUENCE fills the DER, so its content ends the DER.
    let (_, cert_body) = Parser::new(der).read_any().ok()?;
    let (_, tbs) = Parser::new(cert_body).read_any_raw().ok()?;
    let (_, tbs_body) = Parser::new(tbs).read_any().ok()?;
    let mut fields = Parser::new(tbs_body);
    if fields.peek_tag().ok()? == Tag::context_constructed(0) {
        fields.read_any().ok()?;
    }
    for _ in 0..3 {
        fields.read_any().ok()?;
    }
    let offset = (der.len() - cert_body.len())
        + (tbs.len() - tbs_body.len())
        + (tbs_body.len() - fields.remaining());
    let (tag, validity) = fields.read_any_raw().ok()?;
    (tag == Tag::SEQUENCE).then_some((offset, validity.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_labels() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert!(Severity::Info > Severity::Notice);
        assert_eq!(Severity::Error.sarif_level(), "error");
        assert_eq!(Severity::Warn.sarif_level(), "warning");
        assert_eq!(Severity::Notice.sarif_level(), "note");
        assert_eq!(Severity::Warn.label(), "warn");
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = Finding::fingerprint_for("e_x", "d.sim", "chain");
        let b = Finding::fingerprint_for("e_x", "d.sim", "chain");
        let c = Finding::fingerprint_for("e_y", "d.sim", "chain");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn validity_range_found_in_der() {
        let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"diag");
        let cert = ccc_x509::CertificateBuilder::leaf_profile("diag.sim").self_signed(&kp);
        let (start, len) = validity_byte_range(&cert).expect("validity present");
        let der = cert.to_der();
        assert!(start + len <= der.len());
        // The region is a SEQUENCE (0x30).
        assert_eq!(der[start], 0x30);
    }

    /// `cert` with its Validity rewritten as GeneralizedTime, which DER
    /// reserves for years outside 1950–2049 but the decoder accepts for
    /// any year; the signature is copied, not remade.
    fn with_generalized_validity(cert: &Certificate) -> Certificate {
        let generalized = |t: Time| {
            let d = t.to_datetime();
            format!(
                "{:04}{:02}{:02}{:02}{:02}{:02}Z",
                d.year, d.month, d.day, d.hour, d.minute, d.second
            )
        };
        let (_, body) = Parser::new(cert.to_der()).read_any().unwrap();
        let mut body = Parser::new(body);
        let (_, tbs) = body.read_any_raw().unwrap();
        let (_, tbs) = Parser::new(tbs).read_any().unwrap();
        let mut fields = Parser::new(tbs);
        let mut enc = ccc_asn1::Encoder::new();
        enc.sequence(|c| {
            c.sequence(|t| {
                // Version, serial, signature algorithm and issuer come
                // before the Validity.
                let mut index = 0;
                while !fields.is_done() {
                    let (_, field) = fields.read_any_raw().unwrap();
                    if index == 4 {
                        let v = cert.validity();
                        t.sequence(|val| {
                            val.write_tlv(
                                Tag::GENERALIZED_TIME,
                                generalized(v.not_before).as_bytes(),
                            );
                            val.write_tlv(
                                Tag::GENERALIZED_TIME,
                                generalized(v.not_after).as_bytes(),
                            );
                        });
                    } else {
                        t.write_raw(field);
                    }
                    index += 1;
                }
            });
            while !body.is_done() {
                c.write_raw(body.read_any_raw().unwrap().1);
            }
        });
        Certificate::from_der(&enc.finish()).unwrap()
    }

    #[test]
    fn validity_range_found_when_generalized_time_holds_a_utc_year() {
        let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"diag");
        let built = ccc_x509::CertificateBuilder::leaf_profile("diag.sim").self_signed(&kp);
        let cert = with_generalized_validity(&built);
        assert_eq!(cert.validity(), built.validity());
        assert_ne!(cert.to_der(), built.to_der());
        // Re-encoding the window gives UTCTime, which this DER does not
        // contain, so only a walk of the TLVs finds the field.
        assert_eq!(validity_byte_range(&cert), Some((68, 36)));
        assert_eq!(cert.to_der()[68..72], [0x30, 34, 0x18, 15]);
        assert_eq!(validity_byte_range(&built), Some((68, 32)));
    }
}
