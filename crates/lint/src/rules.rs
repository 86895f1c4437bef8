//! The lint rule trait, the concrete rules, and the static registry.
//!
//! Rule IDs are **stable identifiers** — they appear in baselines, SARIF
//! uploads, and dashboards, so they are never renamed, only retired. The
//! prefix encodes the default severity (`e_` error, `w_` warn, `i_` info,
//! `n_` notice), mirroring zlint's convention.
//!
//! Severity contract: an `Error` rule fires **iff** the chain is
//! non-compliant per `ccc_core::analyze_compliance` — chain-scope error
//! rules read the `ComplianceReport` directly, and cert-scope error rules
//! only flag defects the synthetic corpus never plants in compliant
//! chains. `LintSummary` (`crate::LintSummary`) cross-checks the
//! equivalence on every corpus pass.

use crate::diag::{ChainContext, Finding, Severity};
use ccc_core::NonCompliance;

/// What a rule inspects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleScope {
    /// One certificate at a time (position-aware).
    Certificate,
    /// The served list as a whole (topology, order, completeness).
    Chain,
}

impl RuleScope {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            RuleScope::Certificate => "cert",
            RuleScope::Chain => "chain",
        }
    }
}

/// A single static-analysis rule.
///
/// Rules are stateless unit structs; all inputs arrive via
/// [`ChainContext`] so evaluation is a pure function and corpus lints
/// parallelize without coordination.
pub trait LintRule: Sync {
    /// Stable rule identifier (never renamed).
    fn id(&self) -> &'static str;
    /// Default severity (encoded in the ID prefix).
    fn severity(&self) -> Severity;
    /// What the rule inspects.
    fn scope(&self) -> RuleScope;
    /// One-line description (SARIF `shortDescription`).
    fn description(&self) -> &'static str;
    /// RFC / CA-Browser-Forum citation backing the rule.
    fn citation(&self) -> &'static str;
    /// Evaluate against one observation, appending findings.
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>);
}

// ---------------------------------------------------------------------------
// Certificate-scope rules
// ---------------------------------------------------------------------------

/// `e_validity_window_inverted`
struct ValidityWindowInverted;

impl LintRule for ValidityWindowInverted {
    fn id(&self) -> &'static str {
        "e_validity_window_inverted"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "notAfter precedes notBefore; the certificate can never be valid"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.1.2.5"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            let v = cert.validity();
            if v.is_inverted() {
                out.push(ctx.finding_at_validity(
                    self,
                    i,
                    format!(
                        "validity window inverted: notBefore {} is after notAfter {}",
                        v.not_before, v.not_after
                    ),
                ));
            }
        }
    }
}

/// `w_cert_expired`
struct CertExpired;

impl LintRule for CertExpired {
    fn id(&self) -> &'static str {
        "w_cert_expired"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "certificate was expired at scan time"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.1.2.5; RFC 5280 §6.1.3(a)(2)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            let v = cert.validity();
            if !v.is_inverted() && ctx.now > v.not_after {
                out.push(ctx.finding_at_validity(
                    self,
                    i,
                    format!(
                        "certificate expired: notAfter {} is before scan time {}",
                        v.not_after, ctx.now
                    ),
                ));
            }
        }
    }
}

/// `w_cert_not_yet_valid`
struct CertNotYetValid;

impl LintRule for CertNotYetValid {
    fn id(&self) -> &'static str {
        "w_cert_not_yet_valid"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "certificate validity begins after scan time"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.1.2.5; RFC 5280 §6.1.3(a)(2)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            let v = cert.validity();
            if !v.is_inverted() && ctx.now < v.not_before {
                out.push(ctx.finding_at_validity(
                    self,
                    i,
                    format!(
                        "certificate not yet valid: notBefore {} is after scan time {}",
                        v.not_before, ctx.now
                    ),
                ));
            }
        }
    }
}

/// `e_ca_without_basic_constraints`
struct CaWithoutBasicConstraints;

impl LintRule for CaWithoutBasicConstraints {
    fn id(&self) -> &'static str {
        "e_ca_without_basic_constraints"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "certificate issues another chain member but does not assert BasicConstraints cA"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.9; CABF BR §7.1.2.5"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (n, node) in ctx.graph.nodes.iter().enumerate() {
            if !ctx.graph.issued_by_me[n].is_empty() && !node.cert.is_ca() {
                out.push(ctx.finding_at(
                    self,
                    node.position,
                    format!(
                        "{} issues {} other certificate(s) in this chain but lacks BasicConstraints cA=TRUE",
                        node.label(),
                        ctx.graph.issued_by_me[n].len()
                    ),
                ));
            }
        }
    }
}

/// `w_ca_without_key_cert_sign`
struct CaWithoutKeyCertSign;

impl LintRule for CaWithoutKeyCertSign {
    fn id(&self) -> &'static str {
        "w_ca_without_key_cert_sign"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "CA certificate carries KeyUsage without keyCertSign"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.3"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            if let (true, Some(ku)) = (cert.is_ca(), cert.key_usage()) {
                if !ku.key_cert_sign {
                    out.push(ctx.finding_at(
                        self,
                        i,
                        "CA certificate's KeyUsage extension does not assert keyCertSign",
                    ));
                }
            }
        }
    }
}

/// `w_ca_missing_skid`
struct CaMissingSkid;

impl LintRule for CaMissingSkid {
    fn id(&self) -> &'static str {
        "w_ca_missing_skid"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "CA certificate lacks a Subject Key Identifier"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.2 (MUST for conforming CAs)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            if cert.is_ca() && cert.skid().is_none() {
                out.push(ctx.finding_at(
                    self,
                    i,
                    "CA certificate has no SubjectKeyIdentifier extension",
                ));
            }
        }
    }
}

/// `w_missing_akid`
struct MissingAkid;

impl LintRule for MissingAkid {
    fn id(&self) -> &'static str {
        "w_missing_akid"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "non-self-issued certificate lacks an Authority Key Identifier"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.1"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            if !cert.is_self_issued() && cert.akid_key_id().is_none() {
                out.push(ctx.finding_at(
                    self,
                    i,
                    "certificate has no AuthorityKeyIdentifier key id; issuer matching falls back to DN comparison",
                ));
            }
        }
    }
}

/// `i_aia_missing`
struct AiaMissing;

impl LintRule for AiaMissing {
    fn id(&self) -> &'static str {
        "i_aia_missing"
    }
    fn severity(&self) -> Severity {
        Severity::Info
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "non-root certificate lacks an AIA caIssuers pointer"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.2.1; CABF BR §7.1.2.7.7"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            if !cert.is_self_issued() && cert.aia_ca_issuers_uri().is_none() {
                out.push(ctx.finding_at(
                    self,
                    i,
                    "no AIA caIssuers URI; clients cannot fetch the issuer if the chain is incomplete",
                ));
            }
        }
    }
}

/// `w_leaf_missing_san`
struct LeafMissingSan;

impl LintRule for LeafMissingSan {
    fn id(&self) -> &'static str {
        "w_leaf_missing_san"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "first served certificate has no SubjectAltName DNS entries"
    }
    fn citation(&self) -> &'static str {
        "CABF BR §7.1.2.7.12; RFC 6125 §6.4.4"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        let Some(first) = ctx.served.first() else {
            return;
        };
        let has_dns = first
            .san()
            .map(|san| san.dns_names().next().is_some())
            .unwrap_or(false);
        if !has_dns {
            out.push(ctx.finding_at(
                self,
                0,
                "leaf-position certificate has no SAN dNSName; modern clients ignore the CN",
            ));
        }
    }
}

/// `n_leaf_validity_exceeds_398_days`
struct LeafValidityTooLong;

/// CABF ballot SC31 lifetime limit, in inclusive seconds.
const MAX_LEAF_VALIDITY_SECONDS: i64 = 398 * 86_400;

impl LintRule for LeafValidityTooLong {
    fn id(&self) -> &'static str {
        "n_leaf_validity_exceeds_398_days"
    }
    fn severity(&self) -> Severity {
        Severity::Notice
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "leaf validity period exceeds 398 days"
    }
    fn citation(&self) -> &'static str {
        "CABF BR §6.3.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        let Some(first) = ctx.served.first() else {
            return;
        };
        let v = first.validity();
        if !v.is_inverted() && v.duration_seconds() > MAX_LEAF_VALIDITY_SECONDS {
            out.push(ctx.finding_at_validity(
                self,
                0,
                format!(
                    "leaf validity period is {} days (limit 398)",
                    v.duration_seconds() / 86_400
                ),
            ));
        }
    }
}

/// `w_nonpositive_serial`
struct NonPositiveSerial;

impl LintRule for NonPositiveSerial {
    fn id(&self) -> &'static str {
        "w_nonpositive_serial"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Certificate
    }
    fn description(&self) -> &'static str {
        "serial number is zero or empty"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.1.2.2 (positive integer required)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            let serial = cert.serial();
            if serial.is_empty() || serial.iter().all(|&b| b == 0) {
                out.push(ctx.finding_at(self, i, "serial number must be a positive integer"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chain-scope rules
// ---------------------------------------------------------------------------

/// `e_leaf_not_first`
struct LeafNotFirst;

impl LintRule for LeafNotFirst {
    fn id(&self) -> &'static str {
        "e_leaf_not_first"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "the end-entity certificate is not the first certificate sent"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if ctx.report.findings.contains(&NonCompliance::LeafMisplaced) {
            out.push(ctx.finding(
                self,
                format!(
                    "leaf placement is '{}': the server's own certificate must be sent first",
                    ctx.report.leaf_placement.label()
                ),
            ));
        }
    }
}

/// `e_chain_duplicate_certificates`
struct ChainDuplicateCertificates;

impl LintRule for ChainDuplicateCertificates {
    fn id(&self) -> &'static str {
        "e_chain_duplicate_certificates"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "the served list contains bit-identical duplicate certificates"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if ctx
            .report
            .findings
            .contains(&NonCompliance::DuplicateCertificates)
        {
            let d = &ctx.report.order.duplicates;
            out.push(ctx.finding(
                self,
                format!(
                    "{} duplicate occurrence(s): {} leaf, {} intermediate, {} root",
                    d.total(),
                    d.leaf,
                    d.intermediate,
                    d.root
                ),
            ));
        }
    }
}

/// `w_chain_contains_duplicate` — the per-occurrence companion of
/// `e_chain_duplicate_certificates` (one finding per repeated position,
/// so baselines and SARIF consumers can track individual copies).
struct ChainContainsDuplicate;

impl LintRule for ChainContainsDuplicate {
    fn id(&self) -> &'static str {
        "w_chain_contains_duplicate"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "a certificate at this position repeats an earlier chain member"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (n, node) in ctx.graph.nodes.iter().enumerate() {
            let role = if n == 0 {
                "leaf"
            } else if node.cert.is_self_issued() {
                "root"
            } else {
                "intermediate"
            };
            for &pos in &node.duplicate_positions {
                out.push(ctx.finding_at(
                    self,
                    pos,
                    format!(
                        "position {pos} repeats the {role} certificate first served at position {}",
                        node.position
                    ),
                ));
            }
        }
    }
}

/// `e_chain_irrelevant_certificates`
struct ChainIrrelevantCertificates;

impl LintRule for ChainIrrelevantCertificates {
    fn id(&self) -> &'static str {
        "e_chain_irrelevant_certificates"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "the served list contains certificates unrelated to the leaf's issuance"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if !ctx
            .report
            .findings
            .contains(&NonCompliance::IrrelevantCertificates)
        {
            return;
        }
        for n in ctx.graph.irrelevant_nodes() {
            let node = &ctx.graph.nodes[n];
            out.push(ctx.finding_at(
                self,
                node.position,
                format!(
                    "certificate '{}' has no issuance relationship with the leaf",
                    node.cert.subject()
                ),
            ));
        }
    }
}

/// `e_chain_multiple_paths`
struct ChainMultiplePaths;

impl LintRule for ChainMultiplePaths {
    fn id(&self) -> &'static str {
        "e_chain_multiple_paths"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "more than one candidate issuance path leaves the leaf"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2 (a single ordered chain is expected)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if ctx.report.findings.contains(&NonCompliance::MultiplePaths) {
            out.push(ctx.finding(
                self,
                format!(
                    "{} candidate paths from the leaf (cross-signing or redundant issuers in the served list)",
                    ctx.report.order.path_count
                ),
            ));
        }
    }
}

/// `e_chain_reversed_order`
struct ChainReversedOrder;

impl LintRule for ChainReversedOrder {
    fn id(&self) -> &'static str {
        "e_chain_reversed_order"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "an issuer certificate precedes its subject in the served list"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if ctx
            .report
            .findings
            .contains(&NonCompliance::ReversedSequence)
        {
            out.push(ctx.finding(
                self,
                format!(
                    "{} of {} candidate path(s) have at least one reversed link{}",
                    ctx.report.order.reversed_paths,
                    ctx.report.order.path_count,
                    if ctx.report.order.all_paths_reversed {
                        " (all paths reversed)"
                    } else {
                        ""
                    }
                ),
            ));
        }
    }
}

/// `e_chain_incomplete`
struct ChainIncomplete;

impl LintRule for ChainIncomplete {
    fn id(&self) -> &'static str {
        "e_chain_incomplete"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "intermediate certificates are missing; no served path reaches a trust anchor"
    }
    fn citation(&self) -> &'static str {
        "RFC 5246 §7.4.2; RFC 8446 §4.4.2"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        if ctx
            .report
            .findings
            .contains(&NonCompliance::IncompleteChain)
        {
            let c = &ctx.report.completeness;
            let detail = if c.aia_completable {
                format!(
                    "recoverable via AIA ({} missing intermediate(s))",
                    c.missing_intermediates
                )
            } else {
                format!("not recoverable via AIA ({:?})", c.incomplete_reason)
            };
            out.push(ctx.finding(self, format!("chain is incomplete; {detail}")));
        }
    }
}

/// `w_root_included`
struct RootIncluded;

impl LintRule for RootIncluded {
    fn id(&self) -> &'static str {
        "w_root_included"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "a self-signed root is included in the served list"
    }
    fn citation(&self) -> &'static str {
        "RFC 8446 §4.4.2 (the root MAY be omitted); CABF BR §7.1.2.1"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, cert) in ctx.served.iter().enumerate() {
            if i > 0 && ctx.is_self_signed(cert) {
                out.push(ctx.finding_at(
                    self,
                    i,
                    "self-signed root served; clients already hold trust anchors, sending it wastes bytes",
                ));
            }
        }
    }
}

/// `e_path_len_violated`
struct PathLenViolated;

impl LintRule for PathLenViolated {
    fn id(&self) -> &'static str {
        "e_path_len_violated"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "a CA's pathLenConstraint is exceeded by the served chain"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.9"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for path in ctx.graph.leaf_paths(64) {
            // path[0] is the leaf; walking issuer-ward, path[i] signs
            // path[i-1]. pathLenConstraint bounds the number of
            // non-self-issued *intermediate* certificates between the CA
            // and the end entity (the leaf itself does not count).
            for (i, &node) in path.iter().enumerate().skip(1) {
                let cert = &ctx.graph.nodes[node].cert;
                let Some(bc) = cert.basic_constraints() else {
                    continue;
                };
                let (true, Some(limit)) = (bc.ca, bc.path_len) else {
                    continue;
                };
                let below = path[1..i]
                    .iter()
                    .filter(|&&n| !ctx.graph.nodes[n].cert.is_self_issued())
                    .count();
                if below > limit as usize {
                    out.push(ctx.finding_at(
                        self,
                        ctx.graph.nodes[node].position,
                        format!(
                            "pathLenConstraint={limit} but {below} non-self-issued intermediate(s) follow toward the leaf"
                        ),
                    ));
                }
            }
        }
    }
}

/// `e_kid_mismatch`
struct KidMismatch;

impl LintRule for KidMismatch {
    fn id(&self) -> &'static str {
        "e_kid_mismatch"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "signature verifies but the subject's AKID disagrees with the issuer's SKID"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.1.1"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        for (i, children) in ctx.graph.issued_by_me.iter().enumerate() {
            let issuer = &ctx.graph.nodes[i].cert;
            let Some(skid) = issuer.skid() else { continue };
            for &j in children {
                let subject = &ctx.graph.nodes[j].cert;
                if let Some(akid) = subject.akid_key_id() {
                    if akid != skid {
                        out.push(ctx.finding_at(
                            self,
                            ctx.graph.nodes[j].position,
                            format!(
                                "issuer {} signs this certificate but its AKID does not match that issuer's SKID",
                                ctx.graph.nodes[i].label()
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `n_chain_aia_completable`
struct ChainAiaCompletable;

impl LintRule for ChainAiaCompletable {
    fn id(&self) -> &'static str {
        "n_chain_aia_completable"
    }
    fn severity(&self) -> Severity {
        Severity::Notice
    }
    fn scope(&self) -> RuleScope {
        RuleScope::Chain
    }
    fn description(&self) -> &'static str {
        "the incomplete chain can be repaired by AIA fetching"
    }
    fn citation(&self) -> &'static str {
        "RFC 5280 §4.2.2.1 (paper §4.3, Table 7)"
    }
    fn check(&self, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
        let c = &ctx.report.completeness;
        if ctx
            .report
            .findings
            .contains(&NonCompliance::IncompleteChain)
            && c.aia_completable
        {
            out.push(ctx.finding(
                self,
                format!(
                    "AIA descent recovers the {} missing intermediate(s); AIA-aware clients will still build this chain",
                    c.missing_intermediates
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The full rule registry, in stable evaluation order (certificate-scope
/// rules first, then chain-scope). Plain static slice — adding a rule is
/// one unit struct plus one line here.
static REGISTRY: &[&dyn LintRule] = &[
    // Certificate scope.
    &ValidityWindowInverted,
    &CertExpired,
    &CertNotYetValid,
    &CaWithoutBasicConstraints,
    &CaWithoutKeyCertSign,
    &CaMissingSkid,
    &MissingAkid,
    &AiaMissing,
    &LeafMissingSan,
    &LeafValidityTooLong,
    &NonPositiveSerial,
    // Chain scope.
    &LeafNotFirst,
    &ChainDuplicateCertificates,
    &ChainContainsDuplicate,
    &ChainIrrelevantCertificates,
    &ChainMultiplePaths,
    &ChainReversedOrder,
    &ChainIncomplete,
    &RootIncluded,
    &PathLenViolated,
    &KidMismatch,
    &ChainAiaCompletable,
];

/// The registered rules in evaluation order.
pub fn registry() -> &'static [&'static dyn LintRule] {
    REGISTRY
}

/// Look a rule up by its stable ID.
pub fn rule_by_id(id: &str) -> Option<&'static dyn LintRule> {
    REGISTRY.iter().copied().find(|r| r.id() == id)
}

/// `true` when the rule's ID prefix agrees with its severity — enforced
/// by a unit test so the naming convention cannot drift.
#[cfg(test)]
fn id_prefix_matches(rule: &dyn LintRule) -> bool {
    let expected = match rule.severity() {
        Severity::Error => "e_",
        Severity::Warn => "w_",
        Severity::Info => "i_",
        Severity::Notice => "n_",
    };
    rule.id().starts_with(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_has_at_least_fourteen_rules_with_unique_stable_ids() {
        assert!(registry().len() >= 14, "{} rules", registry().len());
        let ids: BTreeSet<&str> = registry().iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), registry().len(), "duplicate rule IDs");
        for rule in registry() {
            assert!(id_prefix_matches(*rule), "{} prefix vs severity", rule.id());
            assert!(!rule.citation().is_empty(), "{} has no citation", rule.id());
            assert!(!rule.description().is_empty());
        }
    }

    #[test]
    fn registry_spans_both_scopes() {
        let cert = registry()
            .iter()
            .filter(|r| r.scope() == RuleScope::Certificate)
            .count();
        let chain = registry()
            .iter()
            .filter(|r| r.scope() == RuleScope::Chain)
            .count();
        assert!(cert >= 5, "{cert} cert-scope rules");
        assert!(chain >= 5, "{chain} chain-scope rules");
    }

    #[test]
    fn rule_lookup_by_id() {
        assert!(rule_by_id("e_chain_reversed_order").is_some());
        assert!(rule_by_id("no_such_rule").is_none());
        let r = rule_by_id("w_root_included").unwrap();
        assert_eq!(r.severity(), Severity::Warn);
        assert_eq!(r.scope(), RuleScope::Chain);
    }
}
