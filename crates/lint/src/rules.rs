//! The lint rules and their static registry.
//!
//! A rule is one [`Rule`] record (ID, scope, description, citation) and
//! one private check function, named after the ID without its severity
//! prefix. Rule IDs are **stable identifiers** — they appear in
//! baselines, SARIF uploads, and dashboards, so they are never renamed,
//! only retired. The prefix is the rule's default severity (`e_` error,
//! `w_` warn, `i_` info, `n_` notice), mirroring zlint's convention, and
//! the only place a severity is written: [`Rule::severity`] reads it, and
//! the crate does not compile if a registered ID lacks one.
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
/// All inputs arrive via [`ChainContext`], so evaluation is a pure
/// function and corpus lints parallelize without coordination.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable rule identifier (never renamed); its prefix is the severity.
    pub id: &'static str,
    /// What the rule inspects.
    pub scope: RuleScope,
    /// One-line description (SARIF `shortDescription`).
    pub description: &'static str,
    /// RFC / CA-Browser-Forum citation backing the rule.
    pub citation: &'static str,
    /// Evaluate against one observation, appending findings.
    pub check: fn(&Rule, &ChainContext<'_>, &mut Vec<Finding>),
}

impl Rule {
    /// Default severity, read from the ID prefix.
    ///
    /// # Panics
    ///
    /// When the ID has none of the four prefixes; no registered rule
    /// can, since the registry is checked at compile time.
    pub const fn severity(&self) -> Severity {
        match self.id.as_bytes() {
            [b'e', b'_', ..] => Severity::Error,
            [b'w', b'_', ..] => Severity::Warn,
            [b'i', b'_', ..] => Severity::Info,
            [b'n', b'_', ..] => Severity::Notice,
            _ => panic!("a rule ID starts with e_, w_, i_ or n_"),
        }
    }
}

// ---------------------------------------------------------------------------
// Certificate-scope rules
// ---------------------------------------------------------------------------

fn validity_window_inverted(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        let v = cert.validity();
        if v.is_inverted() {
            out.push(ctx.finding_at_validity(
                rule,
                i,
                format!(
                    "validity window inverted: notBefore {} is after notAfter {}",
                    v.not_before, v.not_after
                ),
            ));
        }
    }
}

fn cert_expired(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        let v = cert.validity();
        if !v.is_inverted() && ctx.now > v.not_after {
            out.push(ctx.finding_at_validity(
                rule,
                i,
                format!(
                    "certificate expired: notAfter {} is before scan time {}",
                    v.not_after, ctx.now
                ),
            ));
        }
    }
}

fn cert_not_yet_valid(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        let v = cert.validity();
        if !v.is_inverted() && ctx.now < v.not_before {
            out.push(ctx.finding_at_validity(
                rule,
                i,
                format!(
                    "certificate not yet valid: notBefore {} is after scan time {}",
                    v.not_before, ctx.now
                ),
            ));
        }
    }
}

fn ca_without_basic_constraints(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (n, node) in ctx.graph.nodes.iter().enumerate() {
        if !ctx.graph.issued_by_me[n].is_empty() && !node.cert.is_ca() {
            out.push(ctx.finding_at(
                rule,
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

fn ca_without_key_cert_sign(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        if let (true, Some(ku)) = (cert.is_ca(), cert.key_usage()) {
            if !ku.key_cert_sign {
                out.push(ctx.finding_at(
                    rule,
                    i,
                    "CA certificate's KeyUsage extension does not assert keyCertSign",
                ));
            }
        }
    }
}

fn ca_missing_skid(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        if cert.is_ca() && cert.skid().is_none() {
            out.push(ctx.finding_at(
                rule,
                i,
                "CA certificate has no SubjectKeyIdentifier extension",
            ));
        }
    }
}

fn missing_akid(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        if !cert.is_self_issued() && cert.akid_key_id().is_none() {
            out.push(ctx.finding_at(
                rule,
                i,
                "certificate has no AuthorityKeyIdentifier key id; issuer matching falls back to DN comparison",
            ));
        }
    }
}

fn aia_missing(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        if !cert.is_self_issued() && cert.aia_ca_issuers_uri().is_none() {
            out.push(ctx.finding_at(
                rule,
                i,
                "no AIA caIssuers URI; clients cannot fetch the issuer if the chain is incomplete",
            ));
        }
    }
}

fn leaf_missing_san(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    let Some(first) = ctx.served.first() else {
        return;
    };
    let has_dns = first
        .san()
        .map(|san| san.dns_names().next().is_some())
        .unwrap_or(false);
    if !has_dns {
        out.push(ctx.finding_at(
            rule,
            0,
            "leaf-position certificate has no SAN dNSName; modern clients ignore the CN",
        ));
    }
}

/// CABF ballot SC31 lifetime limit, in inclusive seconds.
const MAX_LEAF_VALIDITY_SECONDS: i64 = 398 * 86_400;

fn leaf_validity_exceeds_398_days(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    let Some(first) = ctx.served.first() else {
        return;
    };
    let v = first.validity();
    if !v.is_inverted() && v.duration_seconds() > MAX_LEAF_VALIDITY_SECONDS {
        out.push(ctx.finding_at_validity(
            rule,
            0,
            format!(
                "leaf validity period is {} days (limit 398)",
                v.duration_seconds() / 86_400
            ),
        ));
    }
}

fn nonpositive_serial(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        let serial = cert.serial();
        if serial.is_empty() || serial.iter().all(|&b| b == 0) {
            out.push(ctx.finding_at(rule, i, "serial number must be a positive integer"));
        }
    }
}

// ---------------------------------------------------------------------------
// Chain-scope rules
// ---------------------------------------------------------------------------

fn leaf_not_first(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    if ctx.report.findings.contains(&NonCompliance::LeafMisplaced) {
        out.push(ctx.finding(
            rule,
            format!(
                "leaf placement is '{}': the server's own certificate must be sent first",
                ctx.report.leaf_placement.label()
            ),
        ));
    }
}

fn chain_duplicate_certificates(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    if ctx
        .report
        .findings
        .contains(&NonCompliance::DuplicateCertificates)
    {
        let d = &ctx.report.order.duplicates;
        out.push(ctx.finding(
            rule,
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

/// The per-occurrence companion of `e_chain_duplicate_certificates` (one
/// finding per repeated position, so baselines and SARIF consumers can
/// track individual copies).
fn chain_contains_duplicate(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
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
                rule,
                pos,
                format!(
                    "position {pos} repeats the {role} certificate first served at position {}",
                    node.position
                ),
            ));
        }
    }
}

fn chain_irrelevant_certificates(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
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
            rule,
            node.position,
            format!(
                "certificate '{}' has no issuance relationship with the leaf",
                node.cert.subject()
            ),
        ));
    }
}

fn chain_multiple_paths(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    if ctx.report.findings.contains(&NonCompliance::MultiplePaths) {
        out.push(ctx.finding(
            rule,
            format!(
                "{} candidate paths from the leaf (cross-signing or redundant issuers in the served list)",
                ctx.report.order.path_count
            ),
        ));
    }
}

fn chain_reversed_order(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    if ctx
        .report
        .findings
        .contains(&NonCompliance::ReversedSequence)
    {
        out.push(ctx.finding(
            rule,
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

fn chain_incomplete(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
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
        out.push(ctx.finding(rule, format!("chain is incomplete; {detail}")));
    }
}

fn root_included(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, cert) in ctx.served.iter().enumerate() {
        if i > 0 && ctx.checker.self_signed(cert) {
            out.push(ctx.finding_at(
                rule,
                i,
                "self-signed root served; clients already hold trust anchors, sending it wastes bytes",
            ));
        }
    }
}

fn path_len_violated(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for path in &ctx.graph.paths {
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
                    rule,
                    ctx.graph.nodes[node].position,
                    format!(
                        "pathLenConstraint={limit} but {below} non-self-issued intermediate(s) follow toward the leaf"
                    ),
                ));
            }
        }
    }
}

fn kid_mismatch(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    for (i, children) in ctx.graph.issued_by_me.iter().enumerate() {
        let issuer = &ctx.graph.nodes[i].cert;
        let Some(skid) = issuer.skid() else { continue };
        for &j in children {
            let subject = &ctx.graph.nodes[j].cert;
            if let Some(akid) = subject.akid_key_id() {
                if akid != skid {
                    out.push(ctx.finding_at(
                        rule,
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

fn chain_aia_completable(rule: &Rule, ctx: &ChainContext<'_>, out: &mut Vec<Finding>) {
    let c = &ctx.report.completeness;
    if ctx
        .report
        .findings
        .contains(&NonCompliance::IncompleteChain)
        && c.aia_completable
    {
        out.push(ctx.finding(
            rule,
            format!(
                "AIA descent recovers the {} missing intermediate(s); AIA-aware clients will still build this chain",
                c.missing_intermediates
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The full rule registry, in stable evaluation order (certificate-scope
/// rules first, then chain-scope). Plain slice — adding a rule is one
/// check function plus one record here.
const REGISTRY: &[Rule] = &[
    // Certificate scope.
    Rule {
        id: "e_validity_window_inverted",
        scope: RuleScope::Certificate,
        description: "notAfter precedes notBefore; the certificate can never be valid",
        citation: "RFC 5280 §4.1.2.5",
        check: validity_window_inverted,
    },
    Rule {
        id: "w_cert_expired",
        scope: RuleScope::Certificate,
        description: "certificate was expired at scan time",
        citation: "RFC 5280 §4.1.2.5; RFC 5280 §6.1.3(a)(2)",
        check: cert_expired,
    },
    Rule {
        id: "w_cert_not_yet_valid",
        scope: RuleScope::Certificate,
        description: "certificate validity begins after scan time",
        citation: "RFC 5280 §4.1.2.5; RFC 5280 §6.1.3(a)(2)",
        check: cert_not_yet_valid,
    },
    Rule {
        id: "e_ca_without_basic_constraints",
        scope: RuleScope::Certificate,
        description:
            "certificate issues another chain member but does not assert BasicConstraints cA",
        citation: "RFC 5280 §4.2.1.9; CABF BR §7.1.2.5",
        check: ca_without_basic_constraints,
    },
    Rule {
        id: "w_ca_without_key_cert_sign",
        scope: RuleScope::Certificate,
        description: "CA certificate carries KeyUsage without keyCertSign",
        citation: "RFC 5280 §4.2.1.3",
        check: ca_without_key_cert_sign,
    },
    Rule {
        id: "w_ca_missing_skid",
        scope: RuleScope::Certificate,
        description: "CA certificate lacks a Subject Key Identifier",
        citation: "RFC 5280 §4.2.1.2 (MUST for conforming CAs)",
        check: ca_missing_skid,
    },
    Rule {
        id: "w_missing_akid",
        scope: RuleScope::Certificate,
        description: "non-self-issued certificate lacks an Authority Key Identifier",
        citation: "RFC 5280 §4.2.1.1",
        check: missing_akid,
    },
    Rule {
        id: "i_aia_missing",
        scope: RuleScope::Certificate,
        description: "non-root certificate lacks an AIA caIssuers pointer",
        citation: "RFC 5280 §4.2.2.1; CABF BR §7.1.2.7.7",
        check: aia_missing,
    },
    Rule {
        id: "w_leaf_missing_san",
        scope: RuleScope::Certificate,
        description: "first served certificate has no SubjectAltName DNS entries",
        citation: "CABF BR §7.1.2.7.12; RFC 6125 §6.4.4",
        check: leaf_missing_san,
    },
    Rule {
        id: "n_leaf_validity_exceeds_398_days",
        scope: RuleScope::Certificate,
        description: "leaf validity period exceeds 398 days",
        citation: "CABF BR §6.3.2",
        check: leaf_validity_exceeds_398_days,
    },
    Rule {
        id: "w_nonpositive_serial",
        scope: RuleScope::Certificate,
        description: "serial number is zero or empty",
        citation: "RFC 5280 §4.1.2.2 (positive integer required)",
        check: nonpositive_serial,
    },
    // Chain scope.
    Rule {
        id: "e_leaf_not_first",
        scope: RuleScope::Chain,
        description: "the end-entity certificate is not the first certificate sent",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: leaf_not_first,
    },
    Rule {
        id: "e_chain_duplicate_certificates",
        scope: RuleScope::Chain,
        description: "the served list contains bit-identical duplicate certificates",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: chain_duplicate_certificates,
    },
    Rule {
        id: "w_chain_contains_duplicate",
        scope: RuleScope::Chain,
        description: "a certificate at this position repeats an earlier chain member",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: chain_contains_duplicate,
    },
    Rule {
        id: "e_chain_irrelevant_certificates",
        scope: RuleScope::Chain,
        description: "the served list contains certificates unrelated to the leaf's issuance",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: chain_irrelevant_certificates,
    },
    Rule {
        id: "e_chain_multiple_paths",
        scope: RuleScope::Chain,
        description: "more than one candidate issuance path leaves the leaf",
        citation: "RFC 5246 §7.4.2 (a single ordered chain is expected)",
        check: chain_multiple_paths,
    },
    Rule {
        id: "e_chain_reversed_order",
        scope: RuleScope::Chain,
        description: "an issuer certificate precedes its subject in the served list",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: chain_reversed_order,
    },
    Rule {
        id: "e_chain_incomplete",
        scope: RuleScope::Chain,
        description: "intermediate certificates are missing; no served path reaches a trust anchor",
        citation: "RFC 5246 §7.4.2; RFC 8446 §4.4.2",
        check: chain_incomplete,
    },
    Rule {
        id: "w_root_included",
        scope: RuleScope::Chain,
        description: "a self-signed root is included in the served list",
        citation: "RFC 8446 §4.4.2 (the root MAY be omitted); CABF BR §7.1.2.1",
        check: root_included,
    },
    Rule {
        id: "e_path_len_violated",
        scope: RuleScope::Chain,
        description: "a CA's pathLenConstraint is exceeded by the served chain",
        citation: "RFC 5280 §4.2.1.9",
        check: path_len_violated,
    },
    Rule {
        id: "e_kid_mismatch",
        scope: RuleScope::Chain,
        description: "signature verifies but the subject's AKID disagrees with the issuer's SKID",
        citation: "RFC 5280 §4.2.1.1",
        check: kid_mismatch,
    },
    Rule {
        id: "n_chain_aia_completable",
        scope: RuleScope::Chain,
        description: "the incomplete chain can be repaired by AIA fetching",
        citation: "RFC 5280 §4.2.2.1 (paper §4.3, Table 7)",
        check: chain_aia_completable,
    },
];

// Every registered ID carries a severity prefix: `severity` panics on one
// that does not, which here stops the build.
const _: () = {
    let mut i = 0;
    while i < REGISTRY.len() {
        REGISTRY[i].severity();
        i += 1;
    }
};

/// The registered rules in evaluation order.
pub fn registry() -> &'static [Rule] {
    REGISTRY
}

/// Look a rule up by its stable ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    REGISTRY.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_has_at_least_fourteen_rules_with_unique_stable_ids() {
        assert!(registry().len() >= 14, "{} rules", registry().len());
        let ids: BTreeSet<&str> = registry().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), registry().len(), "duplicate rule IDs");
        for rule in registry() {
            assert!(!rule.citation.is_empty(), "{} has no citation", rule.id);
            assert!(!rule.description.is_empty());
        }
    }

    #[test]
    fn registry_spans_both_scopes() {
        let cert = registry()
            .iter()
            .filter(|r| r.scope == RuleScope::Certificate)
            .count();
        let chain = registry()
            .iter()
            .filter(|r| r.scope == RuleScope::Chain)
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
        assert_eq!(r.scope, RuleScope::Chain);
    }

    #[test]
    fn severity_is_the_id_prefix() {
        let rule = |id| Rule { id, ..REGISTRY[0] };
        assert_eq!(rule("e_x").severity(), Severity::Error);
        assert_eq!(rule("w_x").severity(), Severity::Warn);
        assert_eq!(rule("i_x").severity(), Severity::Info);
        assert_eq!(rule("n_x").severity(), Severity::Notice);
    }

    #[test]
    #[should_panic(expected = "a rule ID starts with")]
    fn an_unprefixed_id_has_no_severity() {
        Rule {
            id: "x_unprefixed",
            ..REGISTRY[0]
        }
        .severity();
    }
}
