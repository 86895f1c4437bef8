//! The lint engine: per-chain evaluation and corpus-wide lint summaries.
//!
//! [`LintEngine`] evaluates the full rule registry against one served
//! chain. [`LintSummary`] accumulates whole-corpus statistics and
//! cross-checks the severity contract on every chain: a chain is
//! non-compliant per [`ccc_core::analyze_compliance`] **iff** linting it
//! yields at least one `Error`-severity finding. Parallel corpus sweeps
//! run in `ccc-bench`'s fused pipeline (its `LintPass` folds chains with
//! [`LintSummary::absorb_chain`] and partials with
//! [`LintSummary::merge`]); [`LintSummary::compute_range`] is the plain
//! sequential loop the pipeline is checked against.

use crate::diag::{ChainContext, Finding, Severity};
use crate::rules::registry;
use ccc_asn1::Time;
use ccc_core::{
    analyze_compliance_with_graph, CompletenessAnalyzer, ComplianceReport, IssuanceChecker,
    NonCompliance, TopologyGraph,
};
use ccc_netsim::AiaRepository;
use ccc_rootstore::RootStore;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::Corpus;
use ccc_x509::Certificate;
use std::collections::BTreeMap;

/// The Error-severity rule that fires for each aggregate
/// [`NonCompliance`] finding — the explicit half of the
/// "non-compliant ⇔ ≥1 error finding" contract. The other half (no Error
/// rule fires on compliant chains) is enforced by [`LintSummary`]'s
/// per-chain cross-check and the corpus proptests.
pub fn rule_for_noncompliance(nc: NonCompliance) -> &'static str {
    match nc {
        NonCompliance::LeafMisplaced => "e_leaf_not_first",
        NonCompliance::DuplicateCertificates => "e_chain_duplicate_certificates",
        NonCompliance::IrrelevantCertificates => "e_chain_irrelevant_certificates",
        NonCompliance::MultiplePaths => "e_chain_multiple_paths",
        NonCompliance::ReversedSequence => "e_chain_reversed_order",
        NonCompliance::IncompleteChain => "e_chain_incomplete",
    }
}

/// Evaluates the rule registry against served chains.
///
/// Holds the shared [`IssuanceChecker`], so the topology rebuild
/// performed for linting after `analyze_compliance` is all cache hits,
/// and signature-dependent rules never re-verify an (issuer, subject)
/// pair.
#[derive(Clone, Copy, Debug)]
pub struct LintEngine<'a> {
    checker: &'a IssuanceChecker,
    analyzer: CompletenessAnalyzer<'a>,
    now: Time,
}

impl<'a> LintEngine<'a> {
    /// Build an engine. `aia` of `None` models a lint run without the AIA
    /// repository (incomplete chains then report as non-recoverable).
    pub fn new(
        checker: &'a IssuanceChecker,
        store: &'a RootStore,
        aia: Option<&'a AiaRepository>,
        now: Time,
    ) -> LintEngine<'a> {
        LintEngine {
            checker,
            analyzer: CompletenessAnalyzer::new(checker, store, aia),
            now,
        }
    }

    /// The simulated scan instant the engine evaluates at.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The shared signature cache this engine lints against.
    pub fn checker(&self) -> &'a IssuanceChecker {
        self.checker
    }

    /// The completeness analyzer this engine computes compliance reports
    /// with (same configuration as the compliance pass: one shared
    /// report is valid for both).
    pub fn analyzer(&self) -> &CompletenessAnalyzer<'a> {
        &self.analyzer
    }

    /// Lint one (domain, served list) observation.
    pub fn lint_chain(&self, domain: &str, served: &[Certificate]) -> Vec<Finding> {
        self.lint_chain_with_report(domain, served).1
    }

    /// Lint one observation and also return the aggregate compliance
    /// report the chain-scope rules consumed.
    pub fn lint_chain_with_report(
        &self,
        domain: &str,
        served: &[Certificate],
    ) -> (ComplianceReport, Vec<Finding>) {
        // Single graph build serves both the compliance analysis and the
        // rule context (cache hits on the shared checker either way).
        let graph = TopologyGraph::build(served, self.checker);
        let report = analyze_compliance_with_graph(domain, served, &graph, &self.analyzer);
        let findings = self.lint_prepared(domain, served, &graph, &report);
        (report, findings)
    }

    /// Run the rule registry against artifacts the caller already built
    /// for this observation (the fused pipeline shares one
    /// [`TopologyGraph`] and one [`ComplianceReport`] across passes).
    /// [`LintEngine::lint_chain_with_report`] delegates here, so results
    /// are identical by construction.
    pub fn lint_prepared(
        &self,
        domain: &str,
        served: &[Certificate],
        graph: &TopologyGraph,
        report: &ComplianceReport,
    ) -> Vec<Finding> {
        let ctx = ChainContext::new(domain, served, graph, report, self.now, self.checker);
        let mut findings = Vec::new();
        for rule in registry() {
            (rule.check)(rule, &ctx, &mut findings);
        }
        findings
    }
}

/// Whole-corpus lint statistics.
///
/// Keeps histograms plus the full Error-severity finding list (errors are
/// a small minority by construction); Warn/Info/Notice findings are
/// counted but not retained, which keeps 100k-domain passes cheap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Domains linted.
    pub total: usize,
    /// Findings across all severities.
    pub findings_total: usize,
    /// Finding count per rule ID.
    pub rule_hits: BTreeMap<&'static str, usize>,
    /// Chains with ≥1 finding per rule ID.
    pub chains_by_rule: BTreeMap<&'static str, usize>,
    /// Finding count per severity.
    pub severity_hits: BTreeMap<Severity, usize>,
    /// Chains non-compliant per `analyze_compliance`.
    pub noncompliant_chains: usize,
    /// Chains with ≥1 Error-severity finding.
    pub chains_with_error: usize,
    /// Violations of the "non-compliant ⇔ ≥1 error finding" contract
    /// (always empty; a non-empty list is a bug in the registry).
    pub consistency_violations: Vec<String>,
    /// Every Error-severity finding, in rank order.
    pub error_findings: Vec<Finding>,
}

impl LintSummary {
    /// Sequential lint over a rank range against a shared checker: one
    /// [`LintEngine::lint_chain_with_report`] and one
    /// [`absorb_chain`](Self::absorb_chain) per rank, with no memo shared
    /// across analyses (the reference the fused pipeline's `LintPass` is
    /// checked against).
    pub fn compute_range(
        corpus: &Corpus,
        checker: &IssuanceChecker,
        start: usize,
        end: usize,
    ) -> LintSummary {
        let engine = LintEngine::new(
            checker,
            corpus.programs.unified(),
            Some(&corpus.aia),
            scan_time(),
        );
        let mut s = LintSummary {
            total: end.saturating_sub(start),
            ..Default::default()
        };
        for rank in start..end {
            let obs = corpus.observation(rank);
            let (report, findings) = engine.lint_chain_with_report(&obs.domain, &obs.served);
            s.absorb_chain(&obs.domain, &report, findings);
        }
        s
    }

    /// Fold one linted chain into the summary, running the consistency
    /// cross-check. `total` is left to the caller, which counts chains
    /// itself.
    pub fn absorb_chain(
        &mut self,
        domain: &str,
        report: &ComplianceReport,
        findings: Vec<Finding>,
    ) {
        self.findings_total += findings.len();
        let mut seen_rules: Vec<&'static str> = Vec::new();
        let mut has_error = false;
        for f in &findings {
            *self.rule_hits.entry(f.rule_id).or_insert(0) += 1;
            *self.severity_hits.entry(f.severity).or_insert(0) += 1;
            if !seen_rules.contains(&f.rule_id) {
                seen_rules.push(f.rule_id);
                *self.chains_by_rule.entry(f.rule_id).or_insert(0) += 1;
            }
            if f.severity == Severity::Error {
                has_error = true;
            }
        }
        if !report.is_compliant() {
            self.noncompliant_chains += 1;
        }
        if has_error {
            self.chains_with_error += 1;
        }
        // The ⇔ contract, checked in both directions.
        if has_error == report.is_compliant() {
            self.consistency_violations.push(format!(
                "{domain}: compliant={} but error findings present={has_error}",
                report.is_compliant()
            ));
        }
        for nc in &report.findings {
            let rule_id = rule_for_noncompliance(*nc);
            if !seen_rules.contains(&rule_id) {
                self.consistency_violations.push(format!(
                    "{domain}: non-compliance {nc:?} did not fire {rule_id}"
                ));
            }
        }
        self.error_findings.extend(
            findings
                .into_iter()
                .filter(|f| f.severity == Severity::Error),
        );
    }

    /// Fold a worker partial into this summary, `total` included
    /// (rank-chunk order matters for `error_findings` and
    /// `consistency_violations`: merge partials in ascending rank order to
    /// keep results thread-count invariant).
    pub fn merge(&mut self, other: LintSummary) {
        self.total += other.total;
        self.findings_total += other.findings_total;
        for (k, v) in other.rule_hits {
            *self.rule_hits.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.chains_by_rule {
            *self.chains_by_rule.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.severity_hits {
            *self.severity_hits.entry(k).or_insert(0) += v;
        }
        self.noncompliant_chains += other.noncompliant_chains;
        self.chains_with_error += other.chains_with_error;
        self.consistency_violations
            .extend(other.consistency_violations);
        self.error_findings.extend(other.error_findings);
    }

    /// True when every chain satisfied the "non-compliant ⇔ ≥1 error
    /// finding" contract.
    pub fn is_consistent(&self) -> bool {
        self.consistency_violations.is_empty()
    }

    /// Finding count at a given severity.
    pub fn severity_count(&self, severity: Severity) -> usize {
        self.severity_hits.get(&severity).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{rule_by_id, RuleScope};
    use ccc_rootstore::{CaUniverse, RootPrograms};
    use ccc_testgen::CorpusSpec;

    fn corpus(domains: usize) -> Corpus {
        // The bench harness's scan seed (SCAN_SEED = 833).
        Corpus::new(CorpusSpec::calibrated(833, domains))
    }

    #[test]
    fn noncompliance_mapping_targets_error_chain_rules() {
        let variants = [
            NonCompliance::LeafMisplaced,
            NonCompliance::DuplicateCertificates,
            NonCompliance::IrrelevantCertificates,
            NonCompliance::MultiplePaths,
            NonCompliance::ReversedSequence,
            NonCompliance::IncompleteChain,
        ];
        for nc in variants {
            let rule = rule_by_id(rule_for_noncompliance(nc))
                .unwrap_or_else(|| panic!("{nc:?} maps to unregistered rule"));
            assert_eq!(rule.severity(), Severity::Error, "{nc:?}");
            assert_eq!(rule.scope, RuleScope::Chain, "{nc:?}");
        }
    }

    #[test]
    fn clean_chain_yields_no_error_findings() {
        let universe = CaUniverse::default_with_seed(77);
        let programs = RootPrograms::from_universe(&universe);
        let aia = AiaRepository::new(universe.aia_publications());
        let checker = IssuanceChecker::new();
        let engine = LintEngine::new(&checker, programs.unified(), Some(&aia), scan_time());

        let int = &universe.roots[0].intermediates[0];
        let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"eng-ok");
        let leaf = ccc_x509::CertificateBuilder::leaf_profile("ok.sim")
            .aia_ca_issuers(int.aia_uri.clone())
            .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
        let served = vec![leaf, int.cert.clone()];

        let (report, findings) = engine.lint_chain_with_report("ok.sim", &served);
        assert!(report.is_compliant(), "{:?}", report.findings);
        assert!(
            findings.iter().all(|f| f.severity != Severity::Error),
            "{findings:?}"
        );
    }

    #[test]
    fn reversed_chain_fires_the_mapped_error_rule() {
        let universe = CaUniverse::default_with_seed(77);
        let programs = RootPrograms::from_universe(&universe);
        let aia = AiaRepository::new(universe.aia_publications());
        let checker = IssuanceChecker::new();
        let engine = LintEngine::new(&checker, programs.unified(), Some(&aia), scan_time());

        let int = &universe.roots[0].intermediates[0];
        let root = &universe.roots[0];
        let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"eng-rev");
        let leaf = ccc_x509::CertificateBuilder::leaf_profile("rev.sim")
            .aia_ca_issuers(int.aia_uri.clone())
            .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
        let served = vec![leaf, root.cert.clone(), int.cert.clone()];

        let (report, findings) = engine.lint_chain_with_report("rev.sim", &served);
        assert!(report.findings.contains(&NonCompliance::ReversedSequence));
        assert!(findings
            .iter()
            .any(|f| f.rule_id == "e_chain_reversed_order"));
        // The root-included warning also fires (position 1 is self-signed).
        assert!(findings.iter().any(|f| f.rule_id == "w_root_included"));
    }

    #[test]
    fn corpus_lint_upholds_the_equivalence_contract() {
        let c = corpus(300);
        let s = LintSummary::compute_range(&c, &IssuanceChecker::new(), 0, 300);
        assert_eq!(s.total, 300);
        assert!(s.is_consistent(), "{:?}", s.consistency_violations);
        assert_eq!(s.noncompliant_chains, s.chains_with_error);
        assert_eq!(
            s.error_findings.len(),
            s.severity_count(Severity::Error),
            "retained error findings match the histogram"
        );
        // The corpus plants defects, so something fired.
        assert!(s.findings_total > 0);
        assert!(s.noncompliant_chains > 0);
    }
}
