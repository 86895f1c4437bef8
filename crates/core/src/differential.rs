//! Differential testing harness (paper §5.2).
//!
//! Runs all eight client profiles on each served list, groups the verdicts
//! and attributes discrepancies to the paper's four impact classes:
//! I-1 missing order reorganization, I-2 list-length limits, I-3 missing
//! backtracking, I-4 missing AIA completion.

use crate::builder::{
    base_pool, record_build_metrics, BuildContext, BuildOutcome, BuilderPolicy, ChainEngine,
    ClientError, RunScratch, SearchScope,
};
use crate::clients::{client_profiles, ClientKind};
use crate::topology::IssuanceChecker;
use ccc_asn1::Time;
use ccc_netsim::AiaTransport;
use ccc_rootstore::RootStore;
use ccc_x509::Certificate;
use std::collections::BTreeMap;

/// Root causes of cross-client discrepancies (paper §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DiscrepancyCause {
    /// I-1: a client without order reorganization failed where reordering
    /// clients succeeded.
    OrderReorganization,
    /// I-2: a client's input list limit rejected a long served list.
    ListLengthLimit,
    /// I-3: non-backtracking clients committed to a bad path.
    Backtracking,
    /// I-4: AIA-capable (or cache-capable) clients completed a chain
    /// others could not.
    AiaCompletion,
    /// Anything else (validity windows, trust store contents, …).
    Other,
}

impl DiscrepancyCause {
    /// Paper label.
    pub fn label(&self) -> &'static str {
        match self {
            DiscrepancyCause::OrderReorganization => "I-1 order reorganization",
            DiscrepancyCause::ListLengthLimit => "I-2 overly long chains",
            DiscrepancyCause::Backtracking => "I-3 backtracking",
            DiscrepancyCause::AiaCompletion => "I-4 AIA completion",
            DiscrepancyCause::Other => "other",
        }
    }
}

/// Result of one differential run.
#[derive(Clone, Debug)]
pub struct DifferentialResult {
    /// Verdicts in Table 9 client order.
    pub outcomes: Vec<(ClientKind, BuildOutcome)>,
    /// Causes inferred for observed discrepancies.
    pub causes: Vec<DiscrepancyCause>,
}

impl DifferentialResult {
    fn passes(&self, filter: impl Fn(ClientKind) -> bool) -> (usize, usize) {
        let mut pass = 0;
        let mut total = 0;
        for (kind, outcome) in &self.outcomes {
            if filter(*kind) {
                total += 1;
                if outcome.accepted() {
                    pass += 1;
                }
            }
        }
        (pass, total)
    }

    /// All four browsers accept.
    pub fn all_browsers_pass(&self) -> bool {
        let (pass, total) = self.passes(|k| k.is_browser());
        pass == total
    }

    /// All four libraries accept.
    pub fn all_libraries_pass(&self) -> bool {
        let (pass, total) = self.passes(|k| !k.is_browser());
        pass == total
    }

    /// Browsers disagree with each other.
    pub fn browsers_discrepant(&self) -> bool {
        let (pass, total) = self.passes(|k| k.is_browser());
        pass != 0 && pass != total
    }

    /// Libraries disagree with each other.
    pub fn libraries_discrepant(&self) -> bool {
        let (pass, total) = self.passes(|k| !k.is_browser());
        pass != 0 && pass != total
    }
}

/// Aggregate over a corpus (the §5.2 headline numbers).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Served lists evaluated.
    pub total: usize,
    /// Lists accepted by all four browsers.
    pub all_browsers_pass: usize,
    /// Lists accepted by all four libraries.
    pub all_libraries_pass: usize,
    /// Lists with browser-vs-browser disagreement.
    pub browser_discrepancies: usize,
    /// Lists with library-vs-library disagreement.
    pub library_discrepancies: usize,
    /// Lists where at least one library failed (availability impact).
    pub library_failures: usize,
    /// Lists where at least one browser failed.
    pub browser_failures: usize,
    /// Discrepancy cause counts (a list may contribute to several).
    pub causes: BTreeMap<DiscrepancyCause, usize>,
    /// Per-client acceptance counts.
    pub per_client_pass: BTreeMap<ClientKind, usize>,
}

impl DifferentialReport {
    /// Fold one result into the aggregate.
    pub fn absorb(&mut self, result: &DifferentialResult) {
        self.total += 1;
        if result.all_browsers_pass() {
            self.all_browsers_pass += 1;
        }
        if result.all_libraries_pass() {
            self.all_libraries_pass += 1;
        }
        if result.browsers_discrepant() {
            self.browser_discrepancies += 1;
        }
        if result.libraries_discrepant() {
            self.library_discrepancies += 1;
        }
        let (lib_pass, lib_total) = result.passes(|k| !k.is_browser());
        if lib_pass < lib_total {
            self.library_failures += 1;
        }
        let (br_pass, br_total) = result.passes(|k| k.is_browser());
        if br_pass < br_total {
            self.browser_failures += 1;
        }
        for cause in &result.causes {
            *self.causes.entry(*cause).or_insert(0) += 1;
        }
        for (kind, outcome) in &result.outcomes {
            if outcome.accepted() {
                *self.per_client_pass.entry(*kind).or_insert(0) += 1;
            }
        }
    }
}

/// The harness: eight engines plus the shared environment.
#[derive(Debug)]
pub struct DifferentialHarness<'a> {
    clients: Vec<(ClientKind, ChainEngine)>,
    store: &'a RootStore,
    /// AIA transport [`run`](Self::run) builds with: a plain
    /// [`ccc_netsim::AiaRepository`] for the zero-fault path, or a
    /// [`ccc_netsim::FaultyTransport`] to inject latency and failures into
    /// every AIA-capable client.
    aia: Option<&'a dyn AiaTransport>,
    /// Firefox-style intermediate cache contents.
    cache: Vec<Certificate>,
    now: Time,
    checker: &'a IssuanceChecker,
}

impl<'a> DifferentialHarness<'a> {
    /// Build a harness over the standard eight clients.
    pub fn new(
        store: &'a RootStore,
        aia: Option<&'a dyn AiaTransport>,
        cache: Vec<Certificate>,
        now: Time,
        checker: &'a IssuanceChecker,
    ) -> DifferentialHarness<'a> {
        DifferentialHarness {
            clients: client_profiles(),
            store,
            aia,
            cache,
            now,
            checker,
        }
    }

    /// Run all clients on one served list and additionally require the
    /// constructed leaf to cover `domain` (what a browser/library reports
    /// as a hostname error after the chain itself validated). Hostname
    /// failures affect every client identically, so they add availability
    /// impact without adding discrepancies.
    pub fn run_for_domain(&self, served: &[Certificate], domain: &str) -> DifferentialResult {
        let mut result = self.run(served);
        let covers = served
            .first()
            .map(|leaf| crate::leaf::cert_covers_domain(leaf, domain))
            .unwrap_or(false);
        if !covers {
            for (_, outcome) in result.outcomes.iter_mut() {
                if outcome.verdict.is_ok() {
                    outcome.verdict = Err(ClientError::HostnameMismatch);
                }
            }
        }
        result
    }

    /// Run all clients on one served list under the harness's own AIA
    /// transport: the one-transport case of [`run_under`](Self::run_under).
    pub fn run(&self, served: &[Certificate]) -> DifferentialResult {
        let outcomes = self
            .run_under(served, [self.aia])
            .pop()
            .expect("one transport yields one row");
        let causes = attribute_causes(&self.clients, &outcomes);
        DifferentialResult { outcomes, causes }
    }

    /// Run all clients on one served list once per AIA transport. Row `t`
    /// of the result holds the eight outcomes (Table 9 order) of builds
    /// that fetch through the `t`-th transport; the harness's own
    /// transport is not used.
    ///
    /// Every (transport, client) build shares one base candidate pool
    /// (served-list dedup + trust-store probes) and one `RunScratch`:
    /// store candidates and `validate_path` verdicts depend only on
    /// certificate contents, the store, the clock and the checker — never
    /// on the policy or the transport — so they are computed once per
    /// served list. The AIA memo, simulated clock, retry counters and pool
    /// extensions stay per build, so every outcome is bit-identical to a
    /// plain [`ChainEngine::process`] call.
    ///
    /// Each client is built under the first transport first. A search
    /// reads the transport only from its AIA step on, and everything else
    /// it reads is fixed here, so when that build never reached the step
    /// no other transport's build can: its outcome is handed to the
    /// remaining transports as is. A build that did reach the step runs
    /// once per transport. Every outcome returned, built or reused, is
    /// recorded once in the builder metrics.
    ///
    /// [`ChainEngine::process`]: crate::builder::ChainEngine::process
    pub fn run_under<'t>(
        &self,
        served: &[Certificate],
        transports: impl IntoIterator<Item = Option<&'t dyn AiaTransport>>,
    ) -> Vec<Vec<(ClientKind, BuildOutcome)>> {
        let base = BuildContext {
            store: self.store,
            aia: None,
            cache: &self.cache,
            now: self.now,
            checker: self.checker,
        };
        let pool = base_pool(served, self.store);
        let scratch = RunScratch::default();
        let transports: Vec<_> = transports.into_iter().collect();
        let mut rows: Vec<Vec<(ClientKind, BuildOutcome)>> = transports
            .iter()
            .map(|_| Vec::with_capacity(self.clients.len()))
            .collect();
        let Some((&first, rest)) = transports.split_first() else {
            return rows;
        };
        for (kind, engine) in &self.clients {
            let build = |aia| {
                let ctx = BuildContext { aia, ..base };
                engine.process_shared(served, &ctx, &pool, &scratch)
            };
            let (outcome, reached_aia) = build(first);
            for (row, &aia) in rows[1..].iter_mut().zip(rest) {
                let other = if reached_aia {
                    build(aia).0
                } else {
                    outcome.clone()
                };
                record_build_metrics(&other);
                row.push((*kind, other));
            }
            record_build_metrics(&outcome);
            rows[0].push((*kind, outcome));
        }
        rows
    }
}

/// Infer discrepancy causes from the verdict pattern and the capabilities
/// of the policies behind it: `outcomes[i]` is what `clients[i]` built.
fn attribute_causes(
    clients: &[(ClientKind, ChainEngine)],
    outcomes: &[(ClientKind, BuildOutcome)],
) -> Vec<DiscrepancyCause> {
    type Verdict = Result<(), ClientError>;
    /// Chain completion: AIA fetching or an intermediate cache.
    fn completes(p: &BuilderPolicy) -> bool {
        p.aia || p.use_intermediate_cache
    }
    let any_pass = outcomes.iter().any(|(_, o)| o.accepted());
    let any_fail = outcomes.iter().any(|(_, o)| !o.accepted());
    if !(any_pass && any_fail) {
        return Vec::new();
    }
    // Whether some client whose policy is `capable` ended in `verdict`.
    let some = |capable: fn(&BuilderPolicy) -> bool, verdict: fn(&Verdict) -> bool| {
        clients
            .iter()
            .zip(outcomes)
            .any(|((_, engine), (_, o))| capable(&engine.policy) && verdict(&o.verdict))
    };
    let mut causes = Vec::new();

    // I-2: any client rejected the list outright for its length.
    if outcomes
        .iter()
        .any(|(_, o)| o.verdict == Err(ClientError::TooManyCertificates))
    {
        causes.push(DiscrepancyCause::ListLengthLimit);
    }

    // I-1: a forward-only client failed to find an issuer while some
    // reordering client without completion succeeded (so reordering alone
    // was the differentiator).
    if some(
        |p| p.scope == SearchScope::ForwardOnly,
        |v| {
            matches!(
                v,
                Err(ClientError::NoIssuerFound | ClientError::BadSignature)
            )
        },
    ) && some(
        |p| p.scope == SearchScope::FullList && !completes(p),
        Result::is_ok,
    ) {
        causes.push(DiscrepancyCause::OrderReorganization);
    }

    // I-4: a client with completion passed while some client without it
    // failed with an unknown-issuer style error.
    if some(completes, Result::is_ok)
        && some(|p| !completes(p), |v| *v == Err(ClientError::NoIssuerFound))
    {
        causes.push(DiscrepancyCause::AiaCompletion);
    }

    // I-3: a backtracking client passed while a non-backtracking client
    // committed to an untrusted/invalid path.
    if some(|p| p.backtracking, Result::is_ok)
        && some(
            |p| !p.backtracking,
            |v| {
                matches!(
                    v,
                    Err(ClientError::UntrustedRoot
                        | ClientError::Expired
                        | ClientError::PathLenConstraintViolated
                        | ClientError::BadKeyUsage)
                )
            },
        )
    {
        causes.push(DiscrepancyCause::Backtracking);
    }

    if causes.is_empty() {
        causes.push(DiscrepancyCause::Other);
    }
    causes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completeness::{CompletenessAnalyzer, IncompleteReason};
    use ccc_netsim::{AiaRepository, FaultPlan, FaultyTransport};
    use ccc_rootstore::{CaUniverse, RootPrograms};
    use ccc_x509::CertificateBuilder;

    struct Env {
        universe: CaUniverse,
        programs: RootPrograms,
        aia: AiaRepository,
        checker: IssuanceChecker,
    }

    fn env() -> Env {
        let universe = CaUniverse::default_with_seed(41);
        let programs = RootPrograms::from_universe(&universe);
        let aia = AiaRepository::new(universe.aia_publications());
        Env {
            universe,
            programs,
            aia,
            checker: IssuanceChecker::new(),
        }
    }

    fn now() -> Time {
        Time::from_ymd(2024, 7, 1).unwrap()
    }

    fn leaf(env: &Env, ca: usize, int: usize, domain: &str) -> Certificate {
        let intermediate = &env.universe.roots[ca].intermediates[int];
        let kp = ccc_crypto::KeyPair::from_seed(
            ccc_crypto::Group::simulation_256(),
            format!("diff-{domain}").as_bytes(),
        );
        CertificateBuilder::leaf_profile(domain)
            .aia_ca_issuers(intermediate.aia_uri.clone())
            .issued_by(
                &kp.public,
                intermediate.cert.subject().clone(),
                &intermediate.keypair,
            )
    }

    #[test]
    fn compliant_chain_accepted_by_all() {
        let e = env();
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        let int = &e.universe.roots[0].intermediates[0];
        let served = vec![leaf(&e, 0, 0, "all.sim"), int.cert.clone()];
        let result = harness.run(&served);
        for (kind, outcome) in &result.outcomes {
            assert!(
                outcome.accepted(),
                "{} failed: {:?}",
                kind.name(),
                outcome.verdict
            );
        }
        assert!(result.causes.is_empty());
    }

    #[test]
    fn reversed_chain_fails_only_mbedtls() {
        let e = env();
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        // 4-cert reversed intermediate order: leaf, int2(parent), int1.
        // Build a 2-intermediate chain within one CA: int1 signs leaf,
        // int1 is signed by... the universe only has root->int, so fake a
        // deeper chain: leaf <- intA ; serve {leaf, root, intA} reversed
        // tail.
        let int = &e.universe.roots[0].intermediates[0];
        let root = &e.universe.roots[0];
        let served = vec![
            leaf(&e, 0, 0, "rev.sim"),
            root.cert.clone(),
            int.cert.clone(),
        ];
        let result = harness.run(&served);
        let mbed = result
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::MbedTls)
            .unwrap();
        // MbedTLS's forward scan: after the leaf it sees root (sig fails),
        // then int (sig ok); int's issuer is root at an earlier position →
        // not reachable forward → but the root IS in the trust store, so
        // the store lookup rescues it. This chain is therefore accepted.
        assert!(mbed.1.accepted());

        // Now a chain needing a *list* certificate that sits earlier:
        // two intermediates i2 signs i1; serve {leaf, i2's cert, i1}.
        // Here leaf <- i1 <- i2 <- root. i1 appears after i2.
        // Construct i1 as a sub-CA issued by the universe intermediate.
        let g = ccc_crypto::Group::simulation_256();
        let i1_kp = ccc_crypto::KeyPair::from_seed(g, b"diff-subca");
        let i1_dn = ccc_x509::DistinguishedName::cn_o("Sub CA R", "Sim");
        let i1 = CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(
            &i1_kp.public,
            int.cert.subject().clone(),
            &int.keypair,
        );
        let leaf_kp = ccc_crypto::KeyPair::from_seed(g, b"diff-subca-leaf");
        let deep_leaf =
            CertificateBuilder::leaf_profile("deep.sim").issued_by(&leaf_kp.public, i1_dn, &i1_kp);
        // Served: leaf, int (i1's issuer), i1 — i1 is AFTER its issuer.
        let served = vec![deep_leaf, int.cert.clone(), i1];
        let result = harness.run(&served);
        let mbed = result
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::MbedTls)
            .unwrap();
        assert!(
            !mbed.1.accepted(),
            "MbedTLS should fail reversed deep chain"
        );
        let openssl = result
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::OpenSsl)
            .unwrap();
        assert!(
            openssl.1.accepted(),
            "OpenSSL reorders: {:?}",
            openssl.1.verdict
        );
        assert!(result
            .causes
            .contains(&DiscrepancyCause::OrderReorganization));
    }

    #[test]
    fn missing_intermediate_splits_aia_clients() {
        let e = env();
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        let served = vec![leaf(&e, 1, 0, "noint.sim")];
        let result = harness.run(&served);
        let verdicts: BTreeMap<ClientKind, bool> = result
            .outcomes
            .iter()
            .map(|(k, o)| (*k, o.accepted()))
            .collect();
        assert!(!verdicts[&ClientKind::OpenSsl]);
        assert!(!verdicts[&ClientKind::GnuTls]);
        assert!(!verdicts[&ClientKind::MbedTls]);
        assert!(verdicts[&ClientKind::CryptoApi]);
        assert!(verdicts[&ClientKind::Chrome]);
        assert!(!verdicts[&ClientKind::Firefox], "no cache preloaded");
        assert!(result.causes.contains(&DiscrepancyCause::AiaCompletion));

        // With the intermediate cached, Firefox recovers.
        let int_cert = e.universe.roots[1].intermediates[0].cert.clone();
        let harness2 = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![int_cert],
            now(),
            &e.checker,
        );
        let result2 = harness2.run(&served);
        let firefox = result2
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::Firefox)
            .unwrap();
        assert!(firefox.1.accepted());
    }

    /// Satellite e2e: a `WrongCertificate` URI yields exactly one fetch
    /// per AIA client, no usable candidate, and the paper's
    /// wrong-certificate incomplete-chain classification.
    #[test]
    fn wrong_certificate_aia_uri_end_to_end() {
        let mut e = env();
        let intermediate = e.universe.roots[1].intermediates[0].clone();
        // The URI serves an unrelated trusted root instead of the issuer —
        // the CAcert-style misconfiguration the paper measured.
        let unrelated = e.universe.roots[0].cert.clone();
        e.aia.publish(intermediate.aia_uri.clone(), unrelated);
        let served = vec![leaf(&e, 1, 0, "wrongcert.sim")];

        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        e.aia.reset_fetches();
        let result = harness.run(&served);

        // The wrong payload is useless as an issuer: every client fails.
        for (kind, outcome) in &result.outcomes {
            assert!(
                !outcome.accepted(),
                "{} must not accept a chain completed by a wrong certificate",
                kind.name()
            );
        }
        // Exactly one fetch per AIA-capable client (CryptoAPI, Chrome,
        // Edge, Safari) — the wrong certificate is a *successful* transfer
        // (aia_fetches == aia_attempts == 1), never retried as transient.
        assert_eq!(e.aia.fetches(), 4);
        for (kind, outcome) in &result.outcomes {
            let expects_fetch = matches!(
                kind,
                ClientKind::CryptoApi | ClientKind::Chrome | ClientKind::Edge | ClientKind::Safari
            );
            let expected = usize::from(expects_fetch);
            assert_eq!(outcome.stats.aia_attempts, expected, "{}", kind.name());
            assert_eq!(outcome.stats.aia_fetches, expected, "{}", kind.name());
            assert_eq!(outcome.stats.aia_retries, 0, "{}", kind.name());
        }

        // The completeness analyzer classifies the list the same way.
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let analysis = analyzer.analyze(&served);
        assert_eq!(
            analysis.incomplete_reason,
            Some(IncompleteReason::AiaWrongCertificate)
        );
    }

    /// `run_under` shares one pool seed and scratch across every
    /// (transport, client) build, yet each outcome — path, verdict and
    /// every `BuildStats` field — equals a plain `ChainEngine::process`
    /// call, and each faulty transport sees the same fetches. Transports:
    /// none, the plain repository, and rate-1.0 fault plans (a mixed one
    /// plus all-transient, all-dead and all-corrupt).
    #[test]
    fn run_under_matches_per_build_processes() {
        let e = env();
        let store = e.programs.unified();
        let cache = vec![e.universe.roots[2].intermediates[0].cert.clone()];
        // Per intermediate: a complete list, a lone leaf (AIA or cache
        // completion), and a list with the root ahead of the intermediate.
        let mut lists = Vec::new();
        for (ca, root) in e.universe.roots.iter().enumerate() {
            for (i, int) in root.intermediates.iter().enumerate() {
                let leaf = leaf(&e, ca, i, &format!("under-{ca}-{i}.sim"));
                lists.push(vec![leaf.clone(), int.cert.clone()]);
                lists.push(vec![leaf.clone()]);
                lists.push(vec![leaf, root.cert.clone(), int.cert.clone()]);
            }
        }
        let quiet = FaultPlan::with_fault_rate(7, 0.0);
        let plans = [
            FaultPlan::with_fault_rate(7, 1.0),
            FaultPlan {
                transient_rate: 1.0,
                ..quiet.clone()
            },
            FaultPlan {
                dead_rate: 1.0,
                ..quiet.clone()
            },
            FaultPlan {
                corrupt_rate: 1.0,
                ..quiet
            },
        ];
        let transports = || -> Vec<FaultyTransport<'_>> {
            plans
                .iter()
                .map(|p| FaultyTransport::new(&e.aia, p.clone()))
                .collect()
        };
        let (shared, solo) = (transports(), transports());
        fn with_plain<'t>(
            plain: &'t AiaRepository,
            faulty: &'t [FaultyTransport<'_>],
        ) -> Vec<Option<&'t dyn AiaTransport>> {
            [None, Some(plain as &dyn AiaTransport)]
                .into_iter()
                .chain(faulty.iter().map(|t| Some(t as &dyn AiaTransport)))
                .collect()
        }

        let harness = DifferentialHarness::new(store, None, cache.clone(), now(), &e.checker);
        let engines = client_profiles();
        let mut retries = 0;
        for served in &lists {
            let rows = harness.run_under(served, with_plain(&e.aia, &shared));
            let references = with_plain(&e.aia, &solo);
            assert_eq!(rows.len(), references.len());
            for (row, aia) in rows.iter().zip(references) {
                let ctx = BuildContext {
                    store,
                    aia,
                    cache: &cache,
                    now: now(),
                    checker: &e.checker,
                };
                assert_eq!(row.len(), engines.len());
                for ((kind, got), (expected_kind, engine)) in row.iter().zip(&engines) {
                    let want = engine.process(served, &ctx);
                    assert_eq!(kind, expected_kind);
                    let fingerprints = |o: &BuildOutcome| {
                        o.path.iter().map(|c| c.fingerprint()).collect::<Vec<_>>()
                    };
                    assert_eq!(fingerprints(got), fingerprints(&want), "{}", kind.name());
                    assert_eq!(got.verdict, want.verdict, "{}", kind.name());
                    assert_eq!(got.stats, want.stats, "{}", kind.name());
                    retries += got.stats.aia_retries;
                }
            }
        }
        for (s, o) in shared.iter().zip(&solo) {
            assert_eq!(s.costs(), o.costs());
        }
        // The sweep really exercised retries and every failure class.
        assert!(retries > 0);
        assert!(shared[1].costs().transient_failures > 0);
        assert!(shared[2].costs().dead_hits > 0);
        assert!(shared[3].costs().corrupt_hits > 0);
    }

    #[test]
    fn long_list_trips_gnutls_only() {
        let e = env();
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        let int = &e.universe.roots[0].intermediates[0];
        let mut served = vec![leaf(&e, 0, 0, "long.sim")];
        // Pad with 16 copies of the intermediate (duplicates).
        for _ in 0..16 {
            served.push(int.cert.clone());
        }
        assert!(served.len() > 16);
        let result = harness.run(&served);
        let gnutls = result
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::GnuTls)
            .unwrap();
        assert_eq!(gnutls.1.verdict, Err(ClientError::TooManyCertificates));
        let openssl = result
            .outcomes
            .iter()
            .find(|(k, _)| *k == ClientKind::OpenSsl)
            .unwrap();
        assert!(openssl.1.accepted());
        assert!(result.causes.contains(&DiscrepancyCause::ListLengthLimit));
    }

    #[test]
    fn backtracking_case_untrusted_root_first() {
        let e = env();
        // moex.gov.tw pattern: an untrusted root that identity-matches the
        // terminal intermediate sits in the list ahead of the trusted
        // continuation. Build: leaf <- X (X cross-signed by untrusted gov
        // root AND by trusted root; the gov root cert in the list).
        let g = ccc_crypto::Group::simulation_256();
        let gov_idx = e.universe.roots.iter().position(|r| !r.trusted).unwrap();
        let gov = &e.universe.roots[gov_idx];
        let trusted = &e.universe.roots[0];

        // X: intermediate with the SAME subject+key, two issuer certs.
        let x_kp = ccc_crypto::KeyPair::from_seed(g, b"diff-x");
        let x_dn = ccc_x509::DistinguishedName::cn_o("Cross Int X", "Sim");
        let x_by_gov = CertificateBuilder::ca_profile(x_dn.clone()).issued_by(
            &x_kp.public,
            gov.cert.subject().clone(),
            &gov.keypair,
        );
        let x_by_trusted = CertificateBuilder::ca_profile(x_dn.clone()).issued_by(
            &x_kp.public,
            trusted.cert.subject().clone(),
            &trusted.keypair,
        );
        let leaf_kp = ccc_crypto::KeyPair::from_seed(g, b"diff-x-leaf");
        let x_leaf =
            CertificateBuilder::leaf_profile("moex.sim").issued_by(&leaf_kp.public, x_dn, &x_kp);
        // Served: leaf, X-by-gov, gov-root, X-by-trusted — greedy clients
        // that take the first matching issuer walk into the untrusted gov
        // branch; backtrackers recover via X-by-trusted.
        let served = vec![x_leaf, x_by_gov, gov.cert.clone(), x_by_trusted];
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        let result = harness.run(&served);
        let verdicts: BTreeMap<ClientKind, bool> = result
            .outcomes
            .iter()
            .map(|(k, o)| (*k, o.accepted()))
            .collect();
        assert!(verdicts[&ClientKind::CryptoApi], "backtracker recovers");
        assert!(verdicts[&ClientKind::Chrome]);
        assert!(
            !verdicts[&ClientKind::OpenSsl] || !verdicts[&ClientKind::GnuTls],
            "at least one straight-line client should walk into the gov branch"
        );
        assert!(result.causes.contains(&DiscrepancyCause::Backtracking));
    }

    #[test]
    fn report_aggregation() {
        let e = env();
        let harness = DifferentialHarness::new(
            e.programs.unified(),
            Some(&e.aia),
            vec![],
            now(),
            &e.checker,
        );
        let int = &e.universe.roots[0].intermediates[0];
        let good = vec![leaf(&e, 0, 0, "agg1.sim"), int.cert.clone()];
        let bad = vec![leaf(&e, 1, 0, "agg2.sim")];
        let mut report = DifferentialReport::default();
        for served in [&good, &bad] {
            report.absorb(&harness.run(served));
        }
        assert_eq!(report.total, 2);
        assert_eq!(report.all_browsers_pass, 1);
        assert_eq!(report.library_failures, 1);
        assert_eq!(report.per_client_pass[&ClientKind::Chrome], 2);
        assert_eq!(report.per_client_pass[&ClientKind::OpenSsl], 1);
    }
}
