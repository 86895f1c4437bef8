//! Chain completeness analysis (paper §4.3, Tables 7 and 8).

use crate::topology::{IssuanceChecker, TopologyGraph};
use ccc_netsim::AiaRepository;
use ccc_rootstore::RootStore;
use ccc_x509::Certificate;

/// Maximum AIA fetch depth per path (real chains need 1–3).
const MAX_AIA_DEPTH: usize = 8;

/// Table 7 classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Completeness {
    /// The chain includes a self-signed (root) certificate.
    CompleteWithRoot,
    /// All intermediates present; only the root is omitted.
    CompleteWithoutRoot,
    /// At least one intermediate certificate is missing.
    Incomplete,
}

impl Completeness {
    /// Every class, in Table 7 row order.
    pub const ALL: [Completeness; 3] = [
        Completeness::CompleteWithRoot,
        Completeness::CompleteWithoutRoot,
        Completeness::Incomplete,
    ];

    /// Paper table row label.
    pub fn label(&self) -> &'static str {
        match self {
            Completeness::CompleteWithRoot => "Complete Chain w/ Root",
            Completeness::CompleteWithoutRoot => "Complete Chain w/o Root",
            Completeness::Incomplete => "Incomplete Chain",
        }
    }
}

/// Why an incomplete chain could not be completed via AIA.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum IncompleteReason {
    /// The terminal certificate has no AIA caIssuers field.
    NoAiaField,
    /// The AIA URI did not resolve.
    AiaUriDead,
    /// The AIA URI served a certificate that is not the issuer.
    AiaWrongCertificate,
    /// The AIA descent exceeded the depth limit without reaching a root.
    AiaChainNotTerminating,
}

impl IncompleteReason {
    /// Row label in the §4.3 recoverability table.
    pub fn label(&self) -> &'static str {
        match self {
            IncompleteReason::NoAiaField => "AIA field missing",
            IncompleteReason::AiaUriDead => "AIA URI dead",
            IncompleteReason::AiaWrongCertificate => "AIA served wrong certificate",
            IncompleteReason::AiaChainNotTerminating => "AIA descent not terminating",
        }
    }
}

/// How the (possibly omitted) root was located.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RootResolution {
    /// A self-signed certificate was included in the served list.
    IncludedSelfSigned,
    /// The terminal certificate's AKID matched a store root's SKID.
    StoreSkidMatch,
    /// Resolved by AIA fetching: the descent downloaded `fetches`
    /// certificates and stopped at the last one, either a self-signed root
    /// or an intermediate whose AKID a store root's SKID matches.
    AiaResolved {
        /// Number of certificates downloaded.
        fetches: usize,
    },
}

/// Result of analyzing one served list.
#[derive(Clone, Debug)]
pub struct CompletenessAnalysis {
    /// Table 7 class (best over all leaf paths).
    pub completeness: Completeness,
    /// How the root was located, when the chain is complete.
    pub resolution: Option<RootResolution>,
    /// Number of missing intermediates recovered via AIA, when the chain
    /// is incomplete but AIA-completable.
    pub missing_intermediates: usize,
    /// Whether an incomplete chain could be fully completed via AIA.
    pub aia_completable: bool,
    /// The failure reason when AIA completion failed.
    pub incomplete_reason: Option<IncompleteReason>,
}

/// Analyzer bundling the trust store and (optional) AIA repository.
#[derive(Clone, Copy, Debug)]
pub struct CompletenessAnalyzer<'a> {
    checker: &'a IssuanceChecker,
    store: &'a RootStore,
    aia: Option<&'a AiaRepository>,
}

/// Outcome of resolving one path terminal against one store.
enum TerminalOutcome {
    SelfSignedIncluded,
    SkidMatch,
    /// AIA descent anchored after `fetches` downloads, the last of them
    /// the self-signed root when `root_fetched` and otherwise an
    /// intermediate a store root SKID-matches; `in_store` records whether
    /// that anchor is in the store asked about.
    AiaRoot {
        fetches: usize,
        root_fetched: bool,
        in_store: bool,
    },
    Failed(IncompleteReason),
}

impl<'a> CompletenessAnalyzer<'a> {
    /// Build an analyzer. Pass `None` for `aia` to model clients without
    /// AIA support.
    pub fn new(
        checker: &'a IssuanceChecker,
        store: &'a RootStore,
        aia: Option<&'a AiaRepository>,
    ) -> CompletenessAnalyzer<'a> {
        CompletenessAnalyzer {
            checker,
            store,
            aia,
        }
    }

    /// Structural completeness per the paper's §3.1 method (Table 7).
    pub fn analyze(&self, served: &[Certificate]) -> CompletenessAnalysis {
        let graph = TopologyGraph::build(served, self.checker);
        self.analyze_graph(&graph)
    }

    /// Analysis over a pre-built topology graph.
    pub fn analyze_graph(&self, graph: &TopologyGraph) -> CompletenessAnalysis {
        if graph.paths.is_empty() {
            return CompletenessAnalysis {
                completeness: Completeness::Incomplete,
                resolution: None,
                missing_intermediates: 0,
                aia_completable: false,
                incomplete_reason: Some(IncompleteReason::NoAiaField),
            };
        }

        // Evaluate every path terminal; keep the best outcome.
        let mut best: Option<CompletenessAnalysis> = None;
        for path in &graph.paths {
            let terminal = &graph.nodes[*path.last().expect("non-empty")].cert;
            let outcome = self.resolve_terminal(terminal, self.store, self.aia);
            let analysis = match outcome {
                TerminalOutcome::SelfSignedIncluded => CompletenessAnalysis {
                    completeness: Completeness::CompleteWithRoot,
                    resolution: Some(RootResolution::IncludedSelfSigned),
                    missing_intermediates: 0,
                    aia_completable: true,
                    incomplete_reason: None,
                },
                TerminalOutcome::SkidMatch => CompletenessAnalysis {
                    completeness: Completeness::CompleteWithoutRoot,
                    resolution: Some(RootResolution::StoreSkidMatch),
                    missing_intermediates: 0,
                    aia_completable: true,
                    incomplete_reason: None,
                },
                TerminalOutcome::AiaRoot {
                    fetches,
                    root_fetched,
                    ..
                } => {
                    // Every download but the root was a missing
                    // intermediate; with none, only the root was omitted.
                    let missing = fetches - usize::from(root_fetched);
                    CompletenessAnalysis {
                        completeness: if missing == 0 {
                            Completeness::CompleteWithoutRoot
                        } else {
                            Completeness::Incomplete
                        },
                        resolution: Some(RootResolution::AiaResolved { fetches }),
                        missing_intermediates: missing,
                        aia_completable: true,
                        incomplete_reason: None,
                    }
                }
                TerminalOutcome::Failed(reason) => CompletenessAnalysis {
                    completeness: Completeness::Incomplete,
                    resolution: None,
                    missing_intermediates: 0,
                    aia_completable: false,
                    incomplete_reason: Some(reason),
                },
            };
            best = Some(match best.take() {
                None => analysis,
                Some(prev) => better(prev, analysis),
            });
        }
        best.expect("at least one path")
    }

    /// Client-level completeness (Table 8): can a client that trusts
    /// `store` anchor some leaf path at a root in `store`? With
    /// `with_aia` it may fetch from this analyzer's AIA repository; the
    /// analyzer's own store plays no part.
    pub fn client_complete(
        &self,
        graph: &TopologyGraph,
        store: &RootStore,
        with_aia: bool,
    ) -> bool {
        let aia = self.aia.filter(|_| with_aia);
        graph.paths.iter().any(|path| {
            let terminal = &graph.nodes[*path.last().expect("non-empty")].cert;
            match self.resolve_terminal(terminal, store, aia) {
                // An untrusted self-signed terminal ends this path: AIA
                // cannot help a self-signed certificate.
                TerminalOutcome::SelfSignedIncluded => store.contains(terminal),
                TerminalOutcome::SkidMatch => true,
                TerminalOutcome::AiaRoot { in_store, .. } => in_store,
                TerminalOutcome::Failed(_) => false,
            }
        })
    }

    /// Anchor one path terminal against `store`: a served self-signed
    /// root, else a store root whose SKID matches its AKID, else an AIA
    /// descent through `aia` that stops at the first certificate `store`
    /// anchors.
    fn resolve_terminal(
        &self,
        terminal: &Certificate,
        store: &RootStore,
        aia: Option<&AiaRepository>,
    ) -> TerminalOutcome {
        if self.checker.self_signed(terminal) {
            return TerminalOutcome::SelfSignedIncluded;
        }
        if skid_match(store, terminal) {
            return TerminalOutcome::SkidMatch;
        }
        let Some(repo) = aia else {
            return TerminalOutcome::Failed(IncompleteReason::NoAiaField);
        };
        let mut current = terminal.clone();
        let mut fetches = 0usize;
        loop {
            if fetches >= MAX_AIA_DEPTH {
                return TerminalOutcome::Failed(IncompleteReason::AiaChainNotTerminating);
            }
            let Some(uri) = current.aia_ca_issuers_uri() else {
                return TerminalOutcome::Failed(IncompleteReason::NoAiaField);
            };
            let Some(fetched) = repo.fetch(uri) else {
                return TerminalOutcome::Failed(IncompleteReason::AiaUriDead);
            };
            fetches += 1;
            if !self.checker.issues(&fetched, &current) {
                return TerminalOutcome::Failed(IncompleteReason::AiaWrongCertificate);
            }
            if self.checker.self_signed(&fetched) {
                return TerminalOutcome::AiaRoot {
                    fetches,
                    root_fetched: true,
                    in_store: store.contains(&fetched),
                };
            }
            // Also stop early if the fetched intermediate now SKID-matches
            // a store root (the client could anchor here).
            if skid_match(store, &fetched) {
                return TerminalOutcome::AiaRoot {
                    fetches,
                    root_fetched: false,
                    in_store: true,
                };
            }
            current = fetched;
        }
    }
}

/// True when a root in `store` carries the SKID named by `cert`'s AKID.
fn skid_match(store: &RootStore, cert: &Certificate) -> bool {
    match cert.akid_key_id() {
        Some(akid) => store.find_by_skid(akid).next().is_some(),
        None => false,
    }
}

/// Order analyses by quality: prefer complete-with-root, then
/// complete-without-root, then AIA-completable incompletes.
fn better(a: CompletenessAnalysis, b: CompletenessAnalysis) -> CompletenessAnalysis {
    let rank = |x: &CompletenessAnalysis| match (x.completeness, x.aia_completable) {
        (Completeness::CompleteWithRoot, _) => 0,
        (Completeness::CompleteWithoutRoot, _) => 1,
        (Completeness::Incomplete, true) => 2,
        (Completeness::Incomplete, false) => 3,
    };
    if rank(&b) < rank(&a) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_rootstore::{CaUniverse, RootProgram, RootPrograms};

    struct Env {
        universe: CaUniverse,
        programs: RootPrograms,
        aia: AiaRepository,
        checker: IssuanceChecker,
    }

    fn env() -> Env {
        let universe = CaUniverse::default_with_seed(21);
        let programs = RootPrograms::from_universe(&universe);
        let aia = AiaRepository::new(universe.aia_publications());
        Env {
            universe,
            programs,
            aia,
            checker: IssuanceChecker::new(),
        }
    }

    fn leaf_under(env: &Env, ca: usize, int: usize, domain: &str) -> Certificate {
        let intermediate = &env.universe.roots[ca].intermediates[int];
        let kp = ccc_crypto::KeyPair::from_seed(
            ccc_crypto::Group::simulation_256(),
            format!("cmpl-{domain}").as_bytes(),
        );
        ccc_x509::CertificateBuilder::leaf_profile(domain)
            .aia_ca_issuers(intermediate.aia_uri.clone())
            .issued_by(
                &kp.public,
                intermediate.cert.subject().clone(),
                &intermediate.keypair,
            )
    }

    #[test]
    fn complete_with_root() {
        let e = env();
        let leaf = leaf_under(&e, 0, 0, "cwr.sim");
        let int = &e.universe.roots[0].intermediates[0];
        let served = vec![leaf, int.cert.clone(), e.universe.roots[0].cert.clone()];
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let a = analyzer.analyze(&served);
        assert_eq!(a.completeness, Completeness::CompleteWithRoot);
        assert_eq!(a.resolution, Some(RootResolution::IncludedSelfSigned));
    }

    #[test]
    fn complete_without_root_via_skid() {
        let e = env();
        let leaf = leaf_under(&e, 0, 0, "cwor.sim");
        let int = &e.universe.roots[0].intermediates[0];
        let served = vec![leaf, int.cert.clone()];
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let a = analyzer.analyze(&served);
        assert_eq!(a.completeness, Completeness::CompleteWithoutRoot);
        assert_eq!(a.resolution, Some(RootResolution::StoreSkidMatch));
    }

    #[test]
    fn no_akid_terminal_needs_aia() {
        let e = env();
        let leaf = leaf_under(&e, 0, 0, "noakid.sim");
        let int = &e.universe.roots[0].intermediates[0];
        let served = vec![leaf, int.cert_no_akid.clone()];
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let a = analyzer.analyze(&served);
        // AIA fetches the root directly: complete without root.
        assert_eq!(a.completeness, Completeness::CompleteWithoutRoot);
        assert_eq!(
            a.resolution,
            Some(RootResolution::AiaResolved { fetches: 1 })
        );

        // Without AIA the same chain cannot be anchored.
        let analyzer_no_aia = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), None);
        let a = analyzer_no_aia.analyze(&served);
        assert_eq!(a.completeness, Completeness::Incomplete);
        assert!(!a.aia_completable);
    }

    #[test]
    fn missing_intermediate_completable_via_aia() {
        let e = env();
        let leaf = leaf_under(&e, 1, 0, "miss.sim");
        let served = vec![leaf]; // no intermediate at all
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let a = analyzer.analyze(&served);
        assert_eq!(a.completeness, Completeness::Incomplete);
        assert!(a.aia_completable);
        assert_eq!(a.missing_intermediates, 1);
        assert_eq!(
            a.resolution,
            Some(RootResolution::AiaResolved { fetches: 1 })
        );

        let analyzer_no_aia = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), None);
        let a = analyzer_no_aia.analyze(&served);
        assert!(!a.aia_completable);
        assert_eq!(a.incomplete_reason, Some(IncompleteReason::NoAiaField));
    }

    #[test]
    fn dead_aia_uri_detected() {
        let e = env();
        let leaf = leaf_under(&e, 1, 1, "dead.sim");
        let mut aia = AiaRepository::new(e.universe.aia_publications());
        let int = &e.universe.roots[1].intermediates[1];
        aia.unpublish(&int.aia_uri);
        let served = vec![leaf];
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&aia));
        let a = analyzer.analyze(&served);
        assert_eq!(a.completeness, Completeness::Incomplete);
        assert_eq!(a.incomplete_reason, Some(IncompleteReason::AiaUriDead));
    }

    #[test]
    fn wrong_aia_certificate_detected() {
        let e = env();
        let leaf = leaf_under(&e, 1, 0, "wrong.sim");
        let mut aia = AiaRepository::new(e.universe.aia_publications());
        let int = &e.universe.roots[1].intermediates[0];
        // The CAcert pattern: URI serves the certificate itself.
        aia.publish(int.aia_uri.clone(), leaf.clone());
        let served = vec![leaf];
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&aia));
        let a = analyzer.analyze(&served);
        assert_eq!(
            a.incomplete_reason,
            Some(IncompleteReason::AiaWrongCertificate)
        );
    }

    #[test]
    fn client_completeness_respects_store_exclusions() {
        let e = env();
        // A chain under the Mozilla/Chrome-excluded root.
        let mz_idx = e
            .universe
            .roots
            .iter()
            .position(|r| r.name.contains("Sim MZ"))
            .unwrap();
        let leaf = leaf_under(&e, mz_idx, 0, "excl.sim");
        let int = &e.universe.roots[mz_idx].intermediates[0];
        let served = vec![leaf, int.cert.clone()];
        let graph = TopologyGraph::build(&served, &e.checker);
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let store = |p| e.programs.store(p);

        assert!(analyzer.client_complete(&graph, e.programs.unified(), true));
        assert!(!analyzer.client_complete(&graph, store(RootProgram::Mozilla), true));
        assert!(analyzer.client_complete(&graph, store(RootProgram::Microsoft), true));
    }

    #[test]
    fn untrusted_self_signed_terminal_not_client_complete() {
        let e = env();
        let gov_idx = e.universe.roots.iter().position(|r| !r.trusted).unwrap();
        let leaf = leaf_under(&e, gov_idx, 0, "gov.sim");
        let int = &e.universe.roots[gov_idx].intermediates[0];
        let served = vec![
            leaf,
            int.cert.clone(),
            e.universe.roots[gov_idx].cert.clone(),
        ];
        let graph = TopologyGraph::build(&served, &e.checker);
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        // Structurally complete (root included)…
        assert_eq!(
            analyzer.analyze_graph(&graph).completeness,
            Completeness::CompleteWithRoot
        );
        // …but no client trusts it.
        assert!(!analyzer.client_complete(&graph, e.programs.unified(), true));
    }

    #[test]
    fn empty_list_is_incomplete() {
        let e = env();
        let analyzer = CompletenessAnalyzer::new(&e.checker, e.programs.unified(), Some(&e.aia));
        let a = analyzer.analyze(&[]);
        assert_eq!(a.completeness, Completeness::Incomplete);
    }
}
