//! Fused single-generation analysis pipeline.
//!
//! The paper's measurement loop runs *several* analyses over the same
//! corpus — structural compliance (§4), differential client construction
//! (§5), and the zlint-style lint pass — but each summary used to
//! regenerate every [`DomainObservation`] from scratch (DRBG draws,
//! certificate building, DER encoding, SHA-256 fingerprinting) once *per
//! analysis*. The pipeline sweeps the rank range **once**, generates each
//! observation a single time, and fans the borrowed observation to every
//! registered [`AnalysisPass`].
//!
//! [`Pipeline::run`], with its sub-range kernel [`run_range`], is the
//! only driver that sweeps a corpus into summaries: the table binaries,
//! the CLI, `perf_snapshot` and e2ebench all call it, with one pass or
//! several fused.
//!
//! Contract (all three are load-bearing for the equivalence tests):
//!
//! 1. **Bit-identity** — a pass fused with others produces exactly the
//!    summary it produces alone, for every thread count, because passes
//!    only *read* the shared observation and the shared
//!    [`IssuanceChecker`] cache is semantically transparent.
//! 2. **Thread invariance** — workers own rank-ordered chunks
//!    (sequential below [`PARALLEL_THRESHOLD`] domains, `div_ceil` chunks
//!    above) and partials merge in thread-index order, so results are
//!    identical for any worker count.
//! 3. **Memory bound** — a worker holds one observation at a time (each
//!    rank is visited exactly once, so nothing is worth keeping) and
//!    visits it inside one [`IssuanceChecker::scoped`] scope, so the
//!    observation's leaf pairs are dropped with it and the shared cache
//!    keeps only pairs of two CA certificates, which the CA population
//!    bounds. Whole-corpus memory is O(threads), never O(corpus).
//!
//! Adding a pass: implement [`AnalysisPass`] (see DESIGN.md §12 for the
//! contract), then hand it to [`Pipeline::run`] — tuples of passes are
//! themselves passes, so `(CompliancePass::new(), LintPass::new())` fuses
//! with no further plumbing.

use crate::{threads_from_env, CorpusSummary, DifferentialSummary};
use ccc_core::clients::ClientKind;
use ccc_core::completeness::RootResolution;
use ccc_core::leaf::cert_covers_domain;
use ccc_core::report::{count_pct, render_cache_stats, render_phase_split, TextTable};
use ccc_core::topology::CacheStats;
use ccc_core::{
    analyze_compliance_with_graph, BuildOutcome, Completeness, CompletenessAnalyzer,
    ComplianceReport, DifferentialHarness, IssuanceChecker, NonCompliance, TopologyGraph,
};
use ccc_lint::{LintEngine, LintSummary};
use ccc_netsim::{AiaTransport, FaultPlan, FaultyTransport};
use ccc_rootstore::{RootProgram, RootPrograms};
use ccc_testgen::corpus::scan_time;
use ccc_testgen::{Corpus, DomainObservation};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Corpora below this many domains always run on one worker (spawning
/// threads for tiny corpora costs more than it saves; the equivalence
/// tests straddle this value).
pub const PARALLEL_THRESHOLD: usize = 256;

/// Everything a pass may borrow for the duration of one pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct PassContext<'c> {
    /// The corpus being swept.
    pub corpus: &'c Corpus,
    /// The shared signature cache (one per run; every pass and every
    /// worker hits the same cache). During a `visit` the pipeline
    /// holds an observation scope open on it: pairs of two CA
    /// certificates are shared across the run, and any other pair is
    /// memoized for that observation only.
    pub checker: &'c IssuanceChecker,
}

/// Per-observation artifacts shared across fused passes, computed at most
/// once per observation per sweep.
///
/// The three corpus analyses all start from the same two derived values —
/// the issuance [`TopologyGraph`] over the served list and the aggregate
/// [`ComplianceReport`] — so the pipeline hands every
/// [`AnalysisPass::visit`] call a fresh memo and the *first* pass to need
/// an artifact computes it for all of them. Equality is structural: every
/// pass builds these with the same checker and the same unified-store
/// analyzer configuration, so sharing is bit-identical to recomputing
/// (the equivalence suite pins this).
///
/// Lives for exactly one observation; dropped before the next rank, so it
/// never grows the pipeline's one-observation-per-worker memory bound.
#[derive(Debug, Default)]
pub struct ObservationMemo {
    graph: OnceCell<TopologyGraph>,
    report: OnceCell<ComplianceReport>,
}

impl ObservationMemo {
    /// The issuance topology graph over `obs.served` (built on first
    /// use).
    pub fn graph(&self, obs: &DomainObservation, checker: &IssuanceChecker) -> &TopologyGraph {
        self.graph
            .get_or_init(|| TopologyGraph::build(&obs.served, checker))
    }

    /// The aggregate compliance report for `obs` (computed on first use,
    /// against the memoized graph).
    pub fn report(
        &self,
        obs: &DomainObservation,
        checker: &IssuanceChecker,
        analyzer: &CompletenessAnalyzer<'_>,
    ) -> &ComplianceReport {
        // Written without `get_or_init` so the nested `self.graph(..)`
        // init (a *different* cell) stays out of an init closure.
        if self.report.get().is_none() {
            let graph = self.graph(obs, checker);
            let report = analyze_compliance_with_graph(&obs.domain, &obs.served, graph, analyzer);
            let _ = self.report.set(report);
        }
        self.report.get().expect("initialized above")
    }
}

/// One analysis over a stream of observations.
///
/// Lifecycle: the caller constructs a *root* pass (plain accumulator, no
/// borrowed analyzers). For each worker chunk the pipeline calls
/// [`begin`](Self::begin) to fork a fresh worker-local pass (this is where
/// analyzers borrowing from the [`PassContext`] are built), feeds it every
/// observation in its rank range via [`visit`](Self::visit), then folds
/// finished workers back into the root with [`merge`](Self::merge) **in
/// rank order**. [`finish`](Self::finish) runs once on the root after the
/// last merge.
pub trait AnalysisPass<'c>: Send + Sized {
    /// Short label for metrics lines.
    fn name(&self) -> &'static str;

    /// Fork a fresh worker-local pass: empty accumulators, analyzers
    /// wired to `ctx`.
    fn begin(&self, ctx: PassContext<'c>) -> Self;

    /// Fold one observation into this worker's accumulator. Observations
    /// arrive in strictly increasing rank order within a worker. `memo`
    /// carries the per-observation artifacts (topology graph, compliance
    /// report) shared by every fused pass — prefer its accessors over
    /// recomputing.
    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo);

    /// Fold a finished worker into `self`. Workers are merged in
    /// rank-chunk order, so order-sensitive state (first-example maps,
    /// finding lists) stays deterministic.
    fn merge(&mut self, other: Self);

    /// Hook that runs once on the root pass after all workers merged.
    fn finish(&mut self, ctx: PassContext<'c>) {
        let _ = ctx;
    }

    /// How many leaf passes this value fans out to (tuples sum their
    /// members; used for the "consumed by N passes" metric).
    fn pass_count(&self) -> usize {
        1
    }
}

macro_rules! impl_pass_for_tuple {
    ($($p:ident . $idx:tt),+) => {
        impl<'c, $($p: AnalysisPass<'c>),+> AnalysisPass<'c> for ($($p,)+) {
            fn name(&self) -> &'static str {
                "fused"
            }
            fn begin(&self, ctx: PassContext<'c>) -> Self {
                ($(self.$idx.begin(ctx),)+)
            }
            fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
                $(self.$idx.visit(obs, memo);)+
            }
            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }
            fn finish(&mut self, ctx: PassContext<'c>) {
                $(self.$idx.finish(ctx);)+
            }
            fn pass_count(&self) -> usize {
                0 $(+ self.$idx.pass_count())+
            }
        }
    };
}

impl_pass_for_tuple!(A.0, B.1);
impl_pass_for_tuple!(A.0, B.1, C.2);
impl_pass_for_tuple!(A.0, B.1, C.2, D.3);

/// Per-phase accounting for one [`Pipeline::run`].
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// Observations generated (each exactly once).
    pub observations: usize,
    /// Leaf passes the stream fanned out to.
    pub passes: usize,
    /// Worker count the sweep actually used.
    pub threads: usize,
    /// Time spent generating observations, summed across workers (CPU
    /// time, so it can exceed `wall` on multi-core sweeps).
    pub generation: Duration,
    /// Time spent inside `visit`, summed across workers.
    pub analysis: Duration,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Signature-cache counter delta over the run (hits scored by any
    /// pass count here — fused runs show the cross-pass savings).
    pub cache: CacheStats,
}

impl PipelineStats {
    /// Multi-line human rendering: the generation/analysis split, the
    /// worker count and the cache-stat delta, in `render_cache_stats`
    /// style.
    pub fn render(&self) -> String {
        format!(
            "{}\nworkers: {}\n{}",
            render_phase_split(
                self.generation,
                self.analysis,
                self.observations,
                self.passes
            ),
            self.threads,
            render_cache_stats(&self.cache)
        )
    }
}

/// `ccc-obs` registry handles for the pipeline-phase metrics, recorded
/// once per [`Pipeline::run`]. Observation/pass totals are stable (fixed
/// by the workload); the phase durations and worker gauge are wall-clock
/// and scheduling artifacts, so they register volatile.
struct PipelineMetrics {
    runs: &'static ccc_obs::Counter,
    observations: &'static ccc_obs::Counter,
    passes: &'static ccc_obs::Counter,
    threads: &'static ccc_obs::Gauge,
    generation_us: &'static ccc_obs::Counter,
    analysis_us: &'static ccc_obs::Counter,
    wall_us: &'static ccc_obs::Counter,
}

fn pipeline_metrics() -> &'static PipelineMetrics {
    static METRICS: OnceLock<PipelineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = ccc_obs::MetricsRegistry::global();
        PipelineMetrics {
            runs: reg.counter("ccc_pipeline_runs_total", "Fused pipeline sweeps executed."),
            observations: reg.counter(
                "ccc_pipeline_observations_total",
                "Observations generated across all sweeps (each exactly once per sweep).",
            ),
            passes: reg.counter(
                "ccc_pipeline_passes_total",
                "Leaf analysis passes fanned out to, summed over sweeps.",
            ),
            threads: reg.gauge_volatile(
                "ccc_pipeline_threads",
                "Worker count of the most recent sweep (volatile).",
            ),
            generation_us: reg.counter_volatile(
                "ccc_pipeline_generation_us_total",
                "Observation-generation CPU microseconds, summed across workers (volatile).",
            ),
            analysis_us: reg.counter_volatile(
                "ccc_pipeline_analysis_us_total",
                "Pass-visit CPU microseconds, summed across workers (volatile).",
            ),
            wall_us: reg.counter_volatile(
                "ccc_pipeline_wall_us_total",
                "End-to-end sweep wall microseconds (volatile).",
            ),
        }
    })
}

/// Register every metric family the library publishes (builder, netsim
/// fetch, pipeline and verify routes), so an exposition dump enumerates
/// them, at zero if need be, whichever paths the workload took.
pub fn touch_all_metrics() {
    let _ = pipeline_metrics();
    ccc_core::builder::touch_build_metrics();
    ccc_netsim::touch_fetch_metrics();
    // Reading the route stats registers the verify-route family.
    let _ = ccc_crypto::verify_stats();
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Publish one finished sweep's phase split to the process-global
/// registry (the same numbers `PipelineStats::render` prints).
fn record_pipeline_stats(stats: &PipelineStats) {
    let m = pipeline_metrics();
    m.runs.inc();
    m.observations.add(stats.observations as u64);
    m.passes.add(stats.passes as u64);
    m.threads.set(stats.threads as u64);
    m.generation_us.add(duration_us(stats.generation));
    m.analysis_us.add(duration_us(stats.analysis));
    m.wall_us.add(duration_us(stats.wall));
}

/// The fused sweep executor. Construct with an explicit worker count
/// ([`Pipeline::new`]) or from `CCC_THREADS` ([`Pipeline::from_env`]).
#[derive(Clone, Copy, Debug)]
pub struct Pipeline {
    threads: usize,
}

impl Pipeline {
    /// A pipeline with an explicit worker count (values ≤ 1 run the
    /// sweep on the calling thread).
    pub fn new(threads: usize) -> Pipeline {
        Pipeline { threads }
    }

    /// Worker count from [`threads_from_env`]: `CCC_THREADS`, else
    /// detected cores capped at 16. A `CCC_THREADS` value that is not an
    /// integer from 1 to [`MAX_THREADS`](crate::MAX_THREADS) is an error.
    pub fn from_env() -> Result<Pipeline, String> {
        threads_from_env().map(Pipeline::new)
    }

    /// The worker count this pipeline will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sweep the whole corpus once, generating each observation a single
    /// time and fanning it to every pass in `root`. Returns the merged
    /// root pass and the per-phase stats.
    pub fn run<'c, P: AnalysisPass<'c>>(
        &self,
        corpus: &'c Corpus,
        checker: &'c IssuanceChecker,
        mut root: P,
    ) -> (P, PipelineStats) {
        let domains = corpus.spec.domains;
        let ctx = PassContext { corpus, checker };
        let cache_before = checker.snapshot_stats();
        let _span = ccc_obs::span!("pipeline.run");
        let wall_start = Instant::now();
        let mut generation = Duration::ZERO;
        let mut analysis = Duration::ZERO;
        let threads = if self.threads <= 1 || domains < PARALLEL_THRESHOLD {
            let worker = root.begin(ctx);
            let (worker, g, a) = run_chunk(ctx, worker, 0, domains);
            root.merge(worker);
            generation += g;
            analysis += a;
            1
        } else {
            // Rank-ordered `div_ceil` chunks partitioning 0..domains. When
            // the thread count does not divide evenly, fewer chunks than
            // threads may cover the range, and only those get a worker.
            let chunk = domains.div_ceil(self.threads);
            let ranges: Vec<(usize, usize)> = (0..domains)
                .step_by(chunk)
                .map(|start| (start, (start + chunk).min(domains)))
                .collect();
            let workers: Vec<(P, Duration, Duration)> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|&(start, end)| {
                        let worker = root.begin(ctx);
                        scope.spawn(move || run_chunk(ctx, worker, start, end))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pipeline worker panicked"))
                    .collect()
            });
            // Rank-order merge: workers were spawned in chunk order.
            for (worker, g, a) in workers {
                root.merge(worker);
                generation += g;
                analysis += a;
            }
            ranges.len()
        };
        root.finish(ctx);
        let stats = PipelineStats {
            observations: domains,
            passes: root.pass_count(),
            threads,
            generation,
            analysis,
            wall: wall_start.elapsed(),
            cache: checker.snapshot_stats().since(&cache_before),
        };
        record_pipeline_stats(&stats);
        (root, stats)
    }
}

/// Run a forked worker pass over one rank range on the calling thread
/// (the kernel each [`Pipeline::run`] worker executes). Each observation
/// is generated once, consumed by reference, and dropped before the next
/// rank.
pub fn run_range<'c, P: AnalysisPass<'c>>(
    corpus: &'c Corpus,
    checker: &'c IssuanceChecker,
    start: usize,
    end: usize,
    root: P,
) -> P {
    let ctx = PassContext { corpus, checker };
    let worker = root.begin(ctx);
    run_chunk(ctx, worker, start, end).0
}

fn run_chunk<'c, P: AnalysisPass<'c>>(
    ctx: PassContext<'c>,
    mut worker: P,
    start: usize,
    end: usize,
) -> (P, Duration, Duration) {
    let mut generation = Duration::ZERO;
    let mut analysis = Duration::ZERO;
    for rank in start..end {
        let gen_start = Instant::now();
        let obs = ctx.corpus.observation(rank);
        let visit_start = Instant::now();
        let memo = ObservationMemo::default();
        // One checker scope per observation: its leaf pairs are memoized
        // for this visit only, so the shared cache keeps just CA pairs.
        ctx.checker.scoped(|| worker.visit(&obs, &memo));
        generation += visit_start.duration_since(gen_start);
        analysis += visit_start.elapsed();
    }
    (worker, generation, analysis)
}

// ---------------------------------------------------------------------
// Pass implementations for the three corpus analyses.
// ---------------------------------------------------------------------

/// Worker-local state for the structural-compliance pass (built in
/// `begin`, absent on the root accumulator): one analyzer (unified store,
/// with AIA) answers Table 7 and, store by store, Table 8.
#[derive(Debug)]
struct ComplianceState<'c> {
    checker: &'c IssuanceChecker,
    analyzer: CompletenessAnalyzer<'c>,
    programs: &'c RootPrograms,
}

/// [`AnalysisPass`] computing [`CorpusSummary`] (Tables 3, 5, 7, 8, 10,
/// 11): the structural §4 analyses.
#[derive(Debug, Default)]
pub struct CompliancePass<'c> {
    state: Option<ComplianceState<'c>>,
    /// The accumulated summary (complete once the pipeline returns).
    pub summary: CorpusSummary,
}

impl<'c> CompliancePass<'c> {
    /// A fresh root accumulator.
    pub fn new() -> CompliancePass<'c> {
        CompliancePass::default()
    }

    /// Consume the pass, yielding the summary.
    pub fn into_summary(self) -> CorpusSummary {
        self.summary
    }
}

impl<'c> AnalysisPass<'c> for CompliancePass<'c> {
    fn name(&self) -> &'static str {
        "compliance"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let corpus = ctx.corpus;
        let checker = ctx.checker;
        let analyzer =
            CompletenessAnalyzer::new(checker, corpus.programs.unified(), Some(&corpus.aia));
        CompliancePass {
            state: Some(ComplianceState {
                checker,
                analyzer,
                programs: &corpus.programs,
            }),
            summary: CorpusSummary::default(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let st = self
            .state
            .as_ref()
            .expect("visit is only called on forked workers");
        let s = &mut self.summary;
        s.total += 1;
        let report = memo.report(obs, st.checker, &st.analyzer);
        *s.placement.entry(report.leaf_placement).or_insert(0) += 1;
        *s.completeness
            .entry(report.completeness.completeness)
            .or_insert(0) += 1;
        s.longest_list = s.longest_list.max(obs.served.len());

        let order = &report.order;
        let mut any_order = false;
        if order.has_duplicates() {
            s.dup_chains += 1;
            any_order = true;
            if order.duplicates.leaf > 0 {
                s.dup_leaf_chains += 1;
            }
            if order.duplicates.intermediate > 0 {
                s.dup_intermediate_chains += 1;
            }
            if order.duplicates.root > 0 {
                s.dup_root_chains += 1;
            }
        }
        if order.has_irrelevant() {
            s.irrelevant_chains += 1;
            any_order = true;
        }
        if order.has_multiple_paths() {
            s.multipath_chains += 1;
            any_order = true;
        }
        if order.has_reversed() {
            s.reversed_chains += 1;
            any_order = true;
            if order.all_paths_reversed {
                s.all_paths_reversed_chains += 1;
            }
        }
        if any_order {
            s.order_noncompliant += 1;
        }
        if !report.is_compliant() {
            s.noncompliant += 1;
        }

        let comp = &report.completeness;
        if comp.completeness == Completeness::Incomplete {
            if comp.aia_completable {
                s.aia_completable += 1;
                if comp.missing_intermediates == 1 {
                    s.missing_single_intermediate += 1;
                }
            } else if let Some(reason) = comp.incomplete_reason {
                *s.incomplete_reasons.entry(reason).or_insert(0) += 1;
            }
        }
        if let Some(RootResolution::AiaResolved { .. }) = comp.resolution {
            s.root_via_aia += 1;
        }

        // Table 8: the same anchoring against each store, with and
        // without AIA.
        let graph = memo.graph(obs, st.checker);
        let unified = st.programs.unified();
        if !st.analyzer.client_complete(graph, unified, true) {
            s.unified_incomplete_with_aia += 1;
        }
        if !st.analyzer.client_complete(graph, unified, false) {
            s.unified_incomplete_without_aia += 1;
        }
        for program in RootProgram::ALL {
            let store = st.programs.store(program);
            let entry = s.store_completeness.entry(program).or_default();
            if !st.analyzer.client_complete(graph, store, true) {
                entry.incomplete_with_aia += 1;
            }
            if !st.analyzer.client_complete(graph, store, false) {
                entry.incomplete_without_aia += 1;
            }
        }

        // Tables 10/11 cross-tabs.
        let server_label = obs.server.display_name();
        let ca_label = obs.ca;
        for bucket in [
            s.by_server.entry(server_label).or_default(),
            s.by_ca.entry(ca_label).or_default(),
        ] {
            bucket.total += 1;
            if !report.is_compliant() {
                bucket.any += 1;
            }
            for finding in &report.findings {
                match finding {
                    NonCompliance::DuplicateCertificates => {
                        bucket.duplicates += 1;
                        if order.duplicates.leaf > 0 {
                            bucket.duplicate_leaf += 1;
                        }
                    }
                    NonCompliance::IrrelevantCertificates => bucket.irrelevant += 1,
                    NonCompliance::MultiplePaths => bucket.multipath += 1,
                    NonCompliance::ReversedSequence => bucket.reversed += 1,
                    NonCompliance::IncompleteChain => bucket.incomplete += 1,
                    NonCompliance::LeafMisplaced => {}
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(other.summary);
    }
}

/// Worker-local state for the differential pass.
#[derive(Debug)]
struct DifferentialState<'c> {
    checker: &'c IssuanceChecker,
    analyzer: CompletenessAnalyzer<'c>,
    harness: DifferentialHarness<'c>,
}

/// [`AnalysisPass`] computing [`DifferentialSummary`] (§5.2, Tables 8–9):
/// all eight client engines over every observation.
#[derive(Debug, Default)]
pub struct DifferentialPass<'c> {
    state: Option<DifferentialState<'c>>,
    /// The accumulated summary.
    pub summary: DifferentialSummary,
}

impl<'c> DifferentialPass<'c> {
    /// A fresh root accumulator.
    pub fn new() -> DifferentialPass<'c> {
        DifferentialPass::default()
    }

    /// Consume the pass, yielding the summary.
    pub fn into_summary(self) -> DifferentialSummary {
        self.summary
    }
}

impl<'c> AnalysisPass<'c> for DifferentialPass<'c> {
    fn name(&self) -> &'static str {
        "differential"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let corpus = ctx.corpus;
        let checker = ctx.checker;
        let analyzer =
            CompletenessAnalyzer::new(checker, corpus.programs.unified(), Some(&corpus.aia));
        let harness = DifferentialHarness::new(
            corpus.programs.unified(),
            Some(&corpus.aia),
            corpus.intermediate_cache(),
            scan_time(),
            checker,
        );
        DifferentialPass {
            state: Some(DifferentialState {
                checker,
                analyzer,
                harness,
            }),
            summary: DifferentialSummary::default(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let st = self
            .state
            .as_ref()
            .expect("visit is only called on forked workers");
        let s = &mut self.summary;
        s.corpus_total += 1;
        let compliance = memo.report(obs, st.checker, &st.analyzer);
        // Domain-aware run: hostname mismatches count as failures in
        // every client (the paper's availability numbers include
        // domain-mismatch and date errors, not just chain building).
        let result = st.harness.run_for_domain(&obs.served, &obs.domain);
        let lib_fail = result
            .outcomes
            .iter()
            .any(|(k, o)| !k.is_browser() && !o.accepted());
        let browser_fail = result
            .outcomes
            .iter()
            .any(|(k, o)| k.is_browser() && !o.accepted());
        if lib_fail {
            s.corpus_library_failures += 1;
        }
        if browser_fail {
            s.corpus_browser_failures += 1;
        }
        if compliance.is_compliant() {
            return;
        }
        for cause in &result.causes {
            s.cause_examples
                .entry(*cause)
                .or_insert_with(|| obs.domain.clone());
        }
        s.report.absorb(&result);
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(other.summary);
    }
}

/// [`AnalysisPass`] computing [`LintSummary`]: the full rule registry plus
/// the "non-compliant ⇔ ≥1 error finding" cross-check per chain.
///
/// Lives here (not in `ccc-lint`) because the pipeline is a `ccc-bench`
/// facility and `ccc-bench` already depends on `ccc-lint`; the pass is a
/// thin adapter over the public [`LintEngine`] /
/// [`LintSummary::absorb_chain`] API, and the equivalence suite pins it
/// bit-identical to the plain per-chain loop of
/// [`LintSummary::compute_range`].
#[derive(Debug, Default)]
pub struct LintPass<'c> {
    engine: Option<LintEngine<'c>>,
    /// The accumulated summary.
    pub summary: LintSummary,
}

impl<'c> LintPass<'c> {
    /// A fresh root accumulator.
    pub fn new() -> LintPass<'c> {
        LintPass::default()
    }

    /// Consume the pass, yielding the summary.
    pub fn into_summary(self) -> LintSummary {
        self.summary
    }
}

impl<'c> AnalysisPass<'c> for LintPass<'c> {
    fn name(&self) -> &'static str {
        "lint"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        LintPass {
            engine: Some(LintEngine::new(
                ctx.checker,
                ctx.corpus.programs.unified(),
                Some(&ctx.corpus.aia),
                scan_time(),
            )),
            summary: LintSummary::default(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let engine = self
            .engine
            .as_ref()
            .expect("visit is only called on forked workers");
        let graph = memo.graph(obs, engine.checker());
        let report = memo.report(obs, engine.checker(), engine.analyzer());
        let findings = engine.lint_prepared(&obs.domain, &obs.served, graph, report);
        self.summary.total += 1;
        self.summary.absorb_chain(&obs.domain, report, findings);
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(other.summary);
    }
}

// ---------------------------------------------------------------------
// Fault-injection (chaos) pass: I-4 availability as fault rate × retry
// policy across the eight client profiles.
// ---------------------------------------------------------------------

/// One fault-injection scenario in a chaos sweep: a display label, the
/// overall fault rate, and the concrete seeded [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultScenario {
    /// Row label in the chaos table.
    pub label: String,
    /// Overall AIA fault rate the plan was built with.
    pub fault_rate: f64,
    /// The seeded plan (fetch outcomes are a pure function of the plan
    /// seed, the URI, and the attempt number — never of thread timing).
    pub plan: FaultPlan,
}

impl FaultScenario {
    /// A scenario over the corpus's own seed at an explicit rate.
    pub fn for_corpus(corpus: &Corpus, fault_rate: f64) -> FaultScenario {
        FaultScenario {
            label: if fault_rate <= 0.0 {
                "baseline".to_string()
            } else {
                format!("fault {:.0}%", fault_rate * 100.0)
            },
            fault_rate,
            plan: corpus.fault_plan_with_rate(fault_rate),
        }
    }

    /// Fault rates of the standard sweep: zero-fault baseline, moderate,
    /// and heavy.
    pub const STANDARD_RATES: [f64; 3] = [0.0, 0.1, 0.3];

    /// One scenario per rate. Plans draw from the corpus seed unless
    /// `fault_seed` is given, which decouples the fault draw from the
    /// corpus (sweeping plans over one fixed corpus).
    pub fn sweep(corpus: &Corpus, rates: &[f64], fault_seed: Option<u64>) -> Vec<FaultScenario> {
        rates
            .iter()
            .map(|&rate| {
                let mut sc = FaultScenario::for_corpus(corpus, rate);
                sc.plan.seed = fault_seed.unwrap_or(sc.plan.seed);
                sc
            })
            .collect()
    }

    /// Parse a comma-separated rate list such as `0.0,0.1,0.3` (the
    /// `--rates` value of `table_chaos` and `chain-chaos chaos`). Every
    /// rate must be a number in `[0, 1]`: NaN, infinities and values
    /// outside the range are rejected with an error naming the value.
    pub fn parse_rates(list: &str) -> Result<Vec<f64>, String> {
        list.split(',')
            .map(|r| match r.trim().parse::<f64>() {
                Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
                Ok(_) => Err(format!("rate '{r}' is not in [0, 1]")),
                Err(_) => Err(format!("bad rate '{r}'")),
            })
            .collect()
    }

    /// The standard chaos sweep: [`STANDARD_RATES`](Self::STANDARD_RATES)
    /// over the corpus seed.
    pub fn standard_sweep(corpus: &Corpus) -> Vec<FaultScenario> {
        FaultScenario::sweep(corpus, &FaultScenario::STANDARD_RATES, None)
    }
}

/// Per-(scenario, client) chaos counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosClientCell {
    /// Chains this client accepted (including the hostname check, like
    /// the differential availability numbers).
    pub passes: usize,
    /// Accepted chains whose build needed at least one AIA retry — chains
    /// a non-retrying profile would have lost to the same fault plan.
    pub recovered: usize,
    /// Sum of [`ccc_core::BuildStats::aia_attempts`].
    pub aia_attempts: usize,
    /// Sum of [`ccc_core::BuildStats::aia_fetches`].
    pub aia_fetches: usize,
    /// Sum of [`ccc_core::BuildStats::aia_retries`].
    pub aia_retries: usize,
    /// Builds whose retry budget ran out.
    pub budget_exhausted: usize,
    /// Total simulated milliseconds spent on AIA latency + backoff.
    pub sim_latency_ms: u64,
}

impl ChaosClientCell {
    fn absorb(&mut self, outcome: &BuildOutcome, covers_domain: bool) {
        let pass = outcome.accepted() && covers_domain;
        if pass {
            self.passes += 1;
            if outcome.stats.aia_retries > 0 {
                self.recovered += 1;
            }
        }
        self.aia_attempts += outcome.stats.aia_attempts;
        self.aia_fetches += outcome.stats.aia_fetches;
        self.aia_retries += outcome.stats.aia_retries;
        if outcome.stats.aia_budget_exhausted {
            self.budget_exhausted += 1;
        }
        self.sim_latency_ms += outcome.stats.sim_latency_ms;
    }

    fn merge(&mut self, other: ChaosClientCell) {
        self.passes += other.passes;
        self.recovered += other.recovered;
        self.aia_attempts += other.aia_attempts;
        self.aia_fetches += other.aia_fetches;
        self.aia_retries += other.aia_retries;
        self.budget_exhausted += other.budget_exhausted;
        self.sim_latency_ms += other.sim_latency_ms;
    }
}

/// Chaos counters for one scenario across all eight clients.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenarioSummary {
    /// Scenario label.
    pub label: String,
    /// The scenario's overall fault rate.
    pub fault_rate: f64,
    /// Per-client counters (Table 9 client order via `ClientKind::ALL`).
    pub per_client: BTreeMap<ClientKind, ChaosClientCell>,
}

/// The chaos sweep result: per-scenario, per-client availability under
/// deterministic fault injection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosSummary {
    /// Observations swept (identical for every scenario).
    pub total: usize,
    /// One entry per [`FaultScenario`], in scenario order.
    pub scenarios: Vec<ChaosScenarioSummary>,
}

impl ChaosSummary {
    fn empty_for(scenarios: &[FaultScenario]) -> ChaosSummary {
        ChaosSummary {
            total: 0,
            scenarios: scenarios
                .iter()
                .map(|sc| ChaosScenarioSummary {
                    label: sc.label.clone(),
                    fault_rate: sc.fault_rate,
                    per_client: ClientKind::ALL
                        .iter()
                        .map(|&k| (k, ChaosClientCell::default()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Fold another (worker) summary into this one.
    pub fn merge(&mut self, other: ChaosSummary) {
        if self.scenarios.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(self.scenarios.len(), other.scenarios.len());
        self.total += other.total;
        for (mine, theirs) in self.scenarios.iter_mut().zip(other.scenarios) {
            for (kind, cell) in theirs.per_client {
                mine.per_client.entry(kind).or_default().merge(cell);
            }
        }
    }

    /// Render the I-4 availability table (one row per scenario × client).
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(
            format!(
                "I-4 availability under deterministic fault injection ({} chains)",
                self.total
            ),
            &[
                "scenario",
                "client",
                "pass",
                "recovered",
                "attempts",
                "fetches",
                "retries",
                "budget out",
                "sim ms",
            ],
        );
        for scenario in &self.scenarios {
            for kind in ClientKind::ALL {
                let cell = scenario.per_client.get(&kind).copied().unwrap_or_default();
                table.row(&[
                    format!("{} (r={:.2})", scenario.label, scenario.fault_rate),
                    kind.name().to_string(),
                    count_pct(cell.passes, self.total),
                    cell.recovered.to_string(),
                    cell.aia_attempts.to_string(),
                    cell.aia_fetches.to_string(),
                    cell.aia_retries.to_string(),
                    cell.budget_exhausted.to_string(),
                    cell.sim_latency_ms.to_string(),
                ]);
            }
        }
        table.render()
    }

    /// One line per scenario: AIA retries, chains recovered by retrying
    /// clients, and retry-budget exhaustions, summed over all clients.
    pub fn render_totals(&self) -> String {
        let mut out = String::new();
        for scenario in &self.scenarios {
            let cells = scenario.per_client.values();
            let recovered: usize = cells.clone().map(|c| c.recovered).sum();
            let retries: usize = cells.clone().map(|c| c.aia_retries).sum();
            let exhausted: usize = cells.map(|c| c.budget_exhausted).sum();
            let _ = writeln!(
                out,
                "{}: {} retr{}, {} chain(s) recovered by retrying clients, {} budget exhaustion(s)",
                scenario.label,
                retries,
                if retries == 1 { "y" } else { "ies" },
                recovered,
                exhausted
            );
        }
        out
    }
}

/// Worker-local state for the fault pass: one differential harness (the
/// eight client engines) plus one [`FaultyTransport`] per scenario, all
/// wrapping the corpus's AIA repository.
#[derive(Debug)]
struct FaultState<'c> {
    harness: DifferentialHarness<'c>,
    transports: Vec<FaultyTransport<'c>>,
}

/// [`AnalysisPass`] sweeping every observation through every
/// (fault scenario × client profile) pair.
///
/// One [`DifferentialHarness::run_under`] call per observation yields all
/// (scenario × client) outcomes, so the candidate pool, store lookups and
/// path validations are shared by every build of that observation.
///
/// Determinism: each fetch outcome is a pure function of the scenario's
/// plan seed, the URI, and the attempt number, and retry backoff runs on
/// the per-build simulated clock, so the accumulated [`ChaosSummary`] is
/// bit-identical for any `CCC_THREADS` worker count (the cells are sums
/// over per-observation values, merged in rank order).
#[derive(Debug, Default)]
pub struct FaultPass<'c> {
    scenarios: Vec<FaultScenario>,
    state: Option<FaultState<'c>>,
    /// The accumulated chaos summary.
    pub summary: ChaosSummary,
}

impl<'c> FaultPass<'c> {
    /// A fresh root accumulator over the given scenarios.
    pub fn new(scenarios: Vec<FaultScenario>) -> FaultPass<'c> {
        let summary = ChaosSummary::empty_for(&scenarios);
        FaultPass {
            scenarios,
            state: None,
            summary,
        }
    }

    /// Consume the pass, yielding the summary.
    pub fn into_summary(self) -> ChaosSummary {
        self.summary
    }
}

impl<'c> AnalysisPass<'c> for FaultPass<'c> {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let transports = self
            .scenarios
            .iter()
            .map(|sc| FaultyTransport::new(&ctx.corpus.aia, sc.plan.clone()))
            .collect();
        let harness = DifferentialHarness::new(
            ctx.corpus.programs.unified(),
            None,
            ctx.corpus.intermediate_cache(),
            scan_time(),
            ctx.checker,
        );
        FaultPass {
            scenarios: self.scenarios.clone(),
            state: Some(FaultState {
                harness,
                transports,
            }),
            summary: ChaosSummary::empty_for(&self.scenarios),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, _memo: &ObservationMemo) {
        let st = self
            .state
            .as_ref()
            .expect("visit is only called on forked workers");
        self.summary.total += 1;
        let covers = obs
            .served
            .first()
            .map(|leaf| cert_covers_domain(leaf, &obs.domain))
            .unwrap_or(false);
        let transports = st.transports.iter().map(|t| Some(t as &dyn AiaTransport));
        let rows = st.harness.run_under(&obs.served, transports);
        for (scenario, outcomes) in self.summary.scenarios.iter_mut().zip(&rows) {
            for (kind, outcome) in outcomes {
                scenario
                    .per_client
                    .get_mut(kind)
                    .expect("prefilled for all clients")
                    .absorb(outcome, covers);
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(other.summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_corpus;

    #[test]
    fn fused_tuple_matches_standalone_passes() {
        let corpus = scan_corpus(120);
        let fused_checker = IssuanceChecker::new();
        let ((compliance, lint), stats) = Pipeline::new(1).run(
            &corpus,
            &fused_checker,
            (CompliancePass::new(), LintPass::new()),
        );
        assert_eq!(stats.observations, 120);
        assert_eq!(stats.passes, 2);
        assert_eq!(stats.threads, 1);

        let checker = IssuanceChecker::new();
        let (solo, _) = Pipeline::new(1).run(&corpus, &checker, CompliancePass::new());
        assert_eq!(compliance.into_summary(), solo.into_summary());
        let checker = IssuanceChecker::new();
        assert_eq!(
            lint.into_summary(),
            LintSummary::compute_range(&corpus, &checker, 0, 120)
        );
    }

    #[test]
    fn pipeline_stats_render_mentions_phases_and_cache() {
        let corpus = scan_corpus(40);
        let checker = IssuanceChecker::new();
        let (_pass, stats) = Pipeline::new(1).run(&corpus, &checker, CompliancePass::new());
        let text = stats.render();
        assert!(text.contains("generated once"), "{text}");
        assert!(text.contains("workers: 1"), "{text}");
        assert!(text.contains("signature cache"), "{text}");
        assert!(text.contains("generation"), "{text}");
        assert!(text.contains("analysis"), "{text}");
    }

    #[test]
    fn only_workers_with_ranks_are_spawned() {
        // 256 domains over 30 threads: chunks of 9 ranks, so 29 chunks
        // cover the corpus and the 30th thread would own nothing.
        let corpus = scan_corpus(PARALLEL_THRESHOLD);
        let checker = IssuanceChecker::new();
        let (wide, stats) = Pipeline::new(30).run(&corpus, &checker, CompliancePass::new());
        assert_eq!(stats.threads, 29);
        let checker = IssuanceChecker::new();
        let (one, _) = Pipeline::new(1).run(&corpus, &checker, CompliancePass::new());
        assert_eq!(wide.into_summary(), one.into_summary());
    }

    #[test]
    fn zero_domain_corpus_runs_without_touching_the_cache() {
        // An empty rank range generates nothing and visits nothing; the
        // empty fused sweep must still agree with single-pass sweeps and
        // the plain lint loop on an empty corpus.
        let corpus = scan_corpus(0);
        let checker = IssuanceChecker::new();
        let ((compliance, lint), stats) =
            Pipeline::new(1).run(&corpus, &checker, (CompliancePass::new(), LintPass::new()));
        assert_eq!(stats.observations, 0);
        assert_eq!(stats.cache.lookups, 0, "empty sweep touched the cache");

        let solo = IssuanceChecker::new();
        let (alone, _) = Pipeline::new(1).run(&corpus, &solo, CompliancePass::new());
        assert_eq!(compliance.into_summary(), alone.into_summary());
        assert_eq!(
            lint.into_summary(),
            LintSummary::compute_range(&corpus, &solo, 0, 0)
        );
    }

    /// `(full, split)` for one pass: `[0,n)` on one checker, and
    /// `[0,k) ⊕ [k,k) ⊕ [k,n)` folded with `merge` on another.
    fn full_and_split<'c, P: AnalysisPass<'c>>(
        corpus: &'c Corpus,
        checkers: &'c [IssuanceChecker; 2],
        root: impl Fn() -> P,
    ) -> (P, P) {
        let n = corpus.spec.domains;
        let k = n / 2;
        let full = run_range(corpus, &checkers[0], 0, n, root());
        let mut split = run_range(corpus, &checkers[1], 0, k, root());
        split.merge(run_range(corpus, &checkers[1], k, k, root()));
        split.merge(run_range(corpus, &checkers[1], k, n, root()));
        (full, split)
    }

    #[test]
    fn empty_rank_range_matches_full_range_merge() {
        // For every stock pass, `run_range` with `start == end` is a strict
        // no-op and `merge` folds every field of the later partial, totals
        // included: [0,n) == [0,k) ⊕ [k,k) ⊕ [k,n).
        let corpus = scan_corpus(24);
        let checkers = || [IssuanceChecker::new(), IssuanceChecker::new()];

        let c = checkers();
        let (full, split) = full_and_split(&corpus, &c, CompliancePass::new);
        assert_eq!(full.summary.total, 24);
        assert_eq!(full.into_summary(), split.into_summary());

        let c = checkers();
        let (full, split) = full_and_split(&corpus, &c, DifferentialPass::new);
        assert_eq!(full.summary.corpus_total, 24);
        assert_eq!(full.into_summary(), split.into_summary());

        let c = checkers();
        let (full, split) = full_and_split(&corpus, &c, LintPass::new);
        assert_eq!(full.summary.total, 24);
        assert_eq!(full.into_summary(), split.into_summary());

        let c = checkers();
        let scenarios = FaultScenario::standard_sweep(&corpus);
        let (full, split) = full_and_split(&corpus, &c, || FaultPass::new(scenarios.clone()));
        assert_eq!(full.summary.total, 24);
        assert_eq!(full.into_summary(), split.into_summary());
    }

    #[test]
    fn fault_sweep_helpers_match_the_front_ends() {
        let corpus = scan_corpus(4);
        let own = FaultScenario::sweep(&corpus, &[0.0, 0.3], None);
        assert_eq!(own[0].plan, corpus.fault_plan_with_rate(0.0));
        assert_eq!(own[1].plan, corpus.fault_plan_with_rate(0.3));
        let seeded = FaultScenario::sweep(&corpus, &[0.0, 0.3], Some(99));
        assert_eq!(seeded[0].plan, FaultPlan::zero(99));
        assert_eq!(seeded[1].plan, FaultPlan::with_fault_rate(99, 0.3));
        assert_eq!(seeded[1].label, "fault 30%");
        assert_eq!(
            FaultScenario::parse_rates(" 0,0.1,1"),
            Ok(vec![0.0, 0.1, 1.0])
        );
        assert!(FaultScenario::parse_rates("0.1,").is_err());
        for bad in ["nan", "inf", "-inf", "2", "-0.5"] {
            let err = FaultScenario::parse_rates(&format!("0.1,{bad}")).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{bad}: {err}");
        }
    }

    #[test]
    fn fused_run_saves_signature_verifications() {
        // A fused (compliance, lint) sweep shares one checker, so the
        // lint pass's topology rebuilds are all cache hits: verifications
        // in the fused run must be no more than a compliance-only run.
        let corpus = scan_corpus(80);
        let fused = IssuanceChecker::new();
        let _ = Pipeline::new(1).run(&corpus, &fused, (CompliancePass::new(), LintPass::new()));
        let solo = IssuanceChecker::new();
        let _ = Pipeline::new(1).run(&corpus, &solo, CompliancePass::new());
        let fused_stats = fused.snapshot_stats();
        let solo_stats = solo.snapshot_stats();
        assert_eq!(fused_stats.verifications, solo_stats.verifications);
        assert!(fused_stats.hits > solo_stats.hits);
    }
}
