//! The client-side certificate path construction engine.
//!
//! One engine, many policies: every client the paper tests is expressed as
//! a [`BuilderPolicy`] whose knobs correspond to the paper's nine
//! capability dimensions (Table 2) plus the backtracking behaviour its
//! §5.2 case studies expose:
//!
//! - **search scope** — `FullList` clients reorder the served list at
//!   will; `ForwardOnly` models MbedTLS's sequential parent scan, which
//!   validates each candidate as it goes and skips irrelevant certificates
//!   (redundancy elimination ✓) but cannot reach an issuer that appears
//!   *before* its subject (order reorganization ✗, the paper's I-1);
//! - **priority preferences** — KID matching (KP1/KP2), validity (VP1/
//!   VP2), KeyUsage correctness, BasicConstraints path-length fit;
//! - **restriction settings** — constructed-path length limits,
//!   GnuTLS-style *input list* limits (I-2), self-signed-leaf acceptance;
//! - **completion** — AIA fetching (I-4) and Firefox-style intermediate
//!   caching;
//! - **backtracking** — whether a dead end (untrusted root, invalid
//!   candidate) rolls back to try an alternative path (I-3).

use crate::topology::IssuanceChecker;
use crate::validate::{ca_fits, signs_certificates, validate_path};
use ccc_asn1::Time;
use ccc_netsim::{AiaTransport, FetchOutcome};
use ccc_rootstore::RootStore;
use ccc_x509::{Certificate, CertificateFingerprint, FingerprintBuildHasher, FingerprintMap};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Validity preference among candidate issuers (paper VP footnotes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidityPriority {
    /// "—": no validity-based discrimination.
    NoPreference,
    /// VP1: the first *currently valid* candidate (list order otherwise).
    FirstValid,
    /// VP2: most recent notBefore, then longest validity, among valid.
    MostRecent,
}

/// Key-identifier preference among candidate issuers (paper KP footnotes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KidPriority {
    /// "—": no KID-based discrimination.
    NoPreference,
    /// KP1: match or absence preferred over mismatch.
    MatchOrAbsentFirst,
    /// KP2: match preferred over absence, absence over mismatch.
    MatchFirst,
}

/// How the candidate pool is enumerated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchScope {
    /// Consider every (unused) certificate in the pool, ranked by the
    /// policy's priorities.
    FullList,
    /// Consider only certificates at later served positions than the
    /// current one, in served order, and skip any that fails the
    /// in-construction checks: signature, validity, CA bits (the MbedTLS
    /// sequential scan).
    ForwardOnly,
}

/// How a client reacts to transient AIA fetch failures.
///
/// All timing is on the *simulated* clock: backoff and latency accumulate
/// into [`BuildStats::sim_latency_ms`], never into wall time, so retry
/// behaviour is deterministic for a given transport and seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Maximum fetch attempts per URI (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Base backoff charged to the simulated clock after a transient
    /// failure; doubles per retry (`base << (attempt - 1)`, saturating to
    /// the budget remaining so high attempt counts cannot overflow the
    /// shift or overshoot `budget_ms`).
    pub backoff_base_ms: u64,
    /// Total simulated-time budget for one build. Once the build's
    /// simulated clock passes this, further AIA attempts are abandoned
    /// and the build degrades gracefully to its incomplete-chain verdict.
    pub budget_ms: u64,
}

impl RetryPolicy {
    /// No retries, effectively unlimited budget — the behaviour every
    /// profile had before fault injection existed.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            budget_ms: u64::MAX,
        }
    }

    /// A bounded retry loop with exponential backoff.
    pub fn retrying(max_attempts: u32, backoff_base_ms: u64, budget_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_ms,
            budget_ms,
        }
    }

    /// Whether this policy ever retries.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// A client chain-construction policy.
#[derive(Clone, Debug)]
pub struct BuilderPolicy {
    /// Candidate enumeration mode.
    pub scope: SearchScope,
    /// AIA caIssuers fetching.
    pub aia: bool,
    /// Use the context's intermediate cache (Firefox).
    pub use_intermediate_cache: bool,
    /// Validity preference.
    pub validity_priority: ValidityPriority,
    /// KID preference.
    pub kid_priority: KidPriority,
    /// Prefer candidates whose KeyUsage permits certificate signing
    /// (correct or absent over incorrect).
    pub key_usage_priority: bool,
    /// Prefer candidates whose BasicConstraints path length admits the
    /// current chain depth.
    pub basic_constraints_priority: bool,
    /// Prefer trusted (root-store) candidates over untrusted ones when
    /// otherwise tied — the paper's §6.2 recommendation.
    pub trusted_first: bool,
    /// Maximum constructed path length in certificates (leaf and root
    /// included); `None` = effectively unlimited (">52").
    pub max_path_len: Option<usize>,
    /// Maximum *served list* length accepted before construction even
    /// starts (the GnuTLS behaviour behind I-2).
    pub max_list_len: Option<usize>,
    /// Whether a self-signed served leaf is accepted for construction.
    pub allow_self_signed_leaf: bool,
    /// Whether dead ends roll back to alternatives.
    pub backtracking: bool,
    /// Reaction to transient AIA fetch failures (only relevant when
    /// `aia` is enabled and the transport injects faults).
    pub retry: RetryPolicy,
}

impl BuilderPolicy {
    /// A permissive, fully capable baseline policy (useful in tests and as
    /// an ablation starting point).
    pub fn full_capability() -> BuilderPolicy {
        BuilderPolicy {
            scope: SearchScope::FullList,
            aia: true,
            use_intermediate_cache: false,
            validity_priority: ValidityPriority::MostRecent,
            kid_priority: KidPriority::MatchFirst,
            key_usage_priority: true,
            basic_constraints_priority: true,
            trusted_first: true,
            max_path_len: None,
            max_list_len: None,
            allow_self_signed_leaf: false,
            backtracking: true,
            retry: RetryPolicy::retrying(3, 200, 30_000),
        }
    }
}

/// Safety valve on one build's candidate expansions.
const MAX_CANDIDATE_EXPANSIONS: usize = 4096;

/// Errors a client reports when construction or validation fails — the
/// shared vocabulary the differential harness compares across clients.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ClientError {
    /// The server sent no certificates.
    EmptyList,
    /// Served list longer than the client accepts (GnuTLS I-2).
    TooManyCertificates,
    /// The served leaf is self-signed and the client refuses it.
    SelfSignedLeaf,
    /// Construction exceeded the client's path length limit.
    PathLengthExceeded,
    /// No candidate issuer could be found for some certificate
    /// (UNKNOWN_ISSUER / NOT_TRUSTED family).
    NoIssuerFound,
    /// A path was built but terminates at an untrusted root.
    UntrustedRoot,
    /// A certificate in the path is expired.
    Expired,
    /// A certificate in the path is not yet valid.
    NotYetValid,
    /// A signature along the path failed to verify.
    BadSignature,
    /// An intermediate lacks CA basic constraints.
    NotACa,
    /// An issuer's KeyUsage forbids certificate signing.
    BadKeyUsage,
    /// A pathLenConstraint is violated.
    PathLenConstraintViolated,
    /// The leaf does not cover the requested hostname (post-construction
    /// identity check used by the domain-aware differential harness).
    HostnameMismatch,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClientError::EmptyList => "empty certificate list",
            ClientError::TooManyCertificates => "too many certificates in list",
            ClientError::SelfSignedLeaf => "self-signed leaf rejected",
            ClientError::PathLengthExceeded => "path length limit exceeded",
            ClientError::NoIssuerFound => "no issuer found (unknown issuer)",
            ClientError::UntrustedRoot => "path terminates at untrusted root",
            ClientError::Expired => "certificate expired",
            ClientError::NotYetValid => "certificate not yet valid",
            ClientError::BadSignature => "signature verification failed",
            ClientError::NotACa => "issuer is not a CA",
            ClientError::BadKeyUsage => "issuer KeyUsage forbids cert signing",
            ClientError::PathLenConstraintViolated => "pathLenConstraint violated",
            ClientError::HostnameMismatch => "hostname mismatch",
        };
        write!(f, "{s}")
    }
}

/// Everything a build needs besides the served list.
#[derive(Clone, Copy, Debug)]
pub struct BuildContext<'a> {
    /// The client's trust store.
    pub store: &'a RootStore,
    /// AIA fetch transport (used only when the policy enables AIA). A
    /// plain [`ccc_netsim::AiaRepository`] is the zero-fault transport;
    /// wrap it in a [`ccc_netsim::FaultyTransport`] to inject latency and
    /// failures. `Some(&repo)` coerces here unchanged.
    pub aia: Option<&'a dyn AiaTransport>,
    /// Intermediate cache contents (used only when the policy enables it).
    pub cache: &'a [Certificate],
    /// The simulated "now" for validity decisions.
    pub now: Time,
    /// Shared memoizing issuance checker.
    pub checker: &'a IssuanceChecker,
}

/// Counters exposed for the efficiency experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Candidate issuers examined.
    pub candidates_considered: usize,
    /// AIA fetches that *returned a certificate* (successes; a
    /// wrong-certificate response counts — the payload arrived even if it
    /// is useless as an issuer).
    pub aia_fetches: usize,
    /// AIA fetch *attempts*, including dead-URI, transient, and corrupt
    /// responses that returned nothing. Always ≥ `aia_fetches`.
    pub aia_attempts: usize,
    /// Transient-failure retries performed (attempts beyond the first,
    /// per URI).
    pub aia_retries: usize,
    /// Simulated milliseconds spent on AIA fetch latency and retry
    /// backoff during this build (the build's simulated clock).
    pub sim_latency_ms: u64,
    /// The retry budget ran out and at least one AIA completion was
    /// abandoned (the build degraded to its incomplete-chain verdict).
    pub aia_budget_exhausted: bool,
    /// Dead ends rolled back.
    pub backtracks: usize,
}

/// `ccc-obs` registry handles for the builder counters, registered once
/// per process and bumped after every completed build. All stable: each
/// field aggregates a per-build deterministic quantity (simulated clock,
/// search work), so the totals are bit-identical for a fixed workload at
/// any worker count.
struct BuildMetrics {
    builds: &'static ccc_obs::Counter,
    accepted: &'static ccc_obs::Counter,
    candidates: &'static ccc_obs::Counter,
    backtracks: &'static ccc_obs::Counter,
    aia_attempts: &'static ccc_obs::Counter,
    aia_fetches: &'static ccc_obs::Counter,
    aia_retries: &'static ccc_obs::Counter,
    budget_exhausted: &'static ccc_obs::Counter,
    sim_latency_total: &'static ccc_obs::Counter,
    sim_latency_hist: &'static ccc_obs::Histogram,
}

fn build_metrics() -> &'static BuildMetrics {
    static METRICS: OnceLock<BuildMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = ccc_obs::MetricsRegistry::global();
        BuildMetrics {
            builds: reg.counter("ccc_builder_builds_total", "Builds processed."),
            accepted: reg.counter(
                "ccc_builder_accepted_total",
                "Builds whose client accepted the chain.",
            ),
            candidates: reg.counter(
                "ccc_builder_candidates_total",
                "Candidate issuers examined across all builds.",
            ),
            backtracks: reg.counter(
                "ccc_builder_backtracks_total",
                "Dead ends rolled back across all builds.",
            ),
            aia_attempts: reg.counter(
                "ccc_builder_aia_attempts_total",
                "AIA fetch attempts, including failed ones.",
            ),
            aia_fetches: reg.counter(
                "ccc_builder_aia_fetches_total",
                "AIA fetches that returned a certificate.",
            ),
            aia_retries: reg.counter(
                "ccc_builder_aia_retries_total",
                "Transient-failure retries performed.",
            ),
            budget_exhausted: reg.counter(
                "ccc_builder_aia_budget_exhausted_total",
                "Builds that abandoned AIA completion on budget exhaustion.",
            ),
            sim_latency_total: reg.counter(
                "ccc_builder_sim_latency_ms_total",
                "Simulated milliseconds spent on AIA latency and backoff.",
            ),
            sim_latency_hist: reg.histogram(
                "ccc_builder_sim_latency_ms",
                "Per-build simulated AIA latency in milliseconds.",
            ),
        }
    })
}

/// Publish one finished build's counters to the process-global registry.
/// Relaxed adds only; per-build values are deterministic, so the sums are
/// worker-count invariant. Called once per outcome a caller hands out:
/// [`ChainEngine::process`] for its own build, the differential harness
/// for every (transport, client) outcome, built or reused.
pub(crate) fn record_build_metrics(outcome: &BuildOutcome) {
    let stats = &outcome.stats;
    let m = build_metrics();
    m.builds.inc();
    if outcome.accepted() {
        m.accepted.inc();
    }
    m.candidates.add(stats.candidates_considered as u64);
    m.backtracks.add(stats.backtracks as u64);
    m.aia_attempts.add(stats.aia_attempts as u64);
    m.aia_fetches.add(stats.aia_fetches as u64);
    m.aia_retries.add(stats.aia_retries as u64);
    if stats.aia_budget_exhausted {
        m.budget_exhausted.inc();
    }
    m.sim_latency_total.add(stats.sim_latency_ms);
    m.sim_latency_hist.observe(stats.sim_latency_ms);
}

/// Force the builder metric families to register (so an exposition dump
/// covers them even before any build ran).
pub fn touch_build_metrics() {
    let _ = build_metrics();
}

/// The result of one client's attempt on one served list.
#[derive(Clone, Debug)]
pub struct BuildOutcome {
    /// The constructed certificate path (leaf first). On failure this is
    /// the deepest path the first (greedy) attempt reached.
    pub path: Vec<Certificate>,
    /// Success, or the error the client would report.
    pub verdict: Result<(), ClientError>,
    /// Work counters.
    pub stats: BuildStats,
}

impl BuildOutcome {
    /// Convenience: did the client accept the chain?
    pub fn accepted(&self) -> bool {
        self.verdict.is_ok()
    }
}

/// Where a candidate issuer certificate came from.
///
/// Replaces the old sentinel scheme that packed provenance into a
/// `list_pos: usize` (`usize::MAX - 1` = cache, `usize::MAX` =
/// store/AIA). [`order_key`](CandidateOrigin::order_key) reproduces the
/// sentinel total order exactly, so candidate ranking is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOrigin {
    /// From the served list, at this (deduplicated) position.
    Served {
        /// Position of the first occurrence in the served list.
        list_pos: usize,
    },
    /// From the client's intermediate cache (Firefox-style).
    Cache,
    /// From the trust store.
    Store,
    /// Fetched via the AIA caIssuers URI.
    Aia,
}

impl CandidateOrigin {
    /// Tie-break ordering key: served positions first (in served order),
    /// then cache, then store/AIA (which tie, as under the old sentinels
    /// `usize::MAX - 1` and `usize::MAX`).
    pub fn order_key(self) -> (u8, usize) {
        match self {
            CandidateOrigin::Served { list_pos } => (0, list_pos),
            CandidateOrigin::Cache => (1, 0),
            CandidateOrigin::Store | CandidateOrigin::Aia => (2, 0),
        }
    }
}

/// One candidate issuer under consideration.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    cert: Certificate,
    /// Provenance (drives the last-resort ordering tie-break).
    origin: CandidateOrigin,
    /// Exact membership in the trust store.
    trusted: bool,
}

/// The policy-independent part of the candidate pool: the served list
/// deduplicated in served order, with trust-store membership resolved.
///
/// It depends only on the served list and the store, so a caller fanning
/// one observation out to many builds — the differential harness runs
/// eight engines under each of several transports — builds it once and
/// lends it to every build. Served lists hold a handful of distinct
/// certificates, so duplicates are found by scanning.
pub(crate) fn base_pool(served: &[Certificate], store: &RootStore) -> Vec<Candidate> {
    let mut pool: Vec<Candidate> = Vec::with_capacity(served.len());
    for (pos, cert) in served.iter().enumerate() {
        if !pool.iter().any(|c| c.cert == *cert) {
            pool.push(Candidate {
                trusted: store.contains(cert),
                cert: cert.clone(),
                origin: CandidateOrigin::Served { list_pos: pos },
            });
        }
    }
    pool
}

/// Per-served-list scratch shared across engines processing the same list
/// under contexts that differ at most in their AIA transport.
///
/// Every memo here caches a value that is fully determined by certificate
/// contents plus the context's store, clock and checker — never by the
/// engine's policy or the transport — so sharing it across engines and
/// transports cannot change any build's outcome:
///
/// - **store candidates**: the roots related to a given certificate
///   (its issuer-DN and AKID lookups, each an identity match) depend only
///   on that certificate and the store;
/// - **validations**: [`validate_path`] verdicts — every policy validates
///   a finished path under the same (all-checks-on) options, so the
///   verdict is a function of the path, the store, and the clock.
///
/// Keys are certificate fingerprints, so the scratch stays bounded by the
/// certificates a single served list's searches touch; callers drop it
/// with the observation.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    store_candidates: RefCell<FingerprintMap<Vec<Candidate>>>,
    validations: RefCell<
        HashMap<Vec<CertificateFingerprint>, Result<(), ClientError>, FingerprintBuildHasher>,
    >,
}

/// The chain construction engine: a policy plus entry points.
#[derive(Clone, Debug)]
pub struct ChainEngine {
    /// The policy driving this engine.
    pub policy: BuilderPolicy,
}

impl ChainEngine {
    /// Create an engine from a policy.
    pub fn new(policy: BuilderPolicy) -> ChainEngine {
        ChainEngine { policy }
    }

    /// Process a served certificate list: construct a path and validate it.
    /// A build session of one: the base pool and scratch serve this build
    /// alone.
    pub fn process(&self, served: &[Certificate], ctx: &BuildContext<'_>) -> BuildOutcome {
        let base = base_pool(served, ctx.store);
        let (outcome, _) = self.process_shared(served, ctx, &base, &RunScratch::default());
        record_build_metrics(&outcome);
        outcome
    }

    /// [`process`](Self::process) with a base pool and scratch shared
    /// across engines and transports. Bit-identical to a standalone build:
    /// `base` is what [`base_pool`] returns for `served` and `ctx.store`,
    /// and the scratch only memoizes lookups determined by certificates,
    /// store, clock and checker; the per-build work that remains is the
    /// cache preload and the policy- and transport-dependent search.
    ///
    /// The flag is true when the search reached the AIA step
    /// (`Search::try_aia`), even with no transport to fetch through. A
    /// build that never reached it read nothing of `ctx.aia`, so its
    /// outcome holds under any transport. The outcome is not recorded in
    /// the builder metrics; the caller records each outcome it hands out.
    pub(crate) fn process_shared(
        &self,
        served: &[Certificate],
        ctx: &BuildContext<'_>,
        base: &[Candidate],
        scratch: &RunScratch,
    ) -> (BuildOutcome, bool) {
        let p = &self.policy;
        let rejected = |path, error| {
            let outcome = BuildOutcome {
                path,
                verdict: Err(error),
                stats: BuildStats::default(),
            };
            (outcome, false)
        };
        if served.is_empty() {
            return rejected(Vec::new(), ClientError::EmptyList);
        }
        if let Some(limit) = p.max_list_len {
            if served.len() > limit {
                return rejected(Vec::new(), ClientError::TooManyCertificates);
            }
        }
        let leaf = served[0].clone();
        if !p.allow_self_signed_leaf && ctx.checker.self_signed(&leaf) {
            return rejected(vec![leaf], ClientError::SelfSignedLeaf);
        }

        let mut search = Search {
            engine: self,
            ctx,
            base,
            extra: Vec::new(),
            scratch,
            stats: BuildStats::default(),
            deepest: vec![leaf.clone()],
            first_error: None,
            expansions: 0,
            aia_memo: HashMap::new(),
            reached_aia: false,
        };
        if p.use_intermediate_cache {
            for cert in ctx.cache {
                search.admit(Candidate {
                    trusted: ctx.store.contains(cert),
                    cert: cert.clone(),
                    origin: CandidateOrigin::Cache,
                });
            }
        }
        let (path, verdict) = match search.dfs(&mut vec![leaf]) {
            Some(path) => (path, Ok(())),
            None => (
                search.deepest,
                Err(search.first_error.unwrap_or(ClientError::NoIssuerFound)),
            ),
        };
        let outcome = BuildOutcome {
            path,
            verdict,
            stats: search.stats,
        };
        (outcome, search.reached_aia)
    }
}

/// DFS state for one build.
struct Search<'e, 'c> {
    engine: &'e ChainEngine,
    ctx: &'e BuildContext<'c>,
    /// The shared, immutable base pool (deduplicated served list).
    base: &'e [Candidate],
    /// This build's additions to the pool: cache candidates, then AIA
    /// fetches, none of them already pooled.
    extra: Vec<Candidate>,
    /// Cross-engine memo for (certificate, store)-determined lookups.
    scratch: &'e RunScratch,
    stats: BuildStats,
    deepest: Vec<Certificate>,
    first_error: Option<ClientError>,
    expansions: usize,
    /// Per-build AIA memo: URI → resolved candidate (or None for any
    /// failure). Enforces the "once per URI per build" contract — frontier
    /// revisits during backtracking must not re-fetch dead or
    /// wrong-certificate URIs.
    aia_memo: HashMap<String, Option<Candidate>>,
    /// Set on entry to [`Self::try_aia`], before it looks at the
    /// transport: everything the search did up to that call is
    /// transport-independent.
    reached_aia: bool,
}

impl Search<'_, '_> {
    fn note_error(&mut self, e: ClientError) {
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    fn note_depth(&mut self, path: &[Certificate]) {
        if path.len() > self.deepest.len() {
            self.deepest = path.to_vec();
        }
    }

    /// Extend `path`; returns the successful full path if one is found.
    fn dfs(&mut self, path: &mut Vec<Certificate>) -> Option<Vec<Certificate>> {
        let p = &self.engine.policy;
        self.note_depth(path);
        if self.expansions >= MAX_CANDIDATE_EXPANSIONS {
            return None;
        }
        let current = path.last().expect("path non-empty").clone();

        // Terminal checks: trusted anchor reached?
        if self.ctx.store.contains(&current) {
            return self.finish(path);
        }
        if self.ctx.checker.self_signed(&current) {
            // Untrusted self-signed terminal: dead end.
            self.note_error(ClientError::UntrustedRoot);
            return None;
        }

        // Gather candidates.
        let mut candidates = self.candidates_for(&current, path);
        if candidates.is_empty() && p.aia {
            if let Some(fetched) = self.try_aia(&current) {
                candidates = vec![fetched];
            }
        }
        if candidates.is_empty() {
            self.note_error(ClientError::NoIssuerFound);
            return None;
        }

        let try_count = if p.backtracking { candidates.len() } else { 1 };
        for cand in candidates.into_iter().take(try_count) {
            self.expansions += 1;
            self.stats.candidates_considered += 1;
            // Path length limit: appending must stay within bounds.
            if let Some(limit) = p.max_path_len {
                if path.len() + 1 > limit {
                    self.note_error(ClientError::PathLengthExceeded);
                    if p.backtracking {
                        self.stats.backtracks += 1;
                        continue;
                    }
                    return None;
                }
            }
            path.push(cand.cert);
            let result = self.dfs(path);
            path.pop();
            match result {
                Some(success) => return Some(success),
                None => {
                    if !p.backtracking {
                        return None;
                    }
                    self.stats.backtracks += 1;
                }
            }
        }
        None
    }

    /// Terminal validation once a trusted anchor tops the path.
    ///
    /// [`validate_path`] takes no policy input (every profile validates a
    /// finished path with all checks on), so the verdict for a given
    /// certificate sequence is shared through the scratch: engines
    /// converging on the same path — the common case in a differential
    /// run — validate it once. A failed validation is a
    /// dead end; backtracking callers continue with siblings.
    fn finish(&mut self, path: &[Certificate]) -> Option<Vec<Certificate>> {
        let key: Vec<CertificateFingerprint> = path.iter().map(|c| c.fingerprint()).collect();
        let memo_hit = self.scratch.validations.borrow().get(&key).copied();
        let verdict = match memo_hit {
            Some(v) => v,
            None => {
                let v = validate_path(path, self.ctx.store, self.ctx.now, self.ctx.checker);
                self.scratch.validations.borrow_mut().insert(key, v);
                v
            }
        };
        match verdict {
            Ok(()) => Some(path.to_vec()),
            Err(e) => {
                self.note_error(e);
                None
            }
        }
    }

    /// The candidate pool in append order: shared base, then per-engine
    /// additions (cache preload, AIA fetches).
    fn pool_iter(&self) -> impl Iterator<Item = &Candidate> {
        self.base.iter().chain(self.extra.iter())
    }

    /// Enumerate and rank candidate issuers for `current`, the last
    /// certificate of `path`.
    fn candidates_for(&self, current: &Certificate, path: &[Certificate]) -> Vec<Candidate> {
        let p = &self.engine.policy;
        // Intermediates that would sit between a candidate and the leaf.
        let below = path.len() - 1;
        let mut out: Vec<Candidate> = Vec::new();

        match p.scope {
            SearchScope::FullList => {
                // Every pool entry whose subject DN or SKID identifies it
                // as an issuer of `current`, in pool order.
                for cand in self.pool_iter() {
                    if path.contains(&cand.cert) {
                        continue;
                    }
                    if IssuanceChecker::identity_match(&cand.cert, current) {
                        out.push(cand.clone());
                    }
                }
            }
            SearchScope::ForwardOnly => {
                // Sequential scan: candidates strictly after the current
                // certificate's served position, in order (the pool is in
                // origin order); the parent test is the signature itself.
                let current_key = self
                    .pool_iter()
                    .find(|c| c.cert == *current)
                    .map(|c| c.origin.order_key())
                    .unwrap_or((0, 0));
                for cand in self.pool_iter() {
                    if cand.origin.order_key() <= current_key || path.contains(&cand.cert) {
                        continue;
                    }
                    if self.ctx.checker.signature_verifies(&cand.cert, current) {
                        out.push(cand.clone());
                    }
                }
            }
        }

        // Trust store candidates: roots whose subject matches the current
        // issuer DN or whose SKID matches the current AKID, filtered down
        // to the ones that actually relate to the current certificate.
        // These depend only on (current, store), so the gathered list is
        // memoized in the cross-engine scratch; the on-path and
        // already-pooled exclusions below stay per call.
        for sc in self.store_candidates_for(current) {
            if path.contains(&sc.cert) || out.iter().any(|c| c.cert == sc.cert) {
                continue;
            }
            out.push(sc);
        }

        match p.scope {
            SearchScope::FullList => {
                // Stable by key: ties keep enumeration order.
                let now = self.ctx.now;
                out.sort_by_cached_key(|cand| self.rank(cand, current, below, now));
            }
            SearchScope::ForwardOnly => {
                out.retain(|cand| self.fits_in_construction(cand, current, below));
            }
        }
        out
    }

    /// Trust-store candidates related to `current`, via the cross-engine
    /// memo: the roots whose subject is its issuer DN, then those whose
    /// SKID is its AKID. Each is an identity match by construction.
    fn store_candidates_for(&self, current: &Certificate) -> Vec<Candidate> {
        let fp = current.fingerprint();
        if let Some(hit) = self.scratch.store_candidates.borrow().get(&fp) {
            return hit.clone();
        }
        let store = self.ctx.store;
        let by_skid = current
            .akid_key_id()
            .into_iter()
            .flat_map(|akid| store.find_by_skid(akid));
        let gathered: Vec<Candidate> = store
            .find_by_subject(current.issuer())
            .chain(by_skid)
            .map(|root| Candidate {
                cert: root.clone(),
                origin: CandidateOrigin::Store,
                trusted: true,
            })
            .collect();
        self.scratch
            .store_candidates
            .borrow_mut()
            .insert(fp, gathered.clone());
        gathered
    }

    /// The forward scan's in-construction checks (the MbedTLS behaviour):
    /// the candidate signs `current`, is valid now, and may sign a
    /// certificate with `below` intermediates under it.
    fn fits_in_construction(&self, cand: &Candidate, current: &Certificate, below: usize) -> bool {
        self.ctx.checker.signature_verifies(&cand.cert, current)
            && cand.cert.validity().contains(self.ctx.now)
            && signs_certificates(&cand.cert)
            && ca_fits(&cand.cert, below).is_ok()
    }

    fn rank(
        &self,
        cand: &Candidate,
        current: &Certificate,
        below: usize,
        now: Time,
    ) -> CandidateKey {
        let p = &self.engine.policy;
        let trusted_rank = if p.trusted_first && cand.trusted {
            0
        } else {
            1
        };

        let kid_state = match (current.akid_key_id(), cand.cert.skid()) {
            (Some(akid), Some(skid)) => {
                if akid == skid {
                    0 // match
                } else {
                    2 // mismatch
                }
            }
            (Some(_), None) => 1, // candidate lacks SKID
            (None, _) => 0,       // nothing to compare
        };
        let kid_rank = match p.kid_priority {
            KidPriority::NoPreference => 0,
            KidPriority::MatchOrAbsentFirst => {
                if kid_state == 2 {
                    1
                } else {
                    0
                }
            }
            KidPriority::MatchFirst => kid_state,
        };
        let ku_rank = u8::from(p.key_usage_priority && !signs_certificates(&cand.cert));
        let bc_rank = u8::from(p.basic_constraints_priority && ca_fits(&cand.cert, below).is_err());

        let validity = cand.cert.validity();
        let valid_now = validity.contains(now);
        let validity_key: (i64, i64, i64) = match p.validity_priority {
            ValidityPriority::NoPreference => (0, 0, 0),
            ValidityPriority::FirstValid => (if valid_now { 0 } else { 1 }, 0, 0),
            ValidityPriority::MostRecent => {
                if valid_now {
                    (0, -validity.not_before.unix(), -validity.duration_seconds())
                } else {
                    (1, 0, 0)
                }
            }
        };

        CandidateKey {
            trusted_rank,
            kid_rank,
            ku_rank,
            bc_rank,
            validity_key,
            origin_key: cand.origin.order_key(),
        }
    }

    /// Fetch the current certificate's AIA issuer (once per URI per build;
    /// fetched certificates join the pool).
    ///
    /// The per-build [`Search::aia_memo`] holds the final resolution for
    /// every URI this build has touched — including failures — so frontier
    /// revisits during backtracking never re-fetch a dead or
    /// wrong-certificate URI.
    fn try_aia(&mut self, current: &Certificate) -> Option<Candidate> {
        self.reached_aia = true;
        let transport = self.ctx.aia?;
        let uri = current.aia_ca_issuers_uri()?;
        if let Some(memoized) = self.aia_memo.get(uri) {
            return memoized.clone();
        }
        let resolved = self.fetch_with_retry(transport, uri, current);
        self.aia_memo.insert(uri.to_string(), resolved.clone());
        resolved
    }

    /// The bounded retry loop behind [`Self::try_aia`]: transient failures
    /// back off exponentially on the simulated clock up to the policy's
    /// attempt limit; dead/corrupt responses fail immediately; exceeding
    /// the per-build budget abandons AIA completion gracefully.
    fn fetch_with_retry(
        &mut self,
        transport: &dyn AiaTransport,
        uri: &str,
        current: &Certificate,
    ) -> Option<Candidate> {
        let retry = self.engine.policy.retry;
        let mut attempt: u32 = 0;
        loop {
            if self.stats.sim_latency_ms >= retry.budget_ms {
                self.stats.aia_budget_exhausted = true;
                return None;
            }
            attempt += 1;
            self.stats.aia_attempts += 1;
            let response = transport.fetch_aia(uri, attempt);
            self.stats.sim_latency_ms = self
                .stats
                .sim_latency_ms
                .saturating_add(response.latency_ms);
            match response.outcome {
                FetchOutcome::Success(fetched) => {
                    self.stats.aia_fetches += 1;
                    if !IssuanceChecker::identity_match(&fetched, current)
                        && !self.ctx.checker.signature_verifies(&fetched, current)
                    {
                        // Wrong certificate served: useless as an issuer.
                        return None;
                    }
                    let candidate = Candidate {
                        trusted: self.ctx.store.contains(&fetched),
                        cert: fetched,
                        origin: CandidateOrigin::Aia,
                    };
                    self.admit(candidate.clone());
                    return Some(candidate);
                }
                // Permanent failures: retrying cannot help.
                FetchOutcome::Dead | FetchOutcome::Corrupt => return None,
                FetchOutcome::Transient => {
                    if attempt >= retry.max_attempts {
                        return None;
                    }
                    self.stats.aia_retries += 1;
                    // Exponential backoff on the simulated clock. The
                    // doubling is `base << (attempt - 1)`; `checked_shl`
                    // (plus a shifted-bits-lost check) saturates
                    // pathological attempt counts to the *remaining
                    // budget* instead of wrapping the shift — a wrapped
                    // backoff corrupted `sim_latency_ms` and made the
                    // budget gate fire with a bogus overshoot.
                    let remaining = retry.budget_ms.saturating_sub(self.stats.sim_latency_ms);
                    let shift = attempt - 1;
                    let doubled = match retry.backoff_base_ms.checked_shl(shift) {
                        Some(scaled) if scaled >> shift == retry.backoff_base_ms => scaled,
                        // Shift ≥ 64 or high bits lost: the doubling has
                        // outgrown u64 (unless the base is 0, where the
                        // true product stays 0).
                        _ if retry.backoff_base_ms == 0 => 0,
                        _ => u64::MAX,
                    };
                    self.stats.sim_latency_ms = self
                        .stats
                        .sim_latency_ms
                        .saturating_add(doubled.min(remaining));
                }
            }
        }
    }

    /// Append `candidate` to this build's pool unless the pool already
    /// holds its certificate (the cache preload and AIA fetches both join
    /// through here, so later expansions can reuse them).
    fn admit(&mut self, candidate: Candidate) {
        if !self.pool_iter().any(|c| c.cert == candidate.cert) {
            self.extra.push(candidate);
        }
    }
}

/// Lexicographic candidate ordering key.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CandidateKey {
    trusted_rank: u8,
    kid_rank: u8,
    ku_rank: u8,
    bc_rank: u8,
    validity_key: (i64, i64, i64),
    /// [`CandidateOrigin::order_key`] — served order, then cache, then
    /// store/AIA (the old sentinel order).
    origin_key: (u8, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::{client_profiles, ClientKind};
    use ccc_crypto::{Group, KeyPair};
    use ccc_netsim::{AiaRepository, FaultPlan, FaultyTransport, FetchResponse};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    struct Pki {
        root: Certificate,
        int: Certificate,
        leaf: Certificate,
        store: RootStore,
    }

    fn pki() -> Pki {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"eng-root");
        let int_kp = KeyPair::from_seed(g, b"eng-int");
        let leaf_kp = KeyPair::from_seed(g, b"eng-leaf");
        let root_dn = DistinguishedName::cn("Engine Root");
        let int_dn = DistinguishedName::cn("Engine Int");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let int = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn,
            &root_kp,
        );
        let leaf = CertificateBuilder::leaf_profile("engine.sim").issued_by(
            &leaf_kp.public,
            int_dn,
            &int_kp,
        );
        let store = RootStore::new("eng", vec![root.clone()]);
        Pki {
            root,
            int,
            leaf,
            store,
        }
    }

    fn ctx<'a>(pki: &'a Pki, checker: &'a IssuanceChecker) -> BuildContext<'a> {
        BuildContext {
            store: &pki.store,
            aia: None,
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker,
        }
    }

    #[test]
    fn empty_list_is_reported() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let outcome = engine.process(&[], &ctx(&p, &checker));
        assert_eq!(outcome.verdict, Err(ClientError::EmptyList));
        assert!(outcome.path.is_empty());
    }

    #[test]
    fn trusted_root_appended_from_store() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        // Root omitted from the served list; the store completes it.
        let served = vec![p.leaf.clone(), p.int.clone()];
        let outcome = engine.process(&served, &ctx(&p, &checker));
        assert!(outcome.accepted());
        assert_eq!(outcome.path.len(), 3);
        assert_eq!(outcome.path[2], p.root);
    }

    #[test]
    fn duplicates_deduplicated_in_pool() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let served = vec![p.leaf.clone(), p.int.clone(), p.int.clone(), p.int.clone()];
        let outcome = engine.process(&served, &ctx(&p, &checker));
        assert!(outcome.accepted());
        // The constructed path never repeats a certificate.
        assert_eq!(outcome.path.len(), 3);
    }

    /// A leaf under `layers` layers of twin intermediates (same subject
    /// and key, notBefore a day apart) and a served self-signed root that
    /// no store holds: every layer doubles the issuer choices, and every
    /// path dead-ends at the untrusted root.
    fn twin_layers(layers: usize) -> Vec<Certificate> {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"cap-root");
        let root_dn = DistinguishedName::cn("Cap Root");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let (mut issuer_dn, mut issuer_kp) = (root_dn, root_kp);
        let mut intermediates = Vec::new();
        for layer in 1..=layers {
            let kp = KeyPair::from_seed(g, format!("cap-{layer}").as_bytes());
            let dn = DistinguishedName::cn(format!("Cap Layer {layer}"));
            for day in [1, 2] {
                let not_before = Time::from_ymd(2023, 1, day).unwrap();
                let not_after = Time::from_ymd(2033, 1, 1).unwrap();
                intermediates.push(
                    CertificateBuilder::ca_profile(dn.clone())
                        .validity(not_before, not_after)
                        .issued_by(&kp.public, issuer_dn.clone(), &issuer_kp),
                );
            }
            (issuer_dn, issuer_kp) = (dn, kp);
        }
        let leaf_kp = KeyPair::from_seed(g, b"cap-leaf");
        let leaf = CertificateBuilder::leaf_profile("cap.sim").issued_by(
            &leaf_kp.public,
            issuer_dn,
            &issuer_kp,
        );
        let mut served = vec![leaf];
        served.extend(intermediates.into_iter().rev());
        served.push(root);
        served
    }

    /// Eleven twin layers give 2^11 dead-end paths, which take 6,142
    /// candidate expansions to exhaust. Under the default cap of 4,096 the
    /// search stops a few expansions past it (each frame still open counts
    /// its remaining siblings, which return at once) with the first error
    /// it met. Chrome's policy is the full-capability one.
    #[test]
    fn expansion_cap_terminates_pathological_search() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ClientKind::Chrome.engine();
        let outcome = engine.process(&twin_layers(11), &ctx(&p, &checker));
        assert_eq!(outcome.verdict, Err(ClientError::UntrustedRoot));
        let considered = outcome.stats.candidates_considered;
        assert!((4096..4120).contains(&considered), "{considered}");
    }

    #[test]
    fn stats_track_candidates() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let served = vec![p.leaf.clone(), p.int.clone(), p.root.clone()];
        let outcome = engine.process(&served, &ctx(&p, &checker));
        assert!(outcome.accepted());
        assert!(outcome.stats.candidates_considered >= 2);
        assert_eq!(outcome.stats.aia_fetches, 0);
    }

    #[test]
    fn deepest_path_reported_on_failure() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let empty_store = RootStore::new("none", vec![]);
        let served = vec![p.leaf.clone(), p.int.clone()];
        let ctx = BuildContext {
            store: &empty_store,
            aia: None,
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = engine.process(&served, &ctx);
        assert!(!outcome.accepted());
        // The deepest attempt (leaf + int) is surfaced for diagnostics.
        assert_eq!(outcome.path.len(), 2);
    }

    #[test]
    fn candidate_origin_preserves_sentinel_order() {
        // The legacy encoding: served pos < usize::MAX - 1 (cache)
        // < usize::MAX (store/AIA, tied). order_key must reproduce it.
        let served0 = CandidateOrigin::Served { list_pos: 0 };
        let served9 = CandidateOrigin::Served { list_pos: 9 };
        assert!(served0.order_key() < served9.order_key());
        assert!(served9.order_key() < CandidateOrigin::Cache.order_key());
        assert!(CandidateOrigin::Cache.order_key() < CandidateOrigin::Store.order_key());
        assert_eq!(
            CandidateOrigin::Store.order_key(),
            CandidateOrigin::Aia.order_key()
        );
    }

    #[test]
    fn repeat_build_is_served_from_the_signature_cache() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let served = vec![p.leaf.clone(), p.int.clone()];
        let before = checker.snapshot_stats();
        let first = engine.process(&served, &ctx(&p, &checker));
        assert!(first.accepted());
        let after_first = checker.snapshot_stats();
        let cold = after_first.since(&before);
        assert!(cold.lookups > 0);
        assert!(cold.verifications > 0);
        // Second build over the same chain: all lookups hit the cache.
        let second = engine.process(&served, &ctx(&p, &checker));
        assert!(second.accepted());
        let warm = checker.snapshot_stats().since(&after_first);
        assert_eq!(warm.verifications, 0);
        assert_eq!(warm.hits, warm.lookups);
        assert_eq!(
            warm.lookups, cold.lookups,
            "the same build asks the same questions"
        );
    }

    #[test]
    fn cache_only_used_when_policy_allows() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let served = vec![p.leaf.clone()]; // intermediate missing
        let cache = vec![p.int.clone()];
        let base_ctx = BuildContext {
            store: &p.store,
            aia: None,
            cache: &cache,
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let mut with_cache = BuilderPolicy::full_capability();
        with_cache.aia = false;
        with_cache.use_intermediate_cache = true;
        let outcome = ChainEngine::new(with_cache).process(&served, &base_ctx);
        assert!(outcome.accepted(), "{:?}", outcome.verdict);

        let mut without_cache = BuilderPolicy::full_capability();
        without_cache.aia = false;
        without_cache.use_intermediate_cache = false;
        let outcome = ChainEngine::new(without_cache).process(&served, &base_ctx);
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
    }

    fn aia_ctx<'a>(
        store: &'a RootStore,
        repo: &'a AiaRepository,
        checker: &'a IssuanceChecker,
    ) -> BuildContext<'a> {
        BuildContext {
            store,
            aia: Some(repo),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker,
        }
    }

    /// Regression for the "once per URI per build" contract: two
    /// cross-signed intermediates share the same issuer (absent from the
    /// pool) whose AIA URI is dead, so a backtracking build revisits the
    /// same frontier URI twice. Before memoization that meant two fetches.
    #[test]
    fn dead_aia_uri_fetched_once_per_build() {
        let g = Group::simulation_256();
        let ghost_kp = KeyPair::from_seed(g, b"memo-ghost");
        let int_kp = KeyPair::from_seed(g, b"memo-int");
        let leaf_kp = KeyPair::from_seed(g, b"memo-leaf");
        let ghost_dn = DistinguishedName::cn("Memo Ghost CA");
        let int_dn = DistinguishedName::cn("Memo Shared Int");
        let uri = "http://aia.sim/memo-ghost.crt";
        let int_a = CertificateBuilder::ca_profile(int_dn.clone())
            .aia_ca_issuers(uri)
            .issued_by(&int_kp.public, ghost_dn.clone(), &ghost_kp);
        let int_b = CertificateBuilder::ca_profile(int_dn.clone())
            .validity(
                Time::from_ymd(2023, 1, 1).unwrap(),
                Time::from_ymd(2026, 1, 1).unwrap(),
            )
            .aia_ca_issuers(uri)
            .issued_by(&int_kp.public, ghost_dn, &ghost_kp);
        assert_ne!(int_a, int_b, "cross-signs must be distinct certificates");
        let leaf = CertificateBuilder::leaf_profile("memo.sim").issued_by(
            &leaf_kp.public,
            int_dn,
            &int_kp,
        );

        let store = RootStore::new("empty", vec![]);
        // Nothing is published, so the URI is dead.
        let repo = AiaRepository::empty();
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let served = vec![leaf, int_a, int_b];
        let outcome = engine.process(&served, &aia_ctx(&store, &repo, &checker));

        assert!(!outcome.accepted());
        assert!(
            outcome.stats.backtracks > 0,
            "both cross-signs must be tried"
        );
        assert_eq!(
            repo.fetches(),
            1,
            "a dead URI must be fetched once per build, not once per frontier visit"
        );
        assert_eq!(outcome.stats.aia_attempts, 1);
        assert_eq!(outcome.stats.aia_fetches, 0);
    }

    /// Attempts vs successes: a dead URI is an attempt with no fetch; a
    /// published URI is both. Both reconcile with the repository's own
    /// transfer counter.
    #[test]
    fn aia_attempts_and_fetches_reconcile() {
        let p = pki();
        let g = Group::simulation_256();
        let leaf_kp = KeyPair::from_seed(g, b"acct-leaf");
        let uri = "http://aia.sim/engine-int.crt";
        let leaf = CertificateBuilder::leaf_profile("acct.sim")
            .aia_ca_issuers(uri)
            .issued_by(
                &leaf_kp.public,
                DistinguishedName::cn("Engine Int"),
                &pki_int_kp(),
            );
        let engine = ChainEngine::new(BuilderPolicy::full_capability());

        // Dead URI: one attempt, zero successful fetches — but the
        // repository still saw the transfer attempt.
        let dead = AiaRepository::empty();
        let checker = IssuanceChecker::new();
        let outcome = engine.process(
            std::slice::from_ref(&leaf),
            &aia_ctx(&p.store, &dead, &checker),
        );
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
        assert_eq!(outcome.stats.aia_attempts, 1);
        assert_eq!(outcome.stats.aia_fetches, 0);
        assert_eq!(dead.fetches(), 1, "dead attempts must be visible");

        // Published URI: one attempt, one successful fetch, chain accepted.
        let mut live = AiaRepository::empty();
        live.publish(uri, p.int.clone());
        let checker = IssuanceChecker::new();
        let outcome = engine.process(&[leaf], &aia_ctx(&p.store, &live, &checker));
        assert!(outcome.accepted(), "{:?}", outcome.verdict);
        assert_eq!(outcome.stats.aia_attempts, 1);
        assert_eq!(outcome.stats.aia_fetches, 1);
        assert_eq!(live.fetches(), 1);
    }

    /// A deterministic test transport: transient for the first
    /// `fail_first` attempts, then serves the certificate.
    #[derive(Debug)]
    struct FlakyTransport {
        cert: Certificate,
        fail_first: u32,
        latency_ms: u64,
    }

    impl AiaTransport for FlakyTransport {
        fn fetch_aia(&self, _uri: &str, attempt: u32) -> FetchResponse {
            if attempt <= self.fail_first {
                FetchResponse {
                    outcome: FetchOutcome::Transient,
                    latency_ms: self.latency_ms,
                }
            } else {
                FetchResponse {
                    outcome: FetchOutcome::Success(self.cert.clone()),
                    latency_ms: self.latency_ms,
                }
            }
        }
    }

    fn pki_int_kp() -> KeyPair {
        KeyPair::from_seed(Group::simulation_256(), b"eng-int")
    }

    /// A leaf issued by the [`pki`] intermediate, carrying an AIA URI.
    fn aia_leaf(domain: &str, uri: &str) -> Certificate {
        let leaf_kp = KeyPair::from_seed(Group::simulation_256(), b"retry-leaf");
        CertificateBuilder::leaf_profile(domain)
            .aia_ca_issuers(uri)
            .issued_by(
                &leaf_kp.public,
                DistinguishedName::cn("Engine Int"),
                &pki_int_kp(),
            )
    }

    #[test]
    fn retry_policy_recovers_transient_uris() {
        let p = pki();
        let uri = "http://aia.sim/flaky-int.crt";
        let leaf = aia_leaf("retry.sim", uri);
        let transport = FlakyTransport {
            cert: p.int.clone(),
            fail_first: 2,
            latency_ms: 40,
        };
        let served = [leaf];

        // max_attempts 3 rides out two transient failures.
        let mut policy = BuilderPolicy::full_capability();
        policy.retry = RetryPolicy::retrying(3, 200, 30_000);
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &p.store,
            aia: Some(&transport),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = ChainEngine::new(policy).process(&served, &ctx);
        assert!(outcome.accepted(), "{:?}", outcome.verdict);
        assert_eq!(outcome.stats.aia_attempts, 3);
        assert_eq!(outcome.stats.aia_retries, 2);
        assert_eq!(outcome.stats.aia_fetches, 1);
        // 3 × 40ms latency + backoff 200 + 400 on the simulated clock.
        assert_eq!(outcome.stats.sim_latency_ms, 3 * 40 + 200 + 400);
        assert!(!outcome.stats.aia_budget_exhausted);

        // A non-retrying profile loses the same chain.
        let mut policy = BuilderPolicy::full_capability();
        policy.retry = RetryPolicy::none();
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &p.store,
            aia: Some(&transport),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = ChainEngine::new(policy).process(&served, &ctx);
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
        assert_eq!(outcome.stats.aia_attempts, 1);
        assert_eq!(outcome.stats.aia_retries, 0);
        assert_eq!(outcome.stats.aia_fetches, 0);
    }

    #[test]
    fn exhausted_budget_degrades_to_incomplete_chain() {
        let p = pki();
        let uri = "http://aia.sim/slow-int.crt";
        let leaf = aia_leaf("budget.sim", uri);
        // Always transient within the allowed attempts, and so slow that
        // the first attempt plus its backoff blows the 500ms budget.
        let transport = FlakyTransport {
            cert: p.int.clone(),
            fail_first: 10,
            latency_ms: 300,
        };
        let mut policy = BuilderPolicy::full_capability();
        policy.retry = RetryPolicy::retrying(5, 1_000, 500);
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &p.store,
            aia: Some(&transport),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = ChainEngine::new(policy).process(&[leaf], &ctx);
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
        assert!(outcome.stats.aia_budget_exhausted);
        assert_eq!(
            outcome.stats.aia_attempts, 1,
            "budget gate must stop attempt 2"
        );
        assert!(outcome.stats.sim_latency_ms >= 500);
    }

    /// Regression (ISSUE 10 bugfix): the exponential backoff doubles as
    /// `base << (attempt - 1)`; before the fix the shift was clamped and
    /// the doubling could overshoot the retry budget by tens of seconds,
    /// corrupting `sim_latency_ms`. It now saturates to the *remaining*
    /// budget, so the simulated clock lands exactly on `budget_ms`.
    #[test]
    fn high_attempt_backoff_saturates_to_remaining_budget() {
        let p = pki();
        let uri = "http://aia.sim/never-int.crt";
        let leaf = aia_leaf("overflow.sim", uri);
        let transport = FlakyTransport {
            cert: p.int.clone(),
            fail_first: u32::MAX,
            latency_ms: 0,
        };
        let mut policy = BuilderPolicy::full_capability();
        policy.retry = RetryPolicy::retrying(70, 1, 50_000);
        let budget = policy.retry.budget_ms;
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &p.store,
            aia: Some(&transport),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = ChainEngine::new(policy).process(&[leaf], &ctx);
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
        assert!(outcome.stats.aia_budget_exhausted);
        // Backoffs 1, 2, 4, … total 2^k − 1; the 16th retry's doubling
        // (32_768) is clamped to the 17_233ms remaining, landing the
        // clock exactly on the budget (pre-fix: 65_535, a 31% overshoot).
        assert_eq!(outcome.stats.sim_latency_ms, budget);
        assert_eq!(outcome.stats.aia_attempts, 16);
        assert_eq!(outcome.stats.aia_retries, 16);
    }

    /// Regression (ISSUE 10 bugfix): `max_attempts = 70` drives the shift
    /// past 63 (attempt 65 onward); `checked_shl` must neither panic (the
    /// pre-clamp debug behavior) nor saturate a zero base to a non-zero
    /// backoff.
    #[test]
    fn seventy_attempts_with_zero_base_never_overflow_the_shift() {
        let p = pki();
        let uri = "http://aia.sim/never-int.crt";
        let leaf = aia_leaf("shift.sim", uri);
        let transport = FlakyTransport {
            cert: p.int.clone(),
            fail_first: u32::MAX,
            latency_ms: 0,
        };
        let mut policy = BuilderPolicy::full_capability();
        policy.retry = RetryPolicy::retrying(70, 0, u64::MAX);
        let checker = IssuanceChecker::new();
        let ctx = BuildContext {
            store: &p.store,
            aia: Some(&transport),
            cache: &[],
            now: Time::from_ymd(2024, 7, 1).unwrap(),
            checker: &checker,
        };
        let outcome = ChainEngine::new(policy).process(&[leaf], &ctx);
        assert_eq!(outcome.verdict, Err(ClientError::NoIssuerFound));
        // All 70 attempts ran: a zero base doubles to zero forever, so
        // neither the budget gate nor the shift stops the loop early.
        assert_eq!(outcome.stats.aia_attempts, 70);
        assert_eq!(outcome.stats.aia_retries, 69);
        assert_eq!(outcome.stats.sim_latency_ms, 0);
        assert!(!outcome.stats.aia_budget_exhausted);
    }

    #[test]
    fn zero_fault_transport_changes_nothing() {
        // A plain repository behind the trait returns Success/Dead with
        // zero latency, so retrying policies never engage their loop.
        let p = pki();
        let uri = "http://aia.sim/plain-int.crt";
        let leaf = aia_leaf("plain.sim", uri);
        let mut repo = AiaRepository::empty();
        repo.publish(uri, p.int.clone());
        let checker = IssuanceChecker::new();
        let engine = ChainEngine::new(BuilderPolicy::full_capability());
        let outcome = engine.process(&[leaf], &aia_ctx(&p.store, &repo, &checker));
        assert!(outcome.accepted(), "{:?}", outcome.verdict);
        assert_eq!(outcome.stats.aia_retries, 0);
        assert_eq!(outcome.stats.sim_latency_ms, 0);
        assert!(!outcome.stats.aia_budget_exhausted);
    }

    /// The flag `process_shared` returns for one build session of one.
    fn reached_aia(engine: &ChainEngine, served: &[Certificate], ctx: &BuildContext<'_>) -> bool {
        let base = base_pool(served, ctx.store);
        let scratch = RunScratch::default();
        engine.process_shared(served, ctx, &base, &scratch).1
    }

    /// The record the differential harness reuses outcomes on: clients
    /// without AIA never reach the AIA step, and AIA clients reach it only
    /// when their candidate search comes up empty. A missing transport
    /// counts as reached, since the search asked for a fetch.
    #[test]
    fn only_aia_clients_missing_an_issuer_reach_the_aia_step() {
        let p = pki();
        let uri = "http://aia.sim/reach-int.crt";
        let leaf = aia_leaf("reach.sim", uri);
        let mut repo = AiaRepository::empty();
        repo.publish(uri, p.int.clone());
        let faulty = FaultyTransport::new(&repo, FaultPlan::with_fault_rate(7, 1.0));
        let transports: [Option<&dyn AiaTransport>; 3] = [None, Some(&repo), Some(&faulty)];
        let complete = vec![leaf.clone(), p.int.clone()];
        let lone = vec![leaf];
        let aia_clients = [
            ClientKind::CryptoApi,
            ClientKind::Chrome,
            ClientKind::Edge,
            ClientKind::Safari,
        ];
        let checker = IssuanceChecker::new();
        for (kind, engine) in client_profiles() {
            for aia in transports {
                let ctx = BuildContext {
                    aia,
                    ..ctx(&p, &checker)
                };
                let name = kind.name();
                assert!(
                    !reached_aia(&engine, &complete, &ctx),
                    "{name}: complete list"
                );
                let on_lone_leaf = reached_aia(&engine, &lone, &ctx);
                assert_eq!(
                    on_lone_leaf,
                    aia_clients.contains(&kind),
                    "{name}: lone leaf"
                );
            }
        }
        assert!(
            faulty.costs().attempts > 0,
            "the faulty transport was reached"
        );
    }
}
