//! Ablation study over the chain-construction capabilities the paper's
//! §6.2 recommends: starting from a fully capable client, knock out one
//! capability at a time and measure the acceptance rate (and work done)
//! over the non-compliant corpus subset.
//!
//! `cargo run --release --bin ablation [domains]`

use ccc_bench::{
    domains_from_args, scan_corpus, AnalysisPass, ObservationMemo, PassContext, Pipeline,
};
use ccc_core::builder::{
    BuildContext, BuilderPolicy, ChainEngine, KidPriority, SearchScope, ValidityPriority,
};
use ccc_core::report::{count_pct, TextTable};
use ccc_core::{CompletenessAnalyzer, IssuanceChecker};
use ccc_testgen::corpus::scan_time;
use ccc_testgen::DomainObservation;
use ccc_x509::Certificate;

fn variants() -> Vec<(&'static str, BuilderPolicy)> {
    let full = BuilderPolicy::full_capability();
    vec![
        ("full capability", full.clone()),
        (
            "no AIA completion",
            BuilderPolicy {
                aia: false,
                ..full.clone()
            },
        ),
        (
            "no backtracking",
            BuilderPolicy {
                backtracking: false,
                ..full.clone()
            },
        ),
        (
            "no reordering (forward scan)",
            BuilderPolicy {
                scope: SearchScope::ForwardOnly,
                ..full.clone()
            },
        ),
        (
            "flat priorities",
            BuilderPolicy {
                kid_priority: KidPriority::NoPreference,
                validity_priority: ValidityPriority::NoPreference,
                key_usage_priority: false,
                basic_constraints_priority: false,
                ..full.clone()
            },
        ),
        (
            "no trusted-first preference",
            BuilderPolicy {
                trusted_first: false,
                ..full.clone()
            },
        ),
        (
            "path limit = 8 (Firefox-like)",
            BuilderPolicy {
                max_path_len: Some(8),
                ..full.clone()
            },
        ),
        (
            "list limit = 16 (GnuTLS-like)",
            BuilderPolicy {
                max_list_len: Some(16),
                ..full.clone()
            },
        ),
        // Interactions: AIA completion can mask the loss of other
        // capabilities (a fetch recovers an out-of-position issuer), so
        // the paper's I-1/I-3 client deficits only show once AIA is gone.
        (
            "no AIA + no reordering (MbedTLS-like)",
            BuilderPolicy {
                aia: false,
                scope: SearchScope::ForwardOnly,
                ..full.clone()
            },
        ),
        (
            "no AIA + no backtracking (OpenSSL-like)",
            BuilderPolicy {
                aia: false,
                backtracking: false,
                ..full
            },
        ),
    ]
}

/// Custom pipeline pass collecting the non-compliant corpus subset: the
/// study only needs the served chains that fail compliance, so the sweep
/// stays O(chunk) in observations and O(subset) in retained chains (not
/// O(corpus)). Doubles as the out-of-crate exercise of the
/// [`AnalysisPass`] extension point (DESIGN.md §12).
struct NoncompliantSubset<'c> {
    state: Option<(&'c IssuanceChecker, CompletenessAnalyzer<'c>)>,
    chains: Vec<Vec<Certificate>>,
}

impl<'c> NoncompliantSubset<'c> {
    fn new() -> NoncompliantSubset<'c> {
        NoncompliantSubset {
            state: None,
            chains: Vec::new(),
        }
    }
}

impl<'c> AnalysisPass<'c> for NoncompliantSubset<'c> {
    fn name(&self) -> &'static str {
        "noncompliant-subset"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let analyzer = CompletenessAnalyzer::new(
            ctx.checker,
            ctx.corpus.programs.unified(),
            Some(&ctx.corpus.aia),
        );
        NoncompliantSubset {
            state: Some((ctx.checker, analyzer)),
            chains: Vec::new(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let (checker, analyzer) = self.state.as_ref().expect("forked worker");
        let report = memo.report(obs, checker, analyzer);
        if !report.is_compliant() {
            self.chains.push(obs.served.clone());
        }
    }

    fn merge(&mut self, other: Self) {
        // Rank-order merge keeps the subset in corpus order.
        self.chains.extend(other.chains);
    }
}

fn main() -> Result<(), String> {
    let domains = domains_from_args()?;
    let pipeline = Pipeline::from_env()?;
    eprintln!("generating {domains} domains, ablating over the non-compliant subset…");
    let corpus = scan_corpus(domains);
    let checker = IssuanceChecker::new();

    // Collect the non-compliant subset in one streaming sweep.
    let (pass, stats) = pipeline.run(&corpus, &checker, NoncompliantSubset::new());
    let subset = pass.chains;
    eprintln!("non-compliant subset: {} chains", subset.len());
    eprintln!("{}", stats.render());

    let ctx = BuildContext {
        store: corpus.programs.unified(),
        aia: Some(&corpus.aia),
        cache: &[],
        now: scan_time(),
        checker: &checker,
    };
    let mut table = TextTable::new(
        "Capability ablation over non-compliant chains",
        &[
            "Variant",
            "Accepted",
            "Avg candidates",
            "Avg AIA fetches",
            "Avg backtracks",
        ],
    );
    for (name, policy) in variants() {
        let engine = ChainEngine::new(policy);
        let mut accepted = 0usize;
        let mut candidates = 0usize;
        let mut fetches = 0usize;
        let mut backtracks = 0usize;
        for served in &subset {
            let outcome = engine.process(served, &ctx);
            if outcome.accepted() {
                accepted += 1;
            }
            candidates += outcome.stats.candidates_considered;
            fetches += outcome.stats.aia_fetches;
            backtracks += outcome.stats.backtracks;
        }
        let n = subset.len().max(1);
        table.row(&[
            name.to_string(),
            count_pct(accepted, subset.len()),
            format!("{:.2}", candidates as f64 / n as f64),
            format!("{:.3}", fetches as f64 / n as f64),
            format!("{:.3}", backtracks as f64 / n as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper §6.2: completion (AIA or cache) is the dominant capability, then\n\
         backtracking, then order reorganization; the trusted-first preference\n\
         saves construction attempts without changing outcomes."
    );
    Ok(())
}
