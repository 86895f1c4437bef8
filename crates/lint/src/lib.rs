//! `ccc-lint` — a zlint-style static-analysis pass over certificates and
//! served chains.
//!
//! The analyzers in `ccc-core` answer the paper's aggregate questions
//! ("how many chains are reversed?"); this crate answers the *per-chain*
//! question a compiler answers about a source file: exactly which rules
//! does this deployment violate, where, and how severely. The shape is
//! deliberately that of a static-analysis engine:
//!
//! - a plain static [`registry`] (no inventory magic, no trait — one
//!   slice of [`Rule`] records, each an ID, a scope, a description, an
//!   RFC/CABF citation and a check function) with **stable rule IDs**
//!   (`e_chain_reversed_order`, `w_root_included`, …) whose prefix is the
//!   severity;
//! - a [`LintEngine`] that evaluates the registry against one served
//!   chain, reusing the shared [`IssuanceChecker`](ccc_core::IssuanceChecker)
//!   so signature-dependent rules never re-verify a (issuer, subject)
//!   pair, and a [`LintSummary`] that folds linted chains into corpus-wide
//!   histograms (parallel sweeps run on `ccc-bench`'s fused pipeline);
//! - three renderers: human text ([`render::render_text`]), JSON lines
//!   ([`render::render_jsonl`]), and SARIF 2.1.0
//!   ([`render::render_sarif`]) — all hand-rolled, no serde;
//! - a [`Baseline`] mechanism suppressing known findings by
//!   `(rule-id, fingerprint)` so CI fails only on *new* findings.
//!
//! Severity contract: the engine and `ccc_core::analyze_compliance` are
//! mutual test oracles — a chain is non-compliant **iff** linting it
//! yields at least one `Error`-severity finding (checked per corpus pass
//! by [`LintSummary`] and in CI by the `table_lint` binary).

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod json;
pub mod render;
pub mod rules;

pub use baseline::Baseline;
pub use diag::{ChainContext, Finding, Severity};
pub use engine::{rule_for_noncompliance, LintEngine, LintSummary};
pub use rules::{registry, rule_by_id, Rule, RuleScope};
