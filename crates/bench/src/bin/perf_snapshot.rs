//! Machine-readable perf snapshots.
//!
//! Three cases:
//!
//! - **modexp**: times the three arithmetic paths (schoolbook
//!   `modpow_naive`, the Montgomery fixed-window `MontgomeryCtx::modpow`,
//!   and the group's 8-bit fixed-base generator table used for `g^k`) on
//!   both group presets → `BENCH_modexp.json`.
//! - **pipeline**: times the fused single-generation 3-analysis sweep
//!   (compliance + differential + lint, one shared checker) against
//!   three sequential standalone sweeps, each with a fresh checker, on a
//!   1k-domain corpus → `BENCH_pipeline.json`. The run first asserts the
//!   fused summaries are identical to the sequential ones.
//! - **verify**: times steady-state `PublicKey::verify` (a promoted CA
//!   key) against the legacy two-independent-pows baseline on both groups
//!   → `BENCH_verify.json`. Both are cross-checked to accept before any
//!   timing.
//!
//! ```text
//! perf_snapshot                       all cases, default output paths
//! perf_snapshot <path>                modexp only (CI compat)
//! perf_snapshot --pipeline <path>     pipeline only
//! perf_snapshot --verify <path>       verify only
//! ```
//!
//! The committed snapshots back the perf tables in README and the
//! acceptance thresholds (≥5× 1536-bit modexp, ≥10× fixed-base `g^k`,
//! ≥2.5× fused 3-analysis sweep, ≥2× steady-state verify); CI runs this
//! binary in smoke steps to keep them from bit-rotting, and
//! `ci/bench_gate.sh` gates the verify snapshot's `speedup_vs_legacy`
//! ratios. Set `CCC_SNAPSHOT_ITERS` to raise the iteration count for a
//! lower-noise measurement.

use ccc_bench::{
    CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass, Pipeline,
    PipelineStats,
};
use ccc_bignum::{modpow_naive, MontgomeryCtx, Uint};
use ccc_core::IssuanceChecker;
use ccc_crypto::{sha256, Drbg, Group, KeyPair, Signature};
use ccc_lint::LintSummary;
use std::time::{Duration, Instant};

struct PathTiming {
    name: &'static str,
    nanos_per_op: f64,
}

struct CaseResult {
    label: &'static str,
    modulus_bits: usize,
    exponent_bits: usize,
    iters: usize,
    paths: Vec<PathTiming>,
}

fn time_path(iters: usize, mut f: impl FnMut()) -> f64 {
    // One warmup round, then the measured rounds.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn run_case(label: &'static str, group: &'static Group, iters: usize) -> CaseResult {
    let ops = group.ops();
    let (ctx, table) = (&ops.ctx, &ops.g_table);
    let mut drbg = Drbg::from_u64(0xbe9c_4a11);
    let exps: Vec<Uint> = (0..4)
        .map(|_| {
            Uint::from_bytes_be(&drbg.bytes(group.scalar_len))
                .rem(&group.q)
                .expect("q > 0")
        })
        .collect();

    // The three paths must agree bit-for-bit before we time them.
    for e in &exps {
        let naive = modpow_naive(&group.g, e, &group.p).expect("p is non-zero");
        assert_eq!(ctx.modpow(&group.g, e), naive, "{label}: montgomery drift");
        assert_eq!(table.pow(ctx, e), naive, "{label}: fixed-base drift");
    }

    let per = |total: f64| total / exps.len() as f64;
    let naive = per(time_path(iters, || {
        for e in &exps {
            std::hint::black_box(modpow_naive(&group.g, e, &group.p).expect("p is non-zero"));
        }
    }));
    let montgomery = per(time_path(iters, || {
        for e in &exps {
            std::hint::black_box(ctx.modpow(&group.g, e));
        }
    }));
    let fixed_base = per(time_path(iters, || {
        for e in &exps {
            std::hint::black_box(table.pow(ctx, e));
        }
    }));

    CaseResult {
        label,
        modulus_bits: group.p.bit_len(),
        exponent_bits: group.q.bit_len(),
        iters,
        paths: vec![
            PathTiming { name: "naive", nanos_per_op: naive },
            PathTiming { name: "montgomery_window4", nanos_per_op: montgomery },
            PathTiming { name: "fixed_base_table", nanos_per_op: fixed_base },
        ],
    }
}

/// Corpus size for the pipeline snapshot (matches the issue's 1k-domain
/// acceptance workload).
const PIPELINE_DOMAINS: usize = 1_000;

/// One fused-vs-sequential measurement on a 1k-domain corpus. Returns
/// `(sequential_total, fused_total, fused_stats)` — best-of-`iters` wall
/// times — after asserting the fused summaries are bit-identical to the
/// standalone ones.
fn run_pipeline_case(iters: usize) -> (Duration, Duration, PipelineStats) {
    let corpus = ccc_bench::scan_corpus(PIPELINE_DOMAINS);

    // Correctness gate: fused output must equal the sequential outputs.
    let c1 = IssuanceChecker::new();
    let seq_compliance = CorpusSummary::compute_with_checker(&corpus, &c1);
    let c2 = IssuanceChecker::new();
    let seq_differential = DifferentialSummary::compute_with_checker(&corpus, &c2);
    let c3 = IssuanceChecker::new();
    let seq_lint = LintSummary::compute_with_checker(&corpus, &c3);
    let fused_checker = IssuanceChecker::new();
    let ((fc, fd, fl), _) = Pipeline::from_env().run(
        &corpus,
        &fused_checker,
        (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
    );
    assert_eq!(fc.summary, seq_compliance, "fused compliance summary drifted");
    assert_eq!(fd.summary, seq_differential, "fused differential summary drifted");
    assert_eq!(fl.summary, seq_lint, "fused lint summary drifted");

    let mut best_seq = Duration::MAX;
    let mut best_fused = Duration::MAX;
    let mut fused_stats = None;
    for _ in 0..iters {
        let start = Instant::now();
        let c1 = IssuanceChecker::new();
        std::hint::black_box(CorpusSummary::compute_with_checker(&corpus, &c1));
        let c2 = IssuanceChecker::new();
        std::hint::black_box(DifferentialSummary::compute_with_checker(&corpus, &c2));
        let c3 = IssuanceChecker::new();
        std::hint::black_box(LintSummary::compute_with_checker(&corpus, &c3));
        best_seq = best_seq.min(start.elapsed());

        let start = Instant::now();
        let checker = IssuanceChecker::new();
        let (passes, stats) = Pipeline::from_env().run(
            &corpus,
            &checker,
            (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
        );
        let elapsed = start.elapsed();
        std::hint::black_box(&passes);
        drop(passes);
        if elapsed < best_fused {
            best_fused = elapsed;
            fused_stats = Some(stats);
        }
    }
    (best_seq, best_fused, fused_stats.expect("iters > 0"))
}

fn write_pipeline_snapshot(out_path: &str, iters: usize) {
    let (seq, fused, stats) = run_pipeline_case(iters);
    let speedup = seq.as_secs_f64() / fused.as_secs_f64();
    let json = format!(
        "{{\n  \"benchmark\": \"pipeline\",\n  \"unit\": \"seconds\",\n  \"domains\": {},\n  \"passes\": {},\n  \"threads\": {},\n  \"iters\": {},\n  \"sequential_3_passes_s\": {:.4},\n  \"fused_3_passes_s\": {:.4},\n  \"speedup\": {:.2},\n  \"fused_generation_s\": {:.4},\n  \"fused_analysis_s\": {:.4},\n  \"fused_cache\": {{ \"lookups\": {}, \"hits\": {}, \"verifications\": {} }}\n}}\n",
        PIPELINE_DOMAINS,
        stats.passes,
        stats.threads,
        iters,
        seq.as_secs_f64(),
        fused.as_secs_f64(),
        speedup,
        stats.generation.as_secs_f64(),
        stats.analysis.as_secs_f64(),
        stats.cache.lookups,
        stats.cache.hits,
        stats.cache.verifications,
    );
    std::fs::write(out_path, &json).expect("write pipeline snapshot");
    println!(
        "pipeline ({PIPELINE_DOMAINS} domains, 3 passes): sequential {:.3}s, fused {:.3}s, {speedup:.2}x"
    , seq.as_secs_f64(), fused.as_secs_f64());
    println!("{}", stats.render());
    println!("wrote {out_path}");
}

fn write_modexp_snapshot(out_path: &str, iters: usize) {
    let results = [
        run_case("sim256", Group::simulation_256(), iters * 8),
        run_case("rfc3526_1536", Group::rfc3526_1536(), iters),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"modexp\",\n  \"unit\": \"ns_per_op\",\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let naive = r.paths[0].nanos_per_op;
        json.push_str(&format!(
            "    {{\n      \"label\": \"{}\",\n      \"modulus_bits\": {},\n      \"exponent_bits\": {},\n      \"iters\": {},\n      \"paths\": {{\n",
            r.label, r.modulus_bits, r.exponent_bits, r.iters
        ));
        for (j, p) in r.paths.iter().enumerate() {
            json.push_str(&format!(
                "        \"{}\": {{ \"ns_per_op\": {:.0}, \"speedup_vs_naive\": {:.2} }}{}\n",
                p.name,
                p.nanos_per_op,
                naive / p.nanos_per_op,
                if j + 1 < r.paths.len() { "," } else { "" }
            ));
        }
        json.push_str("      }\n    }");
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(out_path, &json).expect("write snapshot");

    for r in &results {
        let naive = r.paths[0].nanos_per_op;
        println!("{} ({}-bit modulus, {}-bit exponent):", r.label, r.modulus_bits, r.exponent_bits);
        for p in &r.paths {
            println!(
                "  {:<20} {:>12.0} ns/op   {:>6.2}x vs naive",
                p.name,
                p.nanos_per_op,
                naive / p.nanos_per_op
            );
        }
    }
    println!("wrote {out_path}");
}

/// The pre-amortization verification — fixed-base `g^s` next to a generic
/// 4-bit-window `y^(q-e)` with no per-key state (what `PublicKey::verify`
/// did before the intern registry). The baseline `verify` is judged
/// against; mirrored in `benches/verify.rs`.
fn verify_legacy(kp: &KeyPair, message: &[u8], sig: &Signature) -> bool {
    let group = kp.public.group();
    if sig.s.len() != group.scalar_len {
        return false;
    }
    let s = Uint::from_bytes_be(&sig.s);
    if s >= group.q {
        return false;
    }
    let e_scalar = Uint::from_bytes_be(&sig.e).rem(&group.q).expect("q > 0");
    let neg_e = group.q.checked_sub(&e_scalar).expect("e < q");
    let ctx = MontgomeryCtx::new(&group.p).expect("p odd");
    let gs = ctx.to_montgomery(&group.pow_g(&s));
    let y = ctx.to_montgomery(&Uint::from_bytes_be(kp.public.as_bytes()));
    let ye = ctx.pow_mont(&y, &neg_e);
    let r = ctx.from_montgomery(&ctx.mul(&gs, &ye));
    let r_bytes = match r.to_bytes_be_padded(group.element_len) {
        Some(b) => b,
        None => return false,
    };
    let mut buf = r_bytes;
    buf.extend_from_slice(message);
    sha256(&buf) == sig.e
}

/// ns/op for the legacy baseline and steady-state `verify` over one
/// CA-style key on `group`.
fn run_verify_case(label: &'static str, group: &'static Group, iters: usize) -> CaseResult {
    let kp = KeyPair::from_seed(group, b"bench-verify-ca-key");
    let mut drbg = Drbg::from_u64(0xbe9c_4a11);
    let sigs: Vec<(Vec<u8>, Signature)> = (0..4)
        .map(|_| {
            let message = drbg.bytes(48);
            let sig = kp.private.sign(&message);
            (message, sig)
        })
        .collect();

    // Agreement gate before timing; the four `verify` calls also pass
    // the promotion threshold and build the key's table, so the timed
    // region is steady-state.
    for (message, sig) in &sigs {
        assert!(verify_legacy(&kp, message, sig), "{label}: legacy reject");
        assert!(kp.public.verify(message, sig), "{label}: verify reject");
    }

    let per = |total: f64| total / sigs.len() as f64;
    let legacy = per(time_path(iters, || {
        for (message, sig) in &sigs {
            std::hint::black_box(verify_legacy(&kp, message, sig));
        }
    }));
    let verify = per(time_path(iters, || {
        for (message, sig) in &sigs {
            std::hint::black_box(kp.public.verify(message, sig));
        }
    }));

    CaseResult {
        label,
        modulus_bits: group.p.bit_len(),
        exponent_bits: group.q.bit_len(),
        iters,
        paths: vec![
            PathTiming { name: "legacy_two_pows", nanos_per_op: legacy },
            PathTiming { name: "verify", nanos_per_op: verify },
        ],
    }
}

fn write_verify_snapshot(out_path: &str, iters: usize) {
    let results = [
        run_verify_case("sim256", Group::simulation_256(), iters * 8),
        run_verify_case("rfc3526_1536", Group::rfc3526_1536(), iters),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"verify\",\n  \"unit\": \"ns_per_op\",\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let legacy = r.paths[0].nanos_per_op;
        json.push_str(&format!(
            "    {{\n      \"label\": \"{}\",\n      \"modulus_bits\": {},\n      \"exponent_bits\": {},\n      \"iters\": {},\n      \"paths\": {{\n",
            r.label, r.modulus_bits, r.exponent_bits, r.iters
        ));
        for (j, p) in r.paths.iter().enumerate() {
            json.push_str(&format!(
                "        \"{}\": {{ \"ns_per_op\": {:.0}, \"speedup_vs_legacy\": {:.2} }}{}\n",
                p.name,
                p.nanos_per_op,
                legacy / p.nanos_per_op,
                if j + 1 < r.paths.len() { "," } else { "" }
            ));
        }
        json.push_str("      }\n    }");
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write verify snapshot");

    for r in &results {
        let legacy = r.paths[0].nanos_per_op;
        println!(
            "{} ({}-bit modulus, {}-bit exponent):",
            r.label, r.modulus_bits, r.exponent_bits
        );
        for p in &r.paths {
            println!(
                "  {:<20} {:>12.0} ns/op   {:>6.2}x vs legacy",
                p.name,
                p.nanos_per_op,
                legacy / p.nanos_per_op
            );
        }
    }
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = std::env::var("CCC_SNAPSHOT_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(20);
    // The pipeline case runs full 1k-domain sweeps, so its repeat count
    // stays small even when CCC_SNAPSHOT_ITERS cranks up modexp.
    let pipeline_iters = iters.div_ceil(7).max(3);

    match args.first().map(String::as_str) {
        // Pipeline only: `perf_snapshot --pipeline [path]`.
        Some("--pipeline") => {
            let out = args.get(1).map(String::as_str).unwrap_or("BENCH_pipeline.json");
            write_pipeline_snapshot(out, pipeline_iters);
        }
        // Verification only: `perf_snapshot --verify [path]`.
        Some("--verify") => {
            let out = args.get(1).map(String::as_str).unwrap_or("BENCH_verify.json");
            write_verify_snapshot(out, iters);
        }
        // Modexp only, to an explicit path (CI compat).
        Some(path) => write_modexp_snapshot(path, iters),
        // Default: all snapshots at their committed paths.
        None => {
            write_modexp_snapshot("BENCH_modexp.json", iters);
            write_pipeline_snapshot("BENCH_pipeline.json", pipeline_iters);
            write_verify_snapshot("BENCH_verify.json", iters);
        }
    }
}
