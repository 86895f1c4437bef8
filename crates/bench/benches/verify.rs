//! Schnorr verification: the legacy single-shot path (generic windowed
//! `y^(q-e)` next to the fixed-base `g^s`) against steady-state
//! `PublicKey::verify` on a promoted CA key.
//!
//! The operands are real signatures over the two built-in groups, with
//! deterministic messages so runs are comparable. Both paths must return
//! `true` on every input — asserted before timing so a broken path can't
//! "win" — and the key's table build is paid *outside* the timed region
//! (the checks pass the promotion threshold), matching production where
//! promotion amortizes it across a CA key's lifetime.

use ccc_bignum::{MontgomeryCtx, Uint};
use ccc_crypto::{Drbg, Group, KeyPair, Signature};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

struct Case {
    label: &'static str,
    group: &'static Group,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "sim256",
            group: Group::simulation_256(),
        },
        Case {
            label: "rfc3526_1536",
            group: Group::rfc3526_1536(),
        },
    ]
}

/// One CA-style key plus deterministic signatures to verify against it.
fn workload(group: &'static Group, n: usize) -> (KeyPair, Vec<(Vec<u8>, Signature)>) {
    let kp = KeyPair::from_seed(group, b"bench-verify-ca-key");
    let mut drbg = Drbg::from_u64(0xbe9c_4a11);
    let sigs = (0..n)
        .map(|_| {
            let message = drbg.bytes(48);
            let sig = kp.private.sign(&message);
            (message, sig)
        })
        .collect();
    (kp, sigs)
}

/// The pre-amortization verification: fixed-base `g^s` alongside a generic
/// 4-bit-window `y^(q-e)` with no per-key state (what `verify` did before
/// the intern registry existed). Kept here as the baseline `verify` is
/// judged against.
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
    use ccc_crypto::sha256;
    let mut buf = r_bytes;
    buf.extend_from_slice(message);
    sha256(&buf) == sig.e
}

fn bench_verify(c: &mut Criterion) {
    for case in cases() {
        let group = case.group;
        let (kp, sigs) = workload(group, 4);

        // Cross-check both paths accept before timing; the four `verify`
        // calls also promote the key.
        for (message, sig) in &sigs {
            assert!(verify_legacy(&kp, message, sig));
            assert!(kp.public.verify(message, sig));
        }

        let mut grp = c.benchmark_group(format!("verify/{}", case.label));
        grp.sample_size(10);
        grp.bench_with_input(BenchmarkId::from_parameter("legacy_two_pows"), &sigs, |b, sigs| {
            b.iter(|| {
                for (message, sig) in sigs {
                    std::hint::black_box(verify_legacy(&kp, message, sig));
                }
            })
        });
        grp.bench_with_input(BenchmarkId::from_parameter("verify"), &sigs, |b, sigs| {
            b.iter(|| {
                for (message, sig) in sigs {
                    std::hint::black_box(kp.public.verify(message, sig));
                }
            })
        });
        grp.finish();
    }
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
