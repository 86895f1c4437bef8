//! Criterion benchmarks for the substrate codecs and crypto: DER
//! encode/parse, TLS Certificate-message framing, SHA-256, and Schnorr
//! signing. Verification is timed by `perf_snapshot`'s `verify` cases.

use ccc_crypto::{sha256, Group, KeyPair};
use ccc_netsim::tlsmsg;
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn test_cert() -> Certificate {
    let kp = KeyPair::from_seed(Group::simulation_256(), b"codec-bench");
    CertificateBuilder::ca_profile(DistinguishedName::cn_o("Codec Bench CA", "bench"))
        .self_signed(&kp)
}

fn bench_der(c: &mut Criterion) {
    let cert = test_cert();
    let der = cert.to_der().to_vec();
    let mut group = c.benchmark_group("der");
    group.throughput(Throughput::Bytes(der.len() as u64));
    group.bench_function("parse_certificate", |b| {
        b.iter(|| Certificate::from_der(std::hint::black_box(&der)).expect("valid DER"))
    });
    group.bench_function("encode_tbs", |b| {
        b.iter(|| std::hint::black_box(cert.tbs().to_der()))
    });
    group.finish();
}

fn bench_tls_framing(c: &mut Criterion) {
    let cert = test_cert();
    let chain = vec![cert.clone(), cert.clone(), cert];
    let msg = tlsmsg::encode_tls12(&chain).expect("chain fits TLS framing");
    let mut group = c.benchmark_group("tls_framing");
    group.throughput(Throughput::Bytes(msg.len() as u64));
    group.bench_function("encode_tls12", |b| {
        b.iter(|| tlsmsg::encode_tls12(std::hint::black_box(&chain)).expect("chain fits TLS framing"))
    });
    group.bench_function("decode_tls12", |b| {
        b.iter(|| tlsmsg::decode_tls12(std::hint::black_box(&msg)).expect("valid framing"))
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    // A 64-byte message is two compressions (the block, then a padding
    // block), like each half of the HMACs in corpus generation; 1 KiB
    // measures streaming throughput.
    for (name, len) in [("sha256_64", 64), ("sha256_1k", 1024)] {
        let data = vec![0xa5u8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| sha256(std::hint::black_box(&data))));
    }
    group.finish();

    let mut group = c.benchmark_group("schnorr");
    let kp = KeyPair::from_seed(Group::simulation_256(), b"schnorr-bench");
    let msg = b"benchmark message for schnorr signatures";
    group.bench_function("sign_sim256", |b| {
        b.iter(|| std::hint::black_box(kp.private.sign(msg)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_der, bench_tls_framing, bench_crypto
}
criterion_main!(benches);
