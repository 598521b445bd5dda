//! CPA attack throughput and the PRESENT cipher reference speed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leakage_core::{ChunkFold, SumMode};
use present_cipher::Present80;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sca_attacks::{cpa_attack, AttackAccumulator, Distinguisher, LeakageModel};

fn bench_cpa(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(4);
    let plaintexts: Vec<u8> = (0..512).map(|_| rng.gen_range(0..16)).collect();
    let traces: Vec<Vec<f64>> = plaintexts
        .iter()
        .map(|&p| {
            (0..100)
                .map(|t| f64::from(present_cipher::sbox(p ^ 0xB).count_ones()) * (t as f64 / 100.0))
                .collect()
        })
        .collect();
    c.bench_function("cpa/512traces_100samples", |b| {
        b.iter(|| cpa_attack(&plaintexts, &traces, LeakageModel::HammingWeight))
    });
    // Streaming fold throughput per distinguisher: the campaign's
    // bounded-memory path over the same dataset, one trace at a time.
    for d in [
        Distinguisher::Cpa(LeakageModel::HammingWeight),
        Distinguisher::Dpa { bit: 0 },
        Distinguisher::Mlpa,
    ] {
        c.bench_function(&format!("stream/{}_512traces_100samples", d.label()), |b| {
            b.iter(|| {
                let mut stream = ChunkFold::new(AttackAccumulator::new(d, 100, SumMode::Exact));
                for (&p, t) in plaintexts.iter().zip(&traces) {
                    stream.fold(u16::from(p), t);
                }
                stream.finish().scores()
            })
        });
    }
}

fn bench_present(c: &mut Criterion) {
    let cipher = Present80::new([0x5A; 10]);
    c.bench_function("present/encrypt_block", |b| {
        b.iter(|| cipher.encrypt_block(black_box(0x0123_4567_89AB_CDEF)))
    });
    c.bench_function("present/key_schedule", |b| {
        b.iter(|| Present80::new(black_box([0x5A; 10])))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_cpa, bench_present
}
criterion_main!(benches);
