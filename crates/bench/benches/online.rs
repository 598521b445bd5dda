//! Streaming-fold leaf path: the work the campaign executor does for
//! every chunk of a streamed spectral cell — fold [`FOLD_CHUNK`] traces
//! into a fresh leaf accumulator, then push it into the merge tree.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use leakage_core::online::{SpectrumAccumulator, SumMode, TreeReducer, FOLD_CHUNK};

/// The paper's protocol shape: 16 classes of 100-sample traces.
const CLASSES: usize = 16;
const SAMPLES: usize = 100;

fn bench_leaf_fold_merge(c: &mut Criterion) {
    let traces: Vec<Vec<f64>> = (0..FOLD_CHUNK)
        .map(|i| {
            (0..SAMPLES)
                .map(|t| 1e-3 * (1.5 + ((i * SAMPLES + t) as f64).sin()))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("online");
    group.throughput(Throughput::Elements(FOLD_CHUNK as u64));
    let mut reducer = TreeReducer::new();
    let mut seq = 0u64;
    group.bench_function("exact_leaf_fold_merge", |b| {
        b.iter(|| {
            let mut leaf = SpectrumAccumulator::new(CLASSES, SAMPLES, SumMode::Exact);
            for (i, trace) in traces.iter().enumerate() {
                leaf.fold(i % CLASSES, trace);
            }
            reducer.push(seq, leaf);
            seq += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_leaf_fold_merge);
criterion_main!(benches);
