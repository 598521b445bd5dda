//! Event-driven simulation throughput per scheme, a one-shot ISW
//! capture, the process-variation σ sweep of simulator construction,
//! and the capture-path shootout: a fresh `CaptureSession` per capture
//! vs. a reused one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gatesim::{SamplingConfig, SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};

fn bench_transitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/transition");
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        let initial = circuit.encoding().encode(0, &mut rng);
        let final_inputs = circuit.encoding().encode(9, &mut rng);
        let mut session = sim.session();
        group.bench_with_input(BenchmarkId::from_parameter(scheme.label()), &(), |b, ()| {
            b.iter(|| session.transition(&initial, &final_inputs))
        });
    }
    group.finish();
}

fn bench_capture_and_ablation(c: &mut Criterion) {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
    let mut rng = SmallRng::seed_from_u64(2);
    let initial = circuit.encoding().encode(0, &mut rng);
    let final_inputs = circuit.encoding().encode(5, &mut rng);
    let sampling = SamplingConfig::default();
    // One-shot capture: a fresh session and trace per call.
    c.bench_function("simulator/capture_isw", |b| {
        b.iter(|| {
            let mut noise = SmallRng::seed_from_u64(11);
            let mut trace = Vec::new();
            sim.session()
                .capture_into(&initial, &final_inputs, &sampling, &mut noise, &mut trace);
            trace
        })
    });

    // Ablation: simulator construction under process-variation sweep.
    let mut group = c.benchmark_group("simulator/process_sigma");
    for sigma in [0.0, 0.05, 0.15] {
        let cfg = SimConfig {
            process_sigma: sigma,
            ..SimConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{sigma}")),
            &cfg,
            |b, cfg| b.iter(|| Simulator::new(circuit.netlist(), cfg)),
        );
    }
    group.finish();
}

/// The capture-path comparison on the ISW netlist: a fresh session and
/// trace `Vec` per capture (`alloc_per_capture`), a session reused
/// across iterations with a fresh trace `Vec` each (`session_reuse`),
/// and the fully allocation-free leg reusing both
/// (`session_capture_into`). All three run the same session code and
/// produce bit-identical traces.
fn bench_capture_paths(c: &mut Criterion) {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
    let mut rng = SmallRng::seed_from_u64(3);
    let initial = circuit.encoding().encode(0, &mut rng);
    let final_inputs = circuit.encoding().encode(5, &mut rng);
    let sampling = SamplingConfig::default();

    let mut group = c.benchmark_group("simulator/capture_path_isw");
    group.bench_function("alloc_per_capture", |b| {
        b.iter(|| {
            let mut noise = SmallRng::seed_from_u64(11);
            let mut trace = Vec::new();
            let stats = sim.session().capture_into(
                &initial,
                &final_inputs,
                &sampling,
                &mut noise,
                &mut trace,
            );
            (trace, stats)
        })
    });
    let mut session = sim.session();
    group.bench_function("session_reuse", |b| {
        b.iter(|| {
            let mut noise = SmallRng::seed_from_u64(11);
            let mut trace = Vec::new();
            let stats =
                session.capture_into(&initial, &final_inputs, &sampling, &mut noise, &mut trace);
            (trace, stats)
        })
    });
    let mut buf = Vec::new();
    group.bench_function("session_capture_into", |b| {
        b.iter(|| {
            let mut noise = SmallRng::seed_from_u64(11);
            session.capture_into(&initial, &final_inputs, &sampling, &mut noise, &mut buf)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_transitions, bench_capture_and_ablation, bench_capture_paths
}
criterion_main!(benches);
