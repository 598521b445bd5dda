//! Campaign-engine throughput: traces/second through the sharded
//! executor at 1/2/4/8 workers, the cold-acquire versus warm-cache cost
//! of a full campaign cell, and the overhead of the fault-tolerance
//! machinery (panic isolation + retry) when faults actually fire.

use std::path::{Path, PathBuf};

use campaign::{CacheMode, Campaign, CampaignConfig, FaultPlan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbox_circuits::Scheme;

fn small_protocol() -> acquisition::ProtocolConfig {
    acquisition::ProtocolConfig {
        traces_per_class: 4,
        ..acquisition::ProtocolConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sbox-leakage-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign_in(dir: &Path, workers: usize, cache: CacheMode) -> Campaign {
    Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        workers,
        cache,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        ..CampaignConfig::default()
    })
}

/// Cold acquisition (cache off, every iteration simulates): scaling of
/// the sharded executor with worker count.
fn bench_workers(c: &mut Criterion) {
    let traces = small_protocol().traces_per_class as u64 * 16;
    let mut group = c.benchmark_group("campaign/acquire_cold");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces));
    for workers in [1usize, 2, 4, 8] {
        let dir = scratch(&format!("cold{workers}"));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{workers}workers")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut campaign = campaign_in(&dir, workers, CacheMode::Off);
                    campaign.acquire(Scheme::Isw)
                })
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Warm cache (store primed once): each iteration is a fresh campaign
/// that serves the same cell from disk without simulating.
fn bench_warm_cache(c: &mut Criterion) {
    let traces = small_protocol().traces_per_class as u64 * 16;
    let dir = scratch("warm");
    campaign_in(&dir, 1, CacheMode::ReadWrite).acquire(Scheme::Isw);

    let mut group = c.benchmark_group("campaign/acquire_warm");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces));
    group.bench_function("store_hit", |b| {
        b.iter(|| {
            let mut campaign = campaign_in(&dir, 1, CacheMode::ReadWrite);
            let outcome = campaign.acquire(Scheme::Isw);
            assert!(outcome.cache_hit);
            outcome
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-recovery overhead: the same cold acquisition with a 10%
/// transient panic rate — every tenth trace unwinds once and is retried
/// — versus the catch-unwind wrapper alone (no faults). The gap between
/// this and `acquire_cold/4workers` is the price of recovery.
fn bench_fault_recovery(c: &mut Criterion) {
    let traces = small_protocol().traces_per_class as u64 * 16;
    let mut group = c.benchmark_group("campaign/acquire_faulted");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces));
    for (name, faults) in [
        ("no_faults", FaultPlan::none()),
        ("retry_10pct", FaultPlan::none().with_panic_rate(7, 0.1)),
    ] {
        let dir = scratch(&format!("faulted-{name}"));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut campaign = Campaign::new(CampaignConfig {
                    protocol: small_protocol(),
                    workers: 4,
                    cache: CacheMode::Off,
                    store_dir: dir.join("traces"),
                    log_path: dir.join("runs.jsonl"),
                    faults: faults.clone(),
                    ..CampaignConfig::default()
                });
                campaign.acquire(Scheme::Isw)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// The executor's inner loop in isolation: one shard's worth of
/// scheduled stimuli captured on a fresh `CaptureSession` per trace
/// versus the reused per-worker session (what the executor actually
/// holds for its whole shard), each keeping a fresh owned trace `Vec`
/// as the executor does. Same schedule, same seeds, bit-identical
/// traces — the gap is pure session setup and queue overhead.
fn bench_shard_capture_paths(c: &mut Criterion) {
    use acquisition::{classified_schedule, trace_seed, Stimulus};
    use gatesim::{CaptureSession, CaptureStats, Simulator};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let protocol = small_protocol();
    let circuit = sbox_circuits::SboxCircuit::build(Scheme::Isw);
    let sim = Simulator::new(circuit.netlist(), &protocol.sim);
    let schedule = classified_schedule(&circuit, &protocol);
    let traces = schedule.len() as u64;
    let capture = |session: &mut CaptureSession<'_>, i: usize, s: &Stimulus| -> CaptureStats {
        let mut noise = SmallRng::seed_from_u64(trace_seed(protocol.seed, i as u64));
        let mut trace = Vec::new();
        session.capture_into(
            &s.initial,
            &s.final_inputs,
            &protocol.sampling,
            &mut noise,
            &mut trace,
        )
    };

    let mut group = c.benchmark_group("campaign/shard_capture");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces));
    group.bench_function("alloc_per_trace", |b| {
        b.iter(|| {
            schedule
                .iter()
                .enumerate()
                .map(|(i, s)| capture(&mut sim.session(), i, s))
                .fold(0usize, |acc, stats| acc + stats.events)
        })
    });
    let mut session = sim.session();
    group.bench_function("session_per_worker", |b| {
        b.iter(|| {
            schedule
                .iter()
                .enumerate()
                .map(|(i, s)| capture(&mut session, i, s))
                .fold(0usize, |acc, stats| acc + stats.events)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_workers, bench_warm_cache, bench_fault_recovery, bench_shard_capture_paths
}
criterion_main!(benches);
