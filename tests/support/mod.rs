//! The sequential capture oracle: the paper's acquisition protocol run
//! one trace at a time, in schedule order, on the event-driven engine.
//!
//! Library code acquires only through the `sca-campaign` verbs, which
//! shard a schedule over workers and capture on either engine. These
//! functions share none of that machinery — only the protocol's
//! schedules and per-trace seeds — so a test that compares a campaign
//! against them checks the executor, the bit-sliced engine and the
//! merge chain against an engine-independent reference.

#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_leakage::acquisition::{
    classified_schedule, cpa_schedule, cpa_seed, trace_seed, ProtocolConfig, Stimulus, NUM_CLASSES,
};
use sbox_leakage::analysis::ClassifiedTraces;
use sbox_leakage::campaign::CpaAcquisition;
use sbox_leakage::circuits::SboxCircuit;
use sbox_leakage::gatesim::{Derating, SamplingConfig, Simulator};

/// The one sequential capture loop: capture `schedule` in order on the
/// event engine, seeding trace `i`'s noise with `trace_seed(base_seed,
/// i)` — the executor's per-index seed — and hand each trace to `sink`.
fn capture_schedule(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    mut sink: impl FnMut(&Stimulus, &[f64]),
) {
    let mut session = sim.session();
    let mut trace = Vec::new();
    for (i, s) in schedule.iter().enumerate() {
        let mut noise = SmallRng::seed_from_u64(trace_seed(base_seed, i as u64));
        session.capture_into(
            &s.initial,
            &s.final_inputs,
            sampling,
            &mut noise,
            &mut trace,
        );
        sink(s, &trace);
    }
}

/// Acquire a class-balanced trace set from a fresh (unaged) device.
pub fn acquire(circuit: &SboxCircuit, config: &ProtocolConfig) -> ClassifiedTraces {
    let derating = Derating::fresh(circuit.netlist());
    acquire_with_derating(circuit, config, &derating)
}

/// Acquire a class-balanced trace set from a device with per-gate aging
/// derating applied.
pub fn acquire_with_derating(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    derating: &Derating,
) -> ClassifiedTraces {
    let sim = Simulator::with_derating(circuit.netlist(), &config.sim, derating);
    let schedule = classified_schedule(circuit, config);
    let mut set = ClassifiedTraces::new(NUM_CLASSES, config.sampling.samples);
    capture_schedule(
        &sim,
        &schedule,
        &config.sampling,
        config.seed,
        |s, trace| set.push(usize::from(s.label), trace.to_vec()),
    );
    set
}

/// Acquire a CPA dataset on a fresh device (see `cpa_schedule` for the
/// protocol).
///
/// # Panics
///
/// Panics if `key >= 16` or `traces == 0`.
pub fn acquire_cpa(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    key: u8,
    traces: usize,
) -> CpaAcquisition {
    let sim = Simulator::new(circuit.netlist(), &config.sim);
    let schedule = cpa_schedule(circuit, config, key, traces);
    let mut plaintexts = Vec::with_capacity(traces);
    let mut out = Vec::with_capacity(traces);
    capture_schedule(
        &sim,
        &schedule,
        &config.sampling,
        cpa_seed(config),
        |s, trace| {
            plaintexts.push(s.label as u8);
            out.push(trace.to_vec());
        },
    );
    CpaAcquisition {
        key,
        plaintexts,
        traces: out,
    }
}
