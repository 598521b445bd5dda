//! The pre-optimization capture path, frozen as the measured baseline.
//!
//! This is a faithful copy of the capture hot path as it stood before
//! the `CaptureSession` rework: a `BinaryHeap` event queue, every
//! scratch buffer allocated per call, per-net `loads()` vectors chased
//! through the netlist, and the `.take(last).skip(first)` waveform
//! indexing that walked the whole sample buffer per event. It is built
//! purely on `gatesim`'s public API (`gate_delay_ps`, `gate_energy_fj`,
//! `config`, the netlist accessors), so it stays compilable while the
//! production engine evolves.
//!
//! Two jobs:
//!
//! 1. the **baseline leg** of the capture benchmarks and of
//!    `capture_bench` (which writes `BENCH_capture.json`);
//! 2. a **bit-identity oracle**: `legacy_capture_with_rng_stats` must
//!    match `CaptureSession::capture_into` exactly, proving the
//!    bucket-queue engine changed the cost, not the physics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gatesim::{CaptureStats, PulseShape, SamplingConfig, Simulator, SwitchEvent, TransitionRecord};
use rand::Rng;
use sbox_netlist::GateId;

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    time_ps: f64,
    seq: u64,
    gate: GateId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The original event-driven transition: heap-queued events, all scratch
/// allocated per call.
pub fn legacy_transition(
    sim: &Simulator<'_>,
    initial: &[bool],
    final_inputs: &[bool],
) -> TransitionRecord {
    let netlist = sim.netlist();
    assert_eq!(final_inputs.len(), netlist.num_inputs());
    let mut values = netlist.evaluate_nets(initial);

    let mut pending: Vec<Option<(f64, bool, u64)>> = vec![None; netlist.gates().len()];
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut events: Vec<SwitchEvent> = Vec::new();

    let mut touched: Vec<GateId> = Vec::new();
    for (&net, &v) in netlist.inputs().iter().zip(final_inputs) {
        if values[net.index()] != v {
            values[net.index()] = v;
            touched.extend(netlist.net(net).loads());
        }
    }
    touched.sort();
    touched.dedup();
    for g in touched {
        schedule(
            sim,
            g,
            0.0,
            &values,
            &mut pending,
            &mut heap,
            &mut seq,
            &mut events,
        );
    }

    let mut last_switch = vec![f64::NEG_INFINITY; netlist.gates().len()];
    while let Some(Reverse(entry)) = heap.pop() {
        let gid = entry.gate;
        let Some((t, v, s)) = pending[gid.index()] else {
            continue; // cancelled
        };
        if s != entry.seq {
            continue; // superseded
        }
        pending[gid.index()] = None;
        let out_net = netlist.gate(gid).output();
        values[out_net.index()] = v;
        let swing_ps = 3.0 * sim.gate_delay_ps(gid);
        let elapsed = t - last_switch[gid.index()];
        let swing_fraction = (elapsed / swing_ps).min(1.0);
        last_switch[gid.index()] = t;
        events.push(SwitchEvent {
            gate: gid,
            time_ps: t,
            rising: v,
            energy_fj: sim.gate_energy_fj(gid) * swing_fraction,
            absorbed: false,
        });
        for &load in netlist.net(out_net).loads() {
            schedule(
                sim,
                load,
                t,
                &values,
                &mut pending,
                &mut heap,
                &mut seq,
                &mut events,
            );
        }
    }

    events.sort_by(|a, b| a.time_ps.total_cmp(&b.time_ps));
    TransitionRecord {
        events,
        settled: values,
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule(
    sim: &Simulator<'_>,
    g: GateId,
    t_now: f64,
    values: &[bool],
    pending: &mut [Option<(f64, bool, u64)>],
    heap: &mut BinaryHeap<Reverse<HeapEntry>>,
    seq: &mut u64,
    events: &mut Vec<SwitchEvent>,
) {
    let gate = sim.netlist().gate(g);
    let mut pins = [false; 4];
    for (slot, net) in pins.iter_mut().zip(gate.inputs()) {
        *slot = values[net.index()];
    }
    let new_v = gate.cell().evaluate(&pins[..gate.inputs().len()]);
    let cur = values[gate.output().index()];
    match pending[g.index()] {
        Some((_, vp, _)) if vp == new_v => {}
        Some((tp, _, _)) => {
            pending[g.index()] = None;
            if sim.config().absorbed_energy_fraction > 0.0 {
                events.push(SwitchEvent {
                    gate: g,
                    time_ps: tp,
                    rising: !cur,
                    energy_fj: sim.gate_energy_fj(g) * sim.config().absorbed_energy_fraction,
                    absorbed: true,
                });
            }
            if new_v != cur {
                push_event(sim, g, t_now, new_v, pending, heap, seq);
            }
        }
        None => {
            if new_v != cur {
                push_event(sim, g, t_now, new_v, pending, heap, seq);
            }
        }
    }
}

fn push_event(
    sim: &Simulator<'_>,
    g: GateId,
    t_now: f64,
    value: bool,
    pending: &mut [Option<(f64, bool, u64)>],
    heap: &mut BinaryHeap<Reverse<HeapEntry>>,
    seq: &mut u64,
) {
    *seq += 1;
    let t = t_now + sim.gate_delay_ps(g);
    pending[g.index()] = Some((t, value, *seq));
    heap.push(Reverse(HeapEntry {
        time_ps: t,
        seq: *seq,
        gate: g,
    }));
}

/// The original `sample_waveform`: a fresh buffer per call and iterator
/// `.take(last).skip(first)` indexing that enumerates every bin before
/// `first` for every event.
pub fn legacy_sample_waveform(
    events: &[SwitchEvent],
    sampling: &SamplingConfig,
    pulse_width_factor: f64,
    gate_delay_ps: impl Fn(GateId) -> f64,
    shape: PulseShape,
) -> Vec<f64> {
    let dt = sampling.period_ps();
    let mut samples = vec![0.0f64; sampling.samples];
    for e in events {
        let width = (pulse_width_factor * gate_delay_ps(e.gate)).max(1e-3);
        let start = e.time_ps;
        let end = start + width;
        let first = ((start / dt).floor().max(0.0)) as usize;
        let last = ((end / dt).ceil() as usize).min(sampling.samples);
        for (k, slot) in samples
            .iter_mut()
            .enumerate()
            .take(last)
            .skip(first.min(sampling.samples))
        {
            let bin_lo = k as f64 * dt;
            let bin_hi = bin_lo + dt;
            let xa = ((bin_lo - start) / width).clamp(0.0, 1.0);
            let xb = ((bin_hi - start) / width).clamp(0.0, 1.0);
            let frac = pulse_cdf(shape, xb) - pulse_cdf(shape, xa);
            if frac > 0.0 {
                *slot += e.energy_fj * frac / dt;
            }
        }
    }
    samples
}

fn pulse_cdf(shape: PulseShape, x: f64) -> f64 {
    match shape {
        PulseShape::Rectangular => x,
        PulseShape::Triangular => {
            if x < 0.5 {
                2.0 * x * x
            } else {
                1.0 - 2.0 * (1.0 - x) * (1.0 - x)
            }
        }
    }
}

/// Box–Muller standard normal, bit-identical to the simulator's private
/// `gaussian` (same algorithm, same draws).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// The original allocating capture: transition, render, add noise —
/// one fresh allocation per stage.
pub fn legacy_capture_with_rng_stats<R: Rng>(
    sim: &Simulator<'_>,
    initial: &[bool],
    final_inputs: &[bool],
    sampling: &SamplingConfig,
    rng: &mut R,
) -> (Vec<f64>, CaptureStats) {
    let record = legacy_transition(sim, initial, final_inputs);
    let mut samples = legacy_sample_waveform(
        &record.events,
        sampling,
        sim.config().pulse_width_factor,
        |g| sim.gate_delay_ps(g),
        PulseShape::Triangular,
    );
    if sim.config().noise_mw > 0.0 {
        for s in &mut samples {
            *s += sim.config().noise_mw * gaussian(rng);
        }
    }
    (samples, CaptureStats::from(&record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatesim::SimConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sbox_circuits::{SboxCircuit, Scheme};

    /// The oracle: on the real ISW netlist, with process variation and
    /// noise on, the frozen pre-rework path and the session engine agree
    /// bit for bit — traces and stats.
    #[test]
    fn legacy_and_session_engines_are_bit_identical_on_isw() {
        let circuit = SboxCircuit::build(Scheme::Isw);
        let cfg = SimConfig {
            process_sigma: 0.08,
            noise_mw: 0.02,
            ..SimConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &cfg);
        let sampling = SamplingConfig::default();
        let mut session = sim.session();
        let mut rng = SmallRng::seed_from_u64(0xB00);
        for step in 0u64..16 {
            let initial = circuit.encoding().encode((step % 16) as u8, &mut rng);
            let final_inputs = circuit
                .encoding()
                .encode(((step * 5 + 3) % 16) as u8, &mut rng);
            let mut r_old = SmallRng::seed_from_u64(step);
            let mut r_new = SmallRng::seed_from_u64(step);
            let (t_old, s_old) =
                legacy_capture_with_rng_stats(&sim, &initial, &final_inputs, &sampling, &mut r_old);
            let mut t_new = Vec::new();
            let s_new =
                session.capture_into(&initial, &final_inputs, &sampling, &mut r_new, &mut t_new);
            assert_eq!(t_old, t_new, "trace mismatch at step {step}");
            assert_eq!(s_old, s_new, "stats mismatch at step {step}");
        }
    }

    #[test]
    fn legacy_transition_matches_production_on_every_scheme() {
        for scheme in Scheme::ALL {
            let circuit = SboxCircuit::build(scheme);
            let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
            let mut rng = SmallRng::seed_from_u64(42);
            let initial = circuit.encoding().encode(0, &mut rng);
            let final_inputs = circuit.encoding().encode(9, &mut rng);
            let old = legacy_transition(&sim, &initial, &final_inputs);
            let new = sim.session().transition(&initial, &final_inputs);
            assert_eq!(old.events, new.events, "{scheme:?}");
            assert_eq!(old.settled, new.settled, "{scheme:?}");
        }
    }
}
