//! Reusable capture sessions — the simulator's allocation-free hot path.
//!
//! A [`CaptureSession`] is a simulation arena created once per
//! [`Simulator`] and reused across captures. It runs the simulator's
//! compiled netlist (CSR fan-out, truth tables; see `program.rs`) and
//! owns only scratch: net values, the pending-event table, the event
//! queue, the `last_switch` array, the touched-gate seed list and the
//! event log, all cleared — not reallocated — between traces.
//!
//! # Determinism
//!
//! The session is the only event-loop implementation: every event
//! record and every trace the event-driven engine produces comes from
//! `CaptureSession::run`. Events pop in `(time_ps, seq)` order from the
//! shared bucket queue, whose ordering argument holds for any bucket
//! width.

use rand::Rng;

use crate::engine::{CaptureStats, SwitchEvent, TransitionRecord};
use crate::power::{gaussian, sample_waveform_into};
use crate::program::{EventQueue, Program, QueuedEvent};
use crate::{SamplingConfig, Simulator};

/// A gate's scheduled-but-uncommitted output change (`seq == 0`: none).
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    time_ps: f64,
    seq: u32,
    val: bool,
}

/// A reusable simulation arena bound to one [`Simulator`].
///
/// Create with [`Simulator::session`]. [`simulate`](Self::simulate) and
/// [`transition`](Self::transition) record one input transition's
/// events; [`capture_into`](Self::capture_into) renders its power
/// trace. Reuse a session across traces to skip all per-capture scratch
/// allocation — the campaign executor keeps one per worker thread for
/// its whole shard.
///
/// A session holds no mutable reference to the simulator, so any number
/// of sessions (one per thread) can share one `Simulator`.
#[derive(Debug)]
pub struct CaptureSession<'a> {
    sim: &'a Simulator<'a>,
    /// The simulator's compiled netlist.
    prog: &'a Program,
    /// The simulator's derated per-gate delay and switching energy.
    delay_ps: &'a [f64],
    energy_fj: &'a [f64],
    /// Per-gate current input pattern, maintained incrementally as nets
    /// toggle — `schedule` never gathers input values.
    pattern: Vec<u8>,
    values: Vec<bool>,
    /// Pending scheduled output change per gate (`seq == 0` means none;
    /// the push counter starts at 1). One 16-byte record per gate: the
    /// three fields are always read together.
    pending: Vec<Pending>,
    last_switch: Vec<f64>,
    touched: Vec<u32>,
    events: Vec<SwitchEvent>,
    queue: EventQueue,
    seq: u32,
}

impl<'a> CaptureSession<'a> {
    pub(crate) fn new(sim: &'a Simulator<'a>) -> Self {
        Self {
            sim,
            prog: &sim.program,
            delay_ps: &sim.delay_ps,
            energy_fj: &sim.energy_fj,
            pattern: vec![0; sim.delay_ps.len()],
            values: Vec::new(),
            pending: Vec::new(),
            last_switch: Vec::new(),
            touched: Vec::new(),
            events: Vec::new(),
            queue: EventQueue::new(sim.program.bucket_width),
            seq: 0,
        }
    }

    /// The simulator this session runs on.
    pub fn simulator(&self) -> &'a Simulator<'a> {
        self.sim
    }

    /// Simulate the circuit settling into `initial`, then switching its
    /// primary inputs to `final_inputs` at t = 0, recording every supply
    /// event until quiescence. The event log and settled net values stay
    /// borrowable from the session (no allocation) until the next run.
    /// Events are in non-decreasing time order.
    ///
    /// The timing/charge model: each gate output change propagates after
    /// the gate's derated delay; a node re-toggling before its output
    /// fully settles (a window of ~3 gate delays) never completes the
    /// swing and draws proportionally less charge, and pulses narrower
    /// than a gate's own delay are absorbed by the inertial-delay rule
    /// (costing [`SimConfig::absorbed_energy_fraction`] of a full
    /// swing).
    ///
    /// [`SimConfig::absorbed_energy_fraction`]: crate::SimConfig::absorbed_energy_fraction
    ///
    /// # Panics
    ///
    /// Panics if either input slice length differs from the netlist's
    /// primary input count.
    pub fn simulate(
        &mut self,
        initial: &[bool],
        final_inputs: &[bool],
    ) -> (&[SwitchEvent], &[bool]) {
        self.run(initial, final_inputs);
        (&self.events, &self.values)
    }

    /// [`simulate`](Self::simulate), materializing an owned record.
    pub fn transition(&mut self, initial: &[bool], final_inputs: &[bool]) -> TransitionRecord {
        self.run(initial, final_inputs);
        TransitionRecord {
            events: self.events.clone(),
            settled: self.values.clone(),
        }
    }

    /// The engine's one trace capture: [`simulate`](Self::simulate) the
    /// transition, render its power trace (mW per sample) into `out`
    /// (cleared and resized to the sample count, so its allocation is
    /// reused across traces), and add measurement noise drawn from
    /// `rng` when [`SimConfig::noise_mw`] is positive. Returns the
    /// transition's event counters.
    ///
    /// # Panics
    ///
    /// Panics if either input slice length differs from the netlist's
    /// primary input count.
    ///
    /// [`SimConfig::noise_mw`]: crate::SimConfig::noise_mw
    pub fn capture_into<R: Rng>(
        &mut self,
        initial: &[bool],
        final_inputs: &[bool],
        sampling: &SamplingConfig,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) -> CaptureStats {
        self.run(initial, final_inputs);
        let sim = self.sim;
        let delay_ps = self.delay_ps;
        sample_waveform_into(
            out,
            &self.events,
            sampling,
            sim.config().pulse_width_factor,
            |g| delay_ps[g.index()],
        );
        if sim.config().noise_mw > 0.0 {
            for s in out.iter_mut() {
                *s += sim.config().noise_mw * gaussian(rng);
            }
        }
        CaptureStats::from_events(&self.events)
    }

    /// The event loop (see [`simulate`](Self::simulate) for the physics).
    /// Scratch is reset on *entry*, not exit, so a capture that panicked
    /// mid-run (the executor's fault-injection path) leaves the session
    /// ready for its retry.
    fn run(&mut self, initial: &[bool], final_inputs: &[bool]) {
        let (netlist, prog) = (self.sim.netlist(), self.prog);
        assert_eq!(final_inputs.len(), netlist.num_inputs());
        assert_eq!(
            initial.len(),
            netlist.num_inputs(),
            "netlist `{}` has {} inputs, got {}",
            netlist.name(),
            netlist.num_inputs(),
            initial.len()
        );

        // Settle on `initial`, filling the per-gate input-pattern cache
        // the event loop maintains incrementally from here on.
        self.values.clear();
        self.values.resize(netlist.nets().len(), false);
        for (net, &v) in netlist.inputs().iter().zip(initial) {
            self.values[net.index()] = v;
        }
        for &g in &prog.topo {
            let g = g as usize;
            let mut p = 0u8;
            for (bit, &net) in prog.inputs(g).iter().enumerate() {
                p |= (self.values[net as usize] as u8) << bit;
            }
            self.pattern[g] = p;
            self.values[prog.output_nets[g] as usize] = (prog.truth[g] >> p) & 1 == 1;
        }

        self.pending.clear();
        self.pending.resize(prog.truth.len(), Pending::default());
        self.last_switch.clear();
        self.last_switch.resize(prog.truth.len(), f64::NEG_INFINITY);
        self.events.clear();
        self.queue.reset();
        self.seq = 0;
        self.touched.clear();

        // Apply the new primary inputs at t = 0 and seed the queue with
        // the gates they feed. All pattern bits flip before any gate is
        // evaluated, exactly as a value-gathering engine would see it.
        for (&net, &v) in netlist.inputs().iter().zip(final_inputs) {
            if self.values[net.index()] != v {
                self.values[net.index()] = v;
                for &edge in prog.loads(net.index()) {
                    self.pattern[(edge >> 3) as usize] ^= 1 << (edge & 7);
                    self.touched.push(edge >> 3);
                }
            }
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        for i in 0..self.touched.len() {
            let g = self.touched[i] as usize;
            self.schedule(g, 0.0);
        }

        while let Some(ev) = self.queue.pop() {
            let g = ev.gate as usize;
            let p = self.pending[g];
            if p.seq != ev.seq {
                continue; // cancelled or superseded
            }
            let t = p.time_ps;
            let v = p.val;
            self.pending[g].seq = 0;
            let out_net = prog.output_nets[g] as usize;
            debug_assert_ne!(self.values[out_net], v);
            self.values[out_net] = v;
            // A node re-toggling before its output fully settles never
            // completes the swing: scale the drawn charge by the fraction
            // of the swing achieved (see the `simulate` docs).
            let swing_ps = 3.0 * self.delay_ps[g];
            let elapsed = t - self.last_switch[g];
            let swing_fraction = (elapsed / swing_ps).min(1.0);
            self.last_switch[g] = t;
            self.events.push(SwitchEvent {
                gate: prog.gate_ids[g],
                time_ps: t,
                rising: v,
                energy_fj: self.energy_fj[g] * swing_fraction,
                absorbed: false,
            });
            // Two phases on the fan-out: flip every affected pattern
            // bit, then re-evaluate each load (a gate connected to this
            // net on several pins must see them all flip first).
            let loads = prog.loads(out_net);
            for &edge in loads {
                self.pattern[(edge >> 3) as usize] ^= 1 << (edge & 7);
            }
            for &edge in loads {
                self.schedule((edge >> 3) as usize, t);
            }
        }

        // Final ordering by time. Events commit in non-decreasing time
        // order — only absorbed glitches (recorded at their revoked
        // *scheduled* time) land a few slots early — so a stable
        // insertion sort is O(n + inversions) and, unlike the std
        // stable sort, allocation-free. Stable-sort output is unique,
        // so this matches the reference engine's `sort_by` exactly.
        let events = &mut self.events[..];
        for i in 1..events.len() {
            let mut j = i;
            while j > 0 && events[j - 1].time_ps.total_cmp(&events[j].time_ps).is_gt() {
                events.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Re-evaluate gate `g` from its cached input pattern and schedule /
    /// cancel its output event under inertial-delay semantics.
    fn schedule(&mut self, g: usize, t_now: f64) {
        let prog = self.prog;
        let new_v = (prog.truth[g] >> self.pattern[g]) & 1 == 1;
        let cur = self.values[prog.output_nets[g] as usize];
        let p = self.pending[g];
        if p.seq != 0 {
            if p.val == new_v {
                // Already heading to the right value; the earlier event
                // stands (re-evaluation cannot arrive earlier).
                return;
            }
            // The scheduled swing is revoked before completing: the
            // output made a partial excursion — an absorbed glitch.
            self.pending[g].seq = 0;
            let absorbed_frac = self.sim.config().absorbed_energy_fraction;
            if absorbed_frac > 0.0 {
                self.events.push(SwitchEvent {
                    gate: prog.gate_ids[g],
                    time_ps: p.time_ps,
                    rising: !cur,
                    energy_fj: self.energy_fj[g] * absorbed_frac,
                    absorbed: true,
                });
            }
        }
        if new_v != cur {
            self.seq += 1;
            let t = t_now + self.delay_ps[g];
            self.pending[g] = Pending {
                time_ps: t,
                seq: self.seq,
                val: new_v,
            };
            self.queue.push(QueuedEvent {
                time_ps: t,
                seq: self.seq,
                gate: g as u32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sbox_netlist::NetlistBuilder;

    /// A fanout-heavy netlist where several inputs race: two XOR layers
    /// over four inputs plus skewed inverter chains, so glitches,
    /// cancellations and superseded events all occur.
    fn racy_netlist() -> sbox_netlist::Netlist {
        let mut b = NetlistBuilder::new("racy");
        let x = b.input_bus("x", 4);
        let d0 = b.not(x[0]);
        let d1 = b.not(d0);
        let a = b.xor(d1, x[1]);
        let c = b.xor(x[2], x[3]);
        let y = b.xor(a, c);
        let z = b.and(&[a, c, d1]);
        b.output("y", y);
        b.output("z", z);
        b.finish().expect("valid")
    }

    fn noisy_config() -> SimConfig {
        SimConfig {
            process_sigma: 0.08,
            noise_mw: 0.02,
            ..SimConfig::default()
        }
    }

    /// One capture into a fresh buffer, noise seeded from `seed`.
    fn capture(
        session: &mut CaptureSession<'_>,
        initial: &[bool],
        final_inputs: &[bool],
        seed: u64,
    ) -> (Vec<f64>, CaptureStats) {
        let mut trace = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sampling = SamplingConfig::default();
        let stats = session.capture_into(initial, final_inputs, &sampling, &mut rng, &mut trace);
        (trace, stats)
    }

    /// The seeded gate order (`touched` after `sort_unstable` +
    /// `dedup`) is deterministic — repeated runs of the same stimulus
    /// through one session produce identical event sequences, equal to
    /// a fresh session's.
    #[test]
    fn seeded_gate_order_is_deterministic() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let mut session = sim.session();
        let a = session.transition(&[false; 4], &[true; 4]);
        let b = session.transition(&[false; 4], &[true; 4]);
        assert_eq!(a.events, b.events, "same stimulus, same session");
        let fresh = sim.session().transition(&[false; 4], &[true; 4]);
        assert_eq!(a.events, fresh.events, "reused vs fresh session");
        assert_eq!(a.settled, fresh.settled);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn interleaved_session_captures_match_a_fresh_session_bit_for_bit() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let mut session = sim.session();
        // Interleave many different stimuli through ONE session and
        // compare each against a never-used session, including noise
        // and stats.
        for step in 0u64..32 {
            let iv: Vec<bool> = (0..4).map(|i| (step >> i) & 1 == 1).collect();
            let fv: Vec<bool> = (0..4).map(|i| ((step * 7 + 3) >> i) & 1 == 1).collect();
            let reused = capture(&mut session, &iv, &fv, step);
            let fresh = capture(&mut sim.session(), &iv, &fv, step);
            assert_eq!(reused, fresh, "step {step}");
        }
    }

    #[test]
    fn capture_into_reuses_a_dirty_buffer_and_counts_the_event_record() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let sampling = SamplingConfig::default();
        let mut session = sim.session();
        let iv = [false, true, false, true];
        let fv = [true, true, false, false];
        let (clean, stats) = capture(&mut session, &iv, &fv, 5);
        let mut dirty = vec![f64::NAN; 3 * sampling.samples];
        let mut rng = SmallRng::seed_from_u64(5);
        let stats_dirty = session.capture_into(&iv, &fv, &sampling, &mut rng, &mut dirty);
        assert_eq!(dirty, clean);
        assert_eq!(stats_dirty, stats);
        assert_eq!(stats, CaptureStats::from(&session.transition(&iv, &fv)));
    }

    /// A session left dirty by a panicking capture must recover: the
    /// retry is bit-identical to a clean capture (the executor's
    /// fault-isolation contract).
    #[test]
    fn session_recovers_after_a_mid_capture_panic() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let mut session = sim.session();
        let reference = capture(&mut session, &[false; 4], &[true; 4], 9);
        // Leave the session with stale state from a previous capture,
        // panic out of the next one (width assert), and reuse it: the
        // entry-reset contract makes the retry clean. (Mid-drain queue
        // abandonment is covered by the queue unit tests in `program.rs`.)
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture(&mut session, &[false; 4], &[true; 3], 9)
        }));
        assert!(poisoned.is_err(), "short input vector must panic");
        let retried = capture(&mut session, &[false; 4], &[true; 4], 9);
        assert_eq!(retried, reference);
    }
}
