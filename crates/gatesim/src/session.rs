//! Reusable capture sessions — the simulator's allocation-free hot path.
//!
//! A [`CaptureSession`] is a simulation arena created once per
//! [`Simulator`] and reused across captures: every scratch buffer the
//! event loop needs (net values, the pending-event table, the event
//! queue, the `last_switch` array, the touched-gate seed list, the event
//! log) lives in the session and is cleared — not reallocated — between
//! traces. Gate fan-out is flattened into a CSR adjacency so the inner
//! scheduling loop walks contiguous slices instead of chasing per-net
//! `Vec`s, and the `BinaryHeap` of the original engine is replaced by an
//! indexed bucket queue keyed on time quantized by the minimum gate
//! delay.
//!
//! # Determinism
//!
//! The session is the only event-loop implementation: every event
//! record and every trace the event-driven engine produces comes from
//! `CaptureSession::run`. Within the engine, events are popped in
//! `(time_ps, seq)` order (`seq` is the per-transition push counter, so
//! ties resolve in schedule order). The bucket queue preserves that
//! order exactly:
//!
//! * the bucket index `⌊t / w⌋` is monotone in `t`, so no later-popping
//!   bucket can hold an earlier event;
//! * a bucket is sorted by `(time_ps, seq)` when it is first opened;
//! * events pushed *while a bucket drains* carry times strictly greater
//!   than every already-popped time (an event scheduled at `t` fires at
//!   `t + delay`, `delay > 0`), so inserting them at their sorted
//!   position in the still-undrained tail (or any later bucket) keeps
//!   the global pop order intact for **any** bucket width — the width,
//!   chosen as the minimum derated gate delay, is purely a density
//!   knob.

use rand::Rng;
use sbox_netlist::GateId;

use crate::engine::{CaptureStats, SwitchEvent, TransitionRecord};
use crate::power::{gaussian, sample_waveform_into, PulseShape};
use crate::{SamplingConfig, Simulator};

/// An event waiting in the bucket queue. Packed to 16 bytes (raw gate
/// index, `u32` push counter — a single transition settles in far fewer
/// than 2³² events) to halve queue memory traffic.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time_ps: f64,
    seq: u32,
    gate: u32,
}

impl QueuedEvent {
    /// The global pop order: earliest time first, push order on ties.
    fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A gate's scheduled-but-uncommitted output change (`seq == 0`: none).
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    time_ps: f64,
    seq: u32,
    val: bool,
}

/// Hard cap on the bucket array. Quiescence bounds event times to a few
/// thousand ps (≈ hundreds of buckets at gate-delay width); clamping the
/// index is a monotone map, so even a pathological time cannot break pop
/// order — it only degrades that one bucket's density.
const MAX_BUCKETS: usize = 1 << 16;

/// An indexed bucket queue over event time. Pushes append to a bucket
/// (amortized allocation-free once warm); pops advance a cursor through
/// the current bucket, sorting each bucket once when it is opened.
#[derive(Debug)]
struct EventQueue {
    /// Reciprocal of the bucket width (a few derated gate delays):
    /// events scheduled while bucket `b` drains land, up to float
    /// rounding, in `b` or later. The rounding edge is handled by
    /// sorted insertion into the draining bucket's tail, so the width —
    /// and using a multiply instead of a divide to quantize — affect
    /// density only, never pop order.
    inv_width: f64,
    buckets: Vec<Vec<QueuedEvent>>,
    /// The bucket being drained (or the next one to open).
    current: usize,
    /// Next entry to pop within the open bucket.
    cursor: usize,
    /// Whether `buckets[current]` has been sorted and is draining.
    open: bool,
    len: usize,
}

impl EventQueue {
    fn new(width_ps: f64) -> Self {
        Self {
            inv_width: 1.0 / width_ps.max(1e-3),
            buckets: Vec::new(),
            current: 0,
            cursor: 0,
            open: false,
            len: 0,
        }
    }

    /// Make the queue empty. O(1) after a fully drained run; clears
    /// every bucket when entries remain (a capture aborted mid-drain —
    /// the executor's panic-isolation path reuses sessions afterwards).
    fn reset(&mut self) {
        if self.len > 0 {
            for bucket in &mut self.buckets {
                bucket.clear();
            }
        }
        self.current = 0;
        self.cursor = 0;
        self.open = false;
        self.len = 0;
    }

    fn push(&mut self, ev: QueuedEvent) {
        let mut idx = ((ev.time_ps * self.inv_width) as usize).min(MAX_BUCKETS - 1);
        if idx <= self.current {
            if self.open {
                // Float-rounding edge: in exact arithmetic the event
                // belongs after the draining bucket; keep order by
                // inserting at its sorted position in the tail.
                self.insert_into_open(ev);
                return;
            }
            // `buckets[current]` is not yet sorted; it will be at open.
            idx = self.current;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        self.buckets[idx].push(ev);
        self.len += 1;
    }

    /// Sorted insertion into the undrained tail of the open bucket.
    fn insert_into_open(&mut self, ev: QueuedEvent) {
        let bucket = &mut self.buckets[self.current];
        let mut at = self.cursor;
        while at < bucket.len() && bucket[at].cmp_key(&ev).is_lt() {
            at += 1;
        }
        bucket.insert(at, ev);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        if self.len == 0 {
            return None;
        }
        if !self.open {
            while self.buckets[self.current].is_empty() {
                self.current += 1;
            }
            self.buckets[self.current].sort_unstable_by(QueuedEvent::cmp_key);
            self.cursor = 0;
            self.open = true;
        }
        let ev = self.buckets[self.current][self.cursor];
        self.cursor += 1;
        self.len -= 1;
        if self.cursor == self.buckets[self.current].len() {
            self.buckets[self.current].clear();
            self.current += 1;
            self.cursor = 0;
            self.open = false;
        }
        Some(ev)
    }
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
    /// CSR fan-out: the loads of net `n` are
    /// `load_edges[load_offsets[n] .. load_offsets[n + 1]]`, each packed
    /// as `(gate_index << 3) | pin_bit` — the pin lets a net toggle
    /// update the loading gate's cached input pattern with one XOR.
    load_offsets: Vec<u32>,
    load_edges: Vec<u32>,
    /// CSR fan-in: gate `g` reads nets
    /// `input_nets[input_offsets[g] .. input_offsets[g + 1]]` (≤ 4).
    input_offsets: Vec<u32>,
    input_nets: Vec<u32>,
    /// Per-gate truth table: bit `p` is the output for input pattern `p`
    /// (input `i` contributes bit `i` of `p`). Replaces the per-call
    /// `CellType` match dispatch in the scheduling hot loop.
    truth: Vec<u16>,
    /// Per-gate output net index.
    output_nets: Vec<u32>,
    /// Gate index → `GateId`, for the event records.
    gate_ids: Vec<GateId>,
    /// Derated per-gate delay and switching energy, copied from the
    /// simulator so the hot loop reads session-local arrays instead of
    /// chasing through the `Simulator` reference.
    delay_ps: Vec<f64>,
    energy_fj: Vec<f64>,
    /// `config().absorbed_energy_fraction`, cached for the revoke path.
    absorbed_frac: f64,
    /// Topological order as raw gate indices, for the settle walk.
    topo: Vec<u32>,
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
        let netlist = sim.netlist();
        let n_gates = netlist.gates().len();
        let mut input_offsets = Vec::with_capacity(n_gates + 1);
        let mut input_nets: Vec<u32> = Vec::new();
        let mut truth = Vec::with_capacity(n_gates);
        let mut output_nets = Vec::with_capacity(n_gates);
        // Fan-out edges per net, in the exact order the netlist records
        // loads (gate-creation order, one entry per connected pin) — the
        // scheduling order, and with it the event tie-breaking, must
        // match the reference engine.
        let mut per_net_edges: Vec<Vec<u32>> = vec![Vec::new(); netlist.nets().len()];
        input_offsets.push(0u32);
        for (g, gate) in netlist.gates().iter().enumerate() {
            for (bit, net) in gate.inputs().iter().enumerate() {
                input_nets.push(net.index() as u32);
                per_net_edges[net.index()].push(((g as u32) << 3) | bit as u32);
            }
            input_offsets.push(input_nets.len() as u32);
            let k = gate.inputs().len();
            let mut table = 0u16;
            let mut pins = [false; 4];
            for pattern in 0..(1u16 << k) {
                for (bit, slot) in pins.iter_mut().enumerate().take(k) {
                    *slot = (pattern >> bit) & 1 == 1;
                }
                if gate.cell().evaluate(&pins[..k]) {
                    table |= 1 << pattern;
                }
            }
            truth.push(table);
            output_nets.push(gate.output().index() as u32);
        }
        let mut gate_ids: Vec<Option<GateId>> = vec![None; n_gates];
        for &g in netlist.topo_order() {
            gate_ids[g.index()] = Some(g);
        }
        let gate_ids: Vec<GateId> = gate_ids
            .into_iter()
            .map(|g| g.expect("topological order covers every gate"))
            .collect();
        let mut load_offsets = Vec::with_capacity(netlist.nets().len() + 1);
        let mut load_edges = Vec::new();
        load_offsets.push(0u32);
        for edges in &per_net_edges {
            load_edges.extend_from_slice(edges);
            load_offsets.push(load_edges.len() as u32);
        }
        let min_delay = (0..netlist.gates().len())
            .map(|g| sim.delay_ps[g])
            .fold(f64::INFINITY, f64::min);
        // One minimum gate delay per bucket: an event scheduled while
        // bucket `b` drains fires at least a full bucket width later, so
        // nearly every push is an O(1) append into a future bucket
        // rather than a sorted insert into the draining one. Order is
        // preserved for any width (see the module docs).
        let width = if min_delay.is_finite() {
            min_delay
        } else {
            1.0
        };
        Self {
            sim,
            load_offsets,
            load_edges,
            input_offsets,
            input_nets,
            truth,
            output_nets,
            gate_ids,
            delay_ps: (0..n_gates).map(|g| sim.delay_ps[g]).collect(),
            energy_fj: (0..n_gates).map(|g| sim.energy_fj[g]).collect(),
            absorbed_frac: sim.config().absorbed_energy_fraction,
            topo: netlist
                .topo_order()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            pattern: vec![0; n_gates],
            values: Vec::new(),
            pending: Vec::new(),
            last_switch: Vec::new(),
            touched: Vec::new(),
            events: Vec::new(),
            queue: EventQueue::new(width),
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
        let delay_ps = &self.delay_ps;
        sample_waveform_into(
            out,
            &self.events,
            sampling,
            sim.config().pulse_width_factor,
            |g| delay_ps[g.index()],
            PulseShape::Triangular,
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
        let sim = self.sim;
        let netlist = sim.netlist();
        assert_eq!(final_inputs.len(), netlist.num_inputs());
        assert_eq!(
            initial.len(),
            netlist.num_inputs(),
            "netlist `{}` has {} inputs, got {}",
            netlist.name(),
            netlist.num_inputs(),
            initial.len()
        );
        let n_gates = netlist.gates().len();

        // Settle on `initial`, filling the per-gate input-pattern cache
        // the event loop maintains incrementally from here on.
        self.values.clear();
        self.values.resize(netlist.nets().len(), false);
        for (net, &v) in netlist.inputs().iter().zip(initial) {
            self.values[net.index()] = v;
        }
        for i in 0..self.topo.len() {
            let g = self.topo[i] as usize;
            let lo = self.input_offsets[g] as usize;
            let hi = self.input_offsets[g + 1] as usize;
            let mut p = 0u8;
            for (bit, &net) in self.input_nets[lo..hi].iter().enumerate() {
                p |= (self.values[net as usize] as u8) << bit;
            }
            self.pattern[g] = p;
            self.values[self.output_nets[g] as usize] = (self.truth[g] >> p) & 1 == 1;
        }

        self.pending.clear();
        self.pending.resize(n_gates, Pending::default());
        self.last_switch.clear();
        self.last_switch.resize(n_gates, f64::NEG_INFINITY);
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
                let lo = self.load_offsets[net.index()] as usize;
                let hi = self.load_offsets[net.index() + 1] as usize;
                for k in lo..hi {
                    let edge = self.load_edges[k];
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
            let out_net = self.output_nets[g] as usize;
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
                gate: self.gate_ids[g],
                time_ps: t,
                rising: v,
                energy_fj: self.energy_fj[g] * swing_fraction,
                absorbed: false,
            });
            // Two phases on the fan-out: flip every affected pattern
            // bit, then re-evaluate each load (a gate connected to this
            // net on several pins must see them all flip first).
            let lo = self.load_offsets[out_net] as usize;
            let hi = self.load_offsets[out_net + 1] as usize;
            for k in lo..hi {
                let edge = self.load_edges[k];
                self.pattern[(edge >> 3) as usize] ^= 1 << (edge & 7);
            }
            for k in lo..hi {
                let g = (self.load_edges[k] >> 3) as usize;
                self.schedule(g, t);
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
        let new_v = (self.truth[g] >> self.pattern[g]) & 1 == 1;
        let cur = self.values[self.output_nets[g] as usize];
        let p = self.pending[g];
        if p.seq != 0 {
            if p.val == new_v {
                // Already heading to the right value; the earlier event
                // stands (re-evaluation cannot arrive earlier).
                return;
            }
            // The scheduled swing is revoked before completing: the
            // output made a partial excursion — an absorbed glitch.
            let tp = p.time_ps;
            self.pending[g].seq = 0;
            if self.absorbed_frac > 0.0 {
                self.events.push(SwitchEvent {
                    gate: self.gate_ids[g],
                    time_ps: tp,
                    rising: !cur,
                    energy_fj: self.energy_fj[g] * self.absorbed_frac,
                    absorbed: true,
                });
            }
            if new_v != cur {
                self.push_event(g, t_now, new_v);
            }
        } else if new_v != cur {
            self.push_event(g, t_now, new_v);
        }
    }

    fn push_event(&mut self, g: usize, t_now: f64, value: bool) {
        self.seq += 1;
        let t = t_now + self.delay_ps[g];
        self.pending[g] = Pending {
            time_ps: t,
            seq: self.seq,
            val: value,
        };
        self.queue.push(QueuedEvent {
            time_ps: t,
            seq: self.seq,
            gate: g as u32,
        });
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

    #[test]
    fn queue_pops_in_time_then_seq_order() {
        let mut q = EventQueue::new(5.0);
        let mk = |t: f64, seq: u32| QueuedEvent {
            time_ps: t,
            seq,
            gate: 0,
        };
        // Same bucket ties resolve by seq; cross-bucket by time.
        for (t, s) in [(12.0, 1), (3.0, 2), (3.0, 3), (27.0, 4), (11.0, 5)] {
            q.push(mk(t, s));
        }
        // Push during drain: after popping (3.0, 2) push an event that
        // numerically lands in the open bucket.
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        q.push(mk(4.5, 6));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![3, 6, 5, 1, 4]);
        // A drained queue resets in O(1) and is reusable.
        q.reset();
        assert!(q.pop().is_none());
        q.push(mk(1.0, 7));
        assert_eq!(q.pop().map(|e| e.seq), Some(7));
    }

    #[test]
    fn queue_reset_discards_undrained_entries() {
        let mut q = EventQueue::new(2.0);
        for i in 0..10u32 {
            q.push(QueuedEvent {
                time_ps: i as f64,
                seq: i,
                gate: 0,
            });
        }
        let _ = q.pop();
        q.reset(); // mid-drain reset: the panic-retry path
        assert!(q.pop().is_none());
        q.push(QueuedEvent {
            time_ps: 0.5,
            seq: 99,
            gate: 0,
        });
        assert_eq!(q.pop().map(|e| e.seq), Some(99));
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
        // abandonment is covered by the queue unit tests above.)
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture(&mut session, &[false; 4], &[true; 3], 9)
        }));
        assert!(poisoned.is_err(), "short input vector must panic");
        let retried = capture(&mut session, &[false; 4], &[true; 4], 9);
        assert_eq!(retried, reference);
    }
}
