//! The bit-sliced capture backend: [`LANES`] traces per levelized pass.
//!
//! A [`BitslicedSession`] levelizes the netlist once into a flat
//! straight-line program (structure-of-arrays node storage, packed
//! 16-bit truth tables evaluated as bitwise multiplexer folds over
//! `u64` lane words) and captures up to [`LANES`] stimuli per pass.
//! Unlike the classic zero-delay levelized simulators, the backend does
//! not approximate glitching: it replays the *event-driven* engine
//! exactly, coalescing the independent per-lane event streams into one
//! mask-carrying event queue.
//!
//! # Why coalescing is exact
//!
//! Gate delays and energies are per-gate constants of the `Simulator`
//! (process variation is sampled at construction), so they are
//! *lane-independent*: an event of gate `g` triggered at time `t`
//! commits at `t + delay(g)` in every lane alike. The coalesced queue
//! stores one entry per *push group* — `(time, seq, gate)` plus a lane
//! mask held in the gate's pending list — where a push group is the set
//! of lanes scheduled by one coalesced re-evaluation. Within any single
//! lane, push groups occur in exactly the order the scalar engine would
//! push that lane's events (the fan-out walk is the same CSR edge
//! order, and the inertial-delay keep/revoke rules are applied per lane
//! by mask algebra), and the global `(time, seq)` pop order restricted
//! to one lane therefore equals the scalar engine's `(time, seq)` order
//! for that lane. Since lanes never interact — net values are per-lane
//! bits — each lane's event log comes out identical to a scalar run.
//!
//! # Why the amortization works
//!
//! The number of *distinct* `(gate, commit-time)` groups a batch excites
//! is bounded by the netlist's activated path-delay sums, not by the
//! lane count: on the paper's ISW netlist, 64-lane batches pop ~14
//! groups per trace but 1024-lane batches pop ~1 — the per-group queue,
//! evaluation, and pulse-rendering costs are shared by every lane in
//! the group's mask. The pulse math amortizes twice over: the charge
//! fractions per sample bin depend only on the pop's `(time, width)`,
//! so they are computed once per pop and reused — bit-exactly — by
//! every commit entry the pop emits, whatever its swing energy. All
//! remaining per-lane work lives in the renderer: the event loop
//! appends `(time, contribution, lane list)` records to one global log
//! in pop order, a single stable sort by time reproduces every lane's
//! scalar insertion-sort order simultaneously (the scalar per-lane log
//! order *is* the pop order restricted to that lane), and the
//! precomputed per-bin contributions are then accumulated bin-major —
//! one lane-indexed `+=` per (event, lane, bin), the exact add
//! sequence, in the exact order, the scalar renderer performs.
//!
//! # The static support check
//!
//! The induction above needs commit times to be *strictly greater* than
//! their trigger times: `t + delay > t` in `f64`. [`Simulator`] derated
//! delays are positive by construction, but an extreme derating factor
//! can push a delay below the f64 resolution of ps-scale timestamps
//! (`t + delay == t`), collapsing a gate's commit onto its trigger and
//! voiding the ordering argument. [`Simulator::bitsliced_session`] rejects
//! such netlists with a typed [`BitsliceUnsupported`] error — so
//! callers (the `auto` backend) route them to the event-driven path
//! instead of risking silent divergence.
//!
//! [`CaptureSession`]: crate::CaptureSession

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::CaptureStats;
use crate::power::{gaussian, pulse_cdf, PulseShape};
use crate::{SamplingConfig, Simulator};

/// `u64` words per lane mask. 16 words (1024 lanes) is past the knee
/// where the distinct `(gate, time)` group count saturates structurally
/// on the paper's netlists, so the per-group costs amortize to ~one pop
/// per trace.
const W: usize = 16;

/// Number of traces captured per bit-sliced pass (64 per mask word).
pub const LANES: usize = 64 * W;

/// A lane mask: one bit per trace in the batch.
type Mask = [u64; W];

const ZERO_MASK: Mask = [0u64; W];

#[inline]
fn mask_is_zero(m: &Mask) -> bool {
    m.iter().all(|&w| w == 0)
}

/// Delays below this (in ps) can make `t + delay` round to `t` at
/// ps-scale event times, which breaks the cross-lane ordering proof —
/// the static support check rejects them.
const MIN_DELAY_PS: f64 = 1e-6;

/// A netlist/derating combination the bit-sliced backend cannot replay
/// exactly; route it to the event-driven engine instead.
#[derive(Debug, Clone, PartialEq)]
pub struct BitsliceUnsupported {
    /// Index of the offending gate.
    pub gate: usize,
    /// Its derated delay in ps.
    pub delay_ps: f64,
}

impl std::fmt::Display for BitsliceUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bit-sliced backend unsupported: gate {} has derated delay {} ps \
             (< {MIN_DELAY_PS} ps); glitch order may depend on f64 time ties, \
             use the event-driven backend",
            self.gate, self.delay_ps
        )
    }
}

impl std::error::Error for BitsliceUnsupported {}

/// One lane's stimulus for a bit-sliced batch capture.
#[derive(Debug, Clone, Copy)]
pub struct LaneStimulus<'s> {
    /// Primary-input values the circuit settles into before t = 0.
    pub initial: &'s [bool],
    /// Primary-input values applied at t = 0.
    pub final_inputs: &'s [bool],
    /// Seed for this lane's measurement-noise generator (only used when
    /// `SimConfig::noise_mw > 0`), matching the per-trace `SmallRng`
    /// the scalar acquisition path seeds.
    pub noise_seed: u64,
}

/// A queue entry: one coalesced push group. The group's lane mask lives
/// in the gate's pending list (looked up by `seq` on pop), keeping
/// queue entries small and revocation free of queue surgery.
#[derive(Debug, Clone, Copy)]
struct QueuedGroup {
    time_ps: f64,
    seq: u32,
    gate: u32,
}

impl QueuedGroup {
    fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A pending output change for a subset of lanes of one gate: pushed by
/// one coalesced `schedule`, awaiting its commit pop (or revocation).
#[derive(Debug, Clone, Copy)]
struct PendGroup {
    time_ps: f64,
    seq: u32,
    mask: Mask,
}

/// The global event log, structure-of-arrays, in pop (append) order.
///
/// Each record is one rendered pulse — a span of the shared
/// contribution arena — applied at `time` to the lanes of its span.
/// Lane lists are extracted from the group masks at append time — while
/// the mask is still register/L1-hot — so the render passes never
/// re-walk 128-byte masks. A stable sort by `time` reproduces the
/// scalar engine's per-lane log order in every lane at once.
#[derive(Debug, Default)]
struct EventLog {
    time: Vec<f64>,
    /// `contribution index << 1 | absorbed`.
    meta: Vec<u32>,
    /// `(offset, len)` spans into `lanes`.
    lanes_span: Vec<(u32, u32)>,
    lanes: Vec<u16>,
}

impl EventLog {
    fn clear(&mut self) {
        self.time.clear();
        self.meta.clear();
        self.lanes_span.clear();
        self.lanes.clear();
    }

    fn push(&mut self, t: f64, contrib: u32, absorbed: bool, mask: &Mask) {
        let off = self.lanes.len() as u32;
        for (w, &bits) in mask.iter().enumerate() {
            let mut bits = bits;
            let base = (w * 64) as u16;
            while bits != 0 {
                self.lanes.push(base + bits.trailing_zeros() as u16);
                bits &= bits - 1;
            }
        }
        self.time.push(t);
        self.meta.push(contrib << 1 | absorbed as u32);
        self.lanes_span.push((off, self.lanes.len() as u32 - off));
    }
}

/// Same cap and ordering contract as the scalar session's bucket queue.
const MAX_BUCKETS: usize = 1 << 16;

/// The scalar session's indexed bucket queue over coalesced push
/// groups. Pop order is `(time_ps, seq)` — see `session.rs` for the
/// ordering argument, which only relies on pushed times exceeding all
/// popped times (guaranteed by the `MIN_DELAY_PS` support check).
#[derive(Debug, Default)]
struct GroupQueue {
    inv_width: f64,
    buckets: Vec<Vec<QueuedGroup>>,
    current: usize,
    cursor: usize,
    open: bool,
    len: usize,
}

impl GroupQueue {
    fn new(width_ps: f64) -> Self {
        Self {
            inv_width: 1.0 / width_ps.max(1e-3),
            ..Self::default()
        }
    }

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

    fn push(&mut self, ev: QueuedGroup) {
        let mut idx = ((ev.time_ps * self.inv_width) as usize).min(MAX_BUCKETS - 1);
        if idx <= self.current {
            if self.open {
                self.insert_into_open(ev);
                return;
            }
            idx = self.current;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        self.buckets[idx].push(ev);
        self.len += 1;
    }

    fn insert_into_open(&mut self, ev: QueuedGroup) {
        let bucket = &mut self.buckets[self.current];
        let mut at = self.cursor;
        while at < bucket.len() && bucket[at].cmp_key(&ev).is_lt() {
            at += 1;
        }
        bucket.insert(at, ev);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<QueuedGroup> {
        if self.len == 0 {
            return None;
        }
        if !self.open {
            while self.buckets[self.current].is_empty() {
                self.current += 1;
            }
            self.buckets[self.current].sort_unstable_by(QueuedGroup::cmp_key);
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

/// A bit-sliced levelized capture arena bound to one [`Simulator`].
///
/// Create with [`Simulator::bitsliced_session`]; call
/// [`capture_batch`](Self::capture_batch) with up to [`LANES`] stimuli.
/// Each returned trace and [`CaptureStats`] is bit-for-bit identical to
/// what [`CaptureSession::capture_into`] produces for the same stimulus
/// and noise seed — the backends are interchangeable per trace.
///
/// [`CaptureSession::capture_into`]: crate::CaptureSession::capture_into
#[derive(Debug)]
pub struct BitslicedSession<'a> {
    sim: &'a Simulator<'a>,
    // --- the levelized straight-line program (built once) ---
    /// CSR fan-in: gate `g` reads nets
    /// `input_nets[input_offsets[g] .. input_offsets[g + 1]]` (≤ 4).
    input_offsets: Vec<u32>,
    input_nets: Vec<u32>,
    /// Per-gate truth table expanded to broadcast lane words:
    /// `tab_masks[tab_offsets[g] + p]` is all-ones iff output bit `p` of
    /// the table is set. The multiplexer fold consumes a copy per word.
    tab_offsets: Vec<u32>,
    tab_masks: Vec<u64>,
    output_nets: Vec<u32>,
    /// CSR fan-out as loading *gate* indices per net, one entry per
    /// connected pin in netlist load order — the scalar engine's exact
    /// scheduling order (duplicates are idempotent re-evaluations).
    load_offsets: Vec<u32>,
    load_gates: Vec<u32>,
    /// Topological order (raw gate indices): the levelized program.
    topo: Vec<u32>,
    delay_ps: Vec<f64>,
    energy_fj: Vec<f64>,
    absorbed_frac: f64,
    pulse_width_factor: f64,
    noise_mw: f64,
    // --- per-capture lane state ---
    /// Per-net lane values, one mask per net.
    values: Vec<Mask>,
    /// Per-gate pending push groups (disjoint masks, found by seq).
    pend: Vec<Vec<PendGroup>>,
    /// Per-gate union of pending-group masks.
    pend_mask: Vec<Mask>,
    /// Per-gate pending output value per lane (valid under `pend_mask`).
    pend_val: Vec<Mask>,
    /// Per-gate recent commit groups inside the 3·delay swing window,
    /// time-ascending; a lane's last switch time is the newest entry
    /// containing it (older-than-window commits mean a full swing, same
    /// as never having switched — `min(1.0)` saturates either way).
    recent: Vec<std::collections::VecDeque<(f64, Mask)>>,
    touched: Vec<u32>,
    queue: GroupQueue,
    seq: u32,
    // --- per-capture log and rendering ---
    log: EventLog,
    /// Log indices stably sorted by `time` for rendering.
    order: Vec<u32>,
    /// Scratch for the absorbed-entry side of the render merge.
    absorbed_order: Vec<u32>,
    /// Contribution arena: `contrib_index[c]` is an `(offset, len)` span
    /// of `(bin, Δpower)` pairs — one precomputed pulse rendering,
    /// shared by every lane the referencing log entries list.
    contrib_index: Vec<(u32, u32)>,
    contrib_pairs: Vec<(u32, f64)>,
    /// Per-pop charge-fraction cache: `(bin, frac)` for the pop's
    /// `(time, width)`, shared by all its commit entries.
    fracs: Vec<(u32, f64)>,
    /// Current capture's sampling bin width (ps) and bin count, so the
    /// event loop can render pulse contributions as it pops.
    dt: f64,
    samples: usize,
    /// Per-bin work lists for the accumulate pass: `(lane-span offset,
    /// lane-span len, Δpower)` in sorted log order, so each 8 KB
    /// accumulator row is filled while L1-resident instead of strided
    /// across the whole accumulator.
    bin_work: Vec<Vec<(u32, u32, f64)>>,
    /// Bin-major accumulator: `acc[bin * LANES + lane]`. Only rows with
    /// bin work are zeroed and accumulated; the transpose emits zeros
    /// for the rest without touching them.
    acc: Vec<f64>,
    counts_events: Vec<u32>,
    counts_absorbed: Vec<u32>,
    settle_seen: Vec<bool>,
    settle_buf: Vec<f64>,
    traces: Vec<Vec<f64>>,
    stats: Vec<CaptureStats>,
}

/// Compute the pulse charge fractions per overlapped sample bin — the
/// bin loop of `sample_waveform_into`, verbatim, with the event's
/// energy factored out. Only bins with positive fraction are stored,
/// matching the scalar renderer's `frac > 0.0` guard; a contribution
/// later derived as `energy * frac / dt` is therefore the exact value,
/// and the exact add, the scalar path performs for the same event.
fn compute_fracs(fracs: &mut Vec<(u32, f64)>, t: f64, raw_width: f64, dt: f64, samples: usize) {
    fracs.clear();
    let width = raw_width.max(1e-3);
    let start = t;
    let end = start + width;
    let first = (((start / dt).floor().max(0.0)) as usize).min(samples);
    let last = ((end / dt).ceil() as usize).min(samples);
    for k in first..last.max(first) {
        let bin_lo = k as f64 * dt;
        let bin_hi = bin_lo + dt;
        let xa = ((bin_lo - start) / width).clamp(0.0, 1.0);
        let xb = ((bin_hi - start) / width).clamp(0.0, 1.0);
        let frac = pulse_cdf(PulseShape::Triangular, xb) - pulse_cdf(PulseShape::Triangular, xa);
        if frac > 0.0 {
            fracs.push((k as u32, frac));
        }
    }
}

/// Materialize one event's contribution span from cached fractions.
fn push_contrib(
    index: &mut Vec<(u32, u32)>,
    pairs: &mut Vec<(u32, f64)>,
    fracs: &[(u32, f64)],
    energy: f64,
    dt: f64,
) -> u32 {
    let off = pairs.len() as u32;
    for &(k, frac) in fracs {
        pairs.push((k, energy * frac / dt));
    }
    let idx = index.len() as u32;
    index.push((off, pairs.len() as u32 - off));
    idx
}

impl<'a> Simulator<'a> {
    /// Start a bit-sliced capture session, or report why this
    /// netlist/derating combination must stay on the event-driven
    /// backend (see [`BitsliceUnsupported`]).
    pub fn bitsliced_session(&self) -> Result<BitslicedSession<'_>, BitsliceUnsupported> {
        BitslicedSession::try_new(self)
    }
}

impl<'a> BitslicedSession<'a> {
    /// Build the levelized program for `sim`'s netlist, checking the
    /// static support condition (every derated delay ≥ 1 µps and
    /// finite, so coalesced pop order provably matches the scalar
    /// engine in every lane).
    fn try_new(sim: &'a Simulator<'a>) -> Result<Self, BitsliceUnsupported> {
        let netlist = sim.netlist();
        let n_gates = netlist.gates().len();
        for g in 0..n_gates {
            let d = sim.delay_ps[g];
            if !(d.is_finite() && d >= MIN_DELAY_PS) {
                return Err(BitsliceUnsupported {
                    gate: g,
                    delay_ps: d,
                });
            }
        }
        let mut input_offsets = Vec::with_capacity(n_gates + 1);
        let mut input_nets: Vec<u32> = Vec::new();
        let mut tab_offsets = Vec::with_capacity(n_gates + 1);
        let mut tab_masks: Vec<u64> = Vec::new();
        let mut output_nets = Vec::with_capacity(n_gates);
        let mut per_net_gates: Vec<Vec<u32>> = vec![Vec::new(); netlist.nets().len()];
        input_offsets.push(0u32);
        tab_offsets.push(0u32);
        for (g, gate) in netlist.gates().iter().enumerate() {
            for net in gate.inputs() {
                input_nets.push(net.index() as u32);
                per_net_gates[net.index()].push(g as u32);
            }
            input_offsets.push(input_nets.len() as u32);
            let k = gate.inputs().len();
            let mut pins = [false; 4];
            for pattern in 0..(1u16 << k) {
                for (bit, slot) in pins.iter_mut().enumerate().take(k) {
                    *slot = (pattern >> bit) & 1 == 1;
                }
                tab_masks.push(if gate.cell().evaluate(&pins[..k]) {
                    !0u64
                } else {
                    0
                });
            }
            tab_offsets.push(tab_masks.len() as u32);
            output_nets.push(gate.output().index() as u32);
        }
        let mut load_offsets = Vec::with_capacity(netlist.nets().len() + 1);
        let mut load_gates = Vec::new();
        load_offsets.push(0u32);
        for gates in &per_net_gates {
            load_gates.extend_from_slice(gates);
            load_offsets.push(load_gates.len() as u32);
        }
        let min_delay = (0..n_gates)
            .map(|g| sim.delay_ps[g])
            .fold(f64::INFINITY, f64::min);
        let width = if min_delay.is_finite() {
            min_delay
        } else {
            1.0
        };
        Ok(Self {
            sim,
            input_offsets,
            input_nets,
            tab_offsets,
            tab_masks,
            output_nets,
            load_offsets,
            load_gates,
            topo: netlist
                .topo_order()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            delay_ps: (0..n_gates).map(|g| sim.delay_ps[g]).collect(),
            energy_fj: (0..n_gates).map(|g| sim.energy_fj[g]).collect(),
            absorbed_frac: sim.config().absorbed_energy_fraction,
            pulse_width_factor: sim.config().pulse_width_factor,
            noise_mw: sim.config().noise_mw,
            values: vec![ZERO_MASK; netlist.nets().len()],
            pend: vec![Vec::new(); n_gates],
            pend_mask: vec![ZERO_MASK; n_gates],
            pend_val: vec![ZERO_MASK; n_gates],
            recent: vec![std::collections::VecDeque::new(); n_gates],
            touched: Vec::new(),
            queue: GroupQueue::new(width),
            seq: 0,
            log: EventLog::default(),
            order: Vec::new(),
            absorbed_order: Vec::new(),
            contrib_index: Vec::new(),
            contrib_pairs: Vec::new(),
            fracs: Vec::new(),
            dt: 1.0,
            samples: 0,
            bin_work: Vec::new(),
            acc: Vec::new(),
            counts_events: vec![0; LANES],
            counts_absorbed: vec![0; LANES],
            settle_seen: vec![false; LANES],
            settle_buf: vec![0.0; LANES],
            traces: (0..LANES).map(|_| Vec::new()).collect(),
            stats: vec![CaptureStats::default(); LANES],
        })
    }

    /// Capture up to [`LANES`] stimuli in one bit-sliced pass.
    ///
    /// Returns one power trace and one [`CaptureStats`] per stimulus,
    /// in stimulus order, borrowed from the session's reusable buffers.
    /// Trace `i` is bit-for-bit what
    /// `CaptureSession::capture_into(initial_i, final_i, sampling,
    /// &mut SmallRng::seed_from_u64(noise_seed_i), ..)` produces.
    /// Unused lanes carry a no-toggle stimulus and cost nothing.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or longer than [`LANES`], or if any
    /// stimulus width differs from the netlist's primary input count.
    pub fn capture_batch(
        &mut self,
        lanes: &[LaneStimulus<'_>],
        sampling: &SamplingConfig,
    ) -> (&[Vec<f64>], &[CaptureStats]) {
        assert!(
            !lanes.is_empty() && lanes.len() <= LANES,
            "batch of {} stimuli does not fit {} lanes",
            lanes.len(),
            LANES
        );
        let netlist = self.sim.netlist();
        for lane in lanes {
            assert_eq!(lane.final_inputs.len(), netlist.num_inputs());
            assert_eq!(
                lane.initial.len(),
                netlist.num_inputs(),
                "netlist `{}` has {} inputs, got {}",
                netlist.name(),
                netlist.num_inputs(),
                lane.initial.len()
            );
        }
        self.dt = sampling.period_ps();
        self.samples = sampling.samples;
        self.run_batch(lanes);
        self.render(lanes, sampling);
        (&self.traces[..lanes.len()], &self.stats[..lanes.len()])
    }

    /// Bit-sliced gate evaluation: a multiplexer fold of the expanded
    /// truth table over the gate's input words, specialized for the
    /// dominant 1- and 2-input cells.
    #[inline]
    fn eval_gate(&self, g: usize) -> Mask {
        let lo = self.input_offsets[g] as usize;
        let hi = self.input_offsets[g + 1] as usize;
        let k = hi - lo;
        let t0 = self.tab_offsets[g] as usize;
        let mut out = ZERO_MASK;
        match k {
            1 => {
                let va = &self.values[self.input_nets[lo] as usize];
                let t_lo = self.tab_masks[t0];
                let t_hi = self.tab_masks[t0 + 1];
                for w in 0..W {
                    out[w] = (!va[w] & t_lo) | (va[w] & t_hi);
                }
            }
            2 => {
                let va = &self.values[self.input_nets[lo] as usize];
                let vb = &self.values[self.input_nets[lo + 1] as usize];
                let t00 = self.tab_masks[t0];
                let t01 = self.tab_masks[t0 + 1];
                let t10 = self.tab_masks[t0 + 2];
                let t11 = self.tab_masks[t0 + 3];
                for w in 0..W {
                    let m0 = (!vb[w] & t00) | (vb[w] & t10);
                    let m1 = (!vb[w] & t01) | (vb[w] & t11);
                    out[w] = (!va[w] & m0) | (va[w] & m1);
                }
            }
            _ => {
                for (w, slot) in out.iter_mut().enumerate() {
                    let mut tab = [0u64; 16];
                    tab[..1 << k].copy_from_slice(&self.tab_masks[t0..t0 + (1 << k)]);
                    let mut width = 1usize << k;
                    for bit in (0..k).rev() {
                        width >>= 1;
                        let v = self.values[self.input_nets[lo + bit] as usize][w];
                        for p in 0..width {
                            tab[p] = (!v & tab[p]) | (v & tab[p + width]);
                        }
                    }
                    *slot = tab[0];
                }
            }
        }
        out
    }

    /// The coalesced event loop. Scratch is reset on entry (the same
    /// panic-retry contract as the scalar session).
    fn run_batch(&mut self, lanes: &[LaneStimulus<'_>]) {
        let netlist = self.sim.netlist();

        // Reset lane state. `pend_val` needs no clearing: it is only
        // read under `pend_mask`, which is rebuilt from zero.
        for p in &mut self.pend {
            p.clear();
        }
        for r in &mut self.recent {
            r.clear();
        }
        self.pend_mask.iter_mut().for_each(|m| *m = ZERO_MASK);
        self.queue.reset();
        self.seq = 0;
        self.touched.clear();
        self.log.clear();
        self.contrib_index.clear();
        self.contrib_pairs.clear();

        // Settle on the initial inputs (pure levelized evaluation —
        // exactly the scalar engine's topo walk, all lanes at once).
        for (j, net) in netlist.inputs().iter().enumerate() {
            let mut wbuf = ZERO_MASK;
            for (l, lane) in lanes.iter().enumerate() {
                wbuf[l >> 6] |= (lane.initial[j] as u64) << (l & 63);
            }
            self.values[net.index()] = wbuf;
        }
        for i in 0..self.topo.len() {
            let g = self.topo[i] as usize;
            let out = self.eval_gate(g);
            self.values[self.output_nets[g] as usize] = out;
        }

        // Apply the final inputs at t = 0: all net values flip before
        // any gate is re-evaluated, then the touched gates (any lane)
        // are scheduled once each in ascending index order — the scalar
        // engine's `sort_unstable + dedup` seeding. Lanes whose local
        // inputs did not change see a no-op re-evaluation.
        for (j, net) in netlist.inputs().iter().enumerate() {
            let mut wbuf = ZERO_MASK;
            for (l, lane) in lanes.iter().enumerate() {
                wbuf[l >> 6] |= (lane.final_inputs[j] as u64) << (l & 63);
            }
            if self.values[net.index()] != wbuf {
                self.values[net.index()] = wbuf;
                let lo = self.load_offsets[net.index()] as usize;
                let hi = self.load_offsets[net.index() + 1] as usize;
                for k in lo..hi {
                    self.touched.push(self.load_gates[k]);
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
            // The group's mask lives in the gate's pending list; a
            // fully revoked group was removed there, so its queue entry
            // finds no match and is skipped.
            let Some(pos) = self.pend[g].iter().position(|p| p.seq == ev.seq) else {
                continue;
            };
            let group = self.pend[g].swap_remove(pos);
            let m = group.mask;
            let t = ev.time_ps;
            let pm = &mut self.pend_mask[g];
            let vals = &mut self.values[self.output_nets[g] as usize];
            for w in 0..W {
                pm[w] &= !m[w];
                debug_assert_eq!((vals[w] ^ self.pend_val[g][w]) & m[w], m[w]);
                vals[w] ^= m[w];
            }

            // Commit events. A lane's swing fraction depends on its
            // previous commit of this gate: lanes whose last commit
            // fell out of the 3·delay window (or that never committed)
            // saturate to a full swing — `energy × 1.0 == energy`
            // exactly — and share one rendered pulse; lanes inside the
            // window share a pulse per (this group, previous group)
            // pair, since the elapsed time is a group property. The
            // charge fractions depend only on `(t, width)` and are
            // computed once for the whole pop.
            let energy = self.energy_fj[g];
            let delay = self.delay_ps[g];
            let swing_ps = 3.0 * delay;
            let width = self.pulse_width_factor * delay;
            compute_fracs(&mut self.fracs, t, width, self.dt, self.samples);
            while self.recent[g]
                .front()
                .is_some_and(|&(tp, _)| t - tp >= swing_ps)
            {
                self.recent[g].pop_front();
            }
            let mut remaining = m;
            for &(tp, ref pmask) in self.recent[g].iter().rev() {
                if mask_is_zero(&remaining) {
                    break;
                }
                let mut cand = ZERO_MASK;
                let mut any = 0u64;
                for w in 0..W {
                    cand[w] = remaining[w] & pmask[w];
                    any |= cand[w];
                    remaining[w] &= !pmask[w];
                }
                if any != 0 {
                    let elapsed = t - tp;
                    let swing_fraction = (elapsed / swing_ps).min(1.0);
                    let c = push_contrib(
                        &mut self.contrib_index,
                        &mut self.contrib_pairs,
                        &self.fracs,
                        energy * swing_fraction,
                        self.dt,
                    );
                    self.log.push(t, c, false, &cand);
                }
            }
            if !mask_is_zero(&remaining) {
                let c = push_contrib(
                    &mut self.contrib_index,
                    &mut self.contrib_pairs,
                    &self.fracs,
                    energy,
                    self.dt,
                );
                self.log.push(t, c, false, &remaining);
            }
            self.recent[g].push_back((t, m));

            // Fan-out: re-evaluate each loading gate, in the scalar
            // engine's per-pin edge order (duplicate entries for a gate
            // loading this net on several pins are idempotent: by then
            // its lanes are already heading to the re-evaluated value).
            let out_net = self.output_nets[g] as usize;
            let lo = self.load_offsets[out_net] as usize;
            let hi = self.load_offsets[out_net + 1] as usize;
            for k in lo..hi {
                let g2 = self.load_gates[k] as usize;
                self.schedule(g2, t);
            }
        }
    }

    /// Coalesced re-evaluation of gate `g` at `t_now`: the scalar
    /// engine's inertial-delay keep/revoke/push rules applied to all
    /// lanes by mask algebra, consuming one push-group seq when any
    /// lane pushes. Lanes already pending toward the re-evaluated
    /// value keep their earlier event, untouched.
    fn schedule(&mut self, g: usize, t_now: f64) {
        let new_v = self.eval_gate(g);
        let cur = &self.values[self.output_nets[g] as usize];
        let pm = &self.pend_mask[g];
        let pv = &self.pend_val[g];
        let mut revoke = ZERO_MASK;
        let mut push = ZERO_MASK;
        let mut any_revoke = 0u64;
        let mut any_push = 0u64;
        for w in 0..W {
            let r = pm[w] & (pv[w] ^ new_v[w]);
            revoke[w] = r;
            any_revoke |= r;
            let p = (new_v[w] ^ cur[w]) & (r | !pm[w]);
            push[w] = p;
            any_push |= p;
        }
        if any_revoke != 0 {
            // Revoked swings become absorbed glitches at their
            // *scheduled* times. Energy is lane-independent, and lanes
            // revoked from the same push group share a scheduled time,
            // so each overlapped group shares one rendered pulse.
            let energy = self.energy_fj[g] * self.absorbed_frac;
            let width = self.pulse_width_factor * self.delay_ps[g];
            let emit = self.absorbed_frac > 0.0;
            let mut i = 0;
            while i < self.pend[g].len() {
                let mut overlap = ZERO_MASK;
                let mut any = 0u64;
                let mut left = 0u64;
                let gm = &self.pend[g][i].mask;
                for w in 0..W {
                    overlap[w] = gm[w] & revoke[w];
                    any |= overlap[w];
                    left |= gm[w] & !revoke[w];
                }
                if any != 0 {
                    if emit {
                        compute_fracs(
                            &mut self.fracs,
                            self.pend[g][i].time_ps,
                            width,
                            self.dt,
                            self.samples,
                        );
                        let c = push_contrib(
                            &mut self.contrib_index,
                            &mut self.contrib_pairs,
                            &self.fracs,
                            energy,
                            self.dt,
                        );
                        self.log.push(self.pend[g][i].time_ps, c, true, &overlap);
                    }
                    if left == 0 {
                        self.pend[g].swap_remove(i);
                        continue;
                    }
                    for (m, &r) in self.pend[g][i].mask.iter_mut().zip(revoke.iter()) {
                        *m &= !r;
                    }
                }
                i += 1;
            }
            let pmg = &mut self.pend_mask[g];
            for w in 0..W {
                pmg[w] &= !revoke[w];
            }
        }
        if any_push != 0 {
            self.seq += 1;
            let t = t_now + self.delay_ps[g];
            let pvg = &mut self.pend_val[g];
            let pmg = &mut self.pend_mask[g];
            for w in 0..W {
                pvg[w] = (pvg[w] & !push[w]) | (new_v[w] & push[w]);
                pmg[w] |= push[w];
            }
            self.pend[g].push(PendGroup {
                time_ps: t,
                seq: self.seq,
                mask: push,
            });
            self.queue.push(QueuedGroup {
                time_ps: t,
                seq: self.seq,
                gate: g as u32,
            });
        }
    }

    /// One stable sort of the global log by time reproduces the scalar
    /// engine's per-lane insertion-sort order in every lane at once
    /// (the log is appended in pop order, which *is* each lane's scalar
    /// append order); the precomputed pulse contributions are then
    /// accumulated bin-major, per-lane noise is added, and the stats
    /// come from per-lane event counters.
    fn render(&mut self, lanes: &[LaneStimulus<'_>], sampling: &SamplingConfig) {
        let n = lanes.len();
        // The stable sort by time is a merge in disguise: commit
        // entries are appended in pop order, so their times are already
        // non-decreasing; only absorbed entries (appended when revoked,
        // which is strictly before their scheduled timestamp's pops)
        // are out of place. Stably sorting those few and merging —
        // absorbed first on time ties, matching their earlier append —
        // reproduces the full stable sort at a fraction of the cost.
        self.order.clear();
        self.absorbed_order.clear();
        let times = &self.log.time;
        for (i, &m) in self.log.meta.iter().enumerate() {
            if m & 1 == 1 {
                self.absorbed_order.push(i as u32);
            }
        }
        self.absorbed_order
            .sort_by(|&a, &b| times[a as usize].total_cmp(&times[b as usize]));
        let mut ai = 0;
        for (i, &m) in self.log.meta.iter().enumerate() {
            if m & 1 == 1 {
                continue;
            }
            while ai < self.absorbed_order.len()
                && times[self.absorbed_order[ai] as usize]
                    .total_cmp(&times[i])
                    .is_le()
            {
                self.order.push(self.absorbed_order[ai]);
                ai += 1;
            }
            self.order.push(i as u32);
        }
        self.order.extend_from_slice(&self.absorbed_order[ai..]);
        self.bin_work.resize_with(sampling.samples, Vec::new);

        // First pass over the sorted order: distribute each entry's
        // contribution pairs onto per-bin work lists (keeping sorted
        // order within each bin — adds to different bins commute, adds
        // to one (lane, bin) cell must run in the scalar engine's
        // sorted-log order) and tally per-lane event counts.
        self.counts_events[..n].fill(0);
        self.counts_absorbed[..n].fill(0);
        for &idx in &self.order {
            let i = idx as usize;
            let meta = self.log.meta[i];
            let (loff, llen) = self.log.lanes_span[i];
            let (off, len) = self.contrib_index[(meta >> 1) as usize];
            for &(bin, dp) in &self.contrib_pairs[off as usize..(off + len) as usize] {
                self.bin_work[bin as usize].push((loff, llen, dp));
            }
            let lanes_of = &self.log.lanes[loff as usize..(loff + llen) as usize];
            if meta & 1 == 1 {
                for &l in lanes_of {
                    self.counts_events[l as usize] += 1;
                    self.counts_absorbed[l as usize] += 1;
                }
            } else {
                for &l in lanes_of {
                    self.counts_events[l as usize] += 1;
                }
            }
        }
        // Second pass, bin-major: each 8 KB accumulator row is zeroed
        // and filled while cache-hot. Rows without work keep stale
        // values and are never read — the transpose writes zeros for
        // them directly.
        if self.acc.len() != sampling.samples * LANES {
            self.acc.clear();
            self.acc.resize(sampling.samples * LANES, 0.0);
        }
        let acc = &mut self.acc;
        let log_lanes = &self.log.lanes;
        for (k, work) in self.bin_work.iter().enumerate() {
            if work.is_empty() {
                continue;
            }
            let row = &mut acc[k * LANES..][..LANES];
            row.fill(0.0);
            for &(loff, llen, dp) in work {
                for &l in &log_lanes[loff as usize..(loff + llen) as usize] {
                    row[l as usize] += dp;
                }
            }
        }

        // Settle time: each lane's last (max-time) event, found by a
        // reverse walk over the sorted order.
        self.settle_buf[..n].fill(0.0);
        self.settle_seen[..n].fill(false);
        let mut unresolved = n;
        for &idx in self.order.iter().rev() {
            if unresolved == 0 {
                break;
            }
            let i = idx as usize;
            let (loff, llen) = self.log.lanes_span[i];
            for &l in &self.log.lanes[loff as usize..(loff + llen) as usize] {
                let l = l as usize;
                if !self.settle_seen[l] {
                    self.settle_seen[l] = true;
                    self.settle_buf[l] = self.log.time[i];
                    unresolved -= 1;
                }
            }
        }

        // Transpose the bin-major accumulator into per-lane traces,
        // eight lanes (one cache line of each row) at a time; rows
        // without bin work contribute zeros without being read.
        let acc = &self.acc;
        let bin_work = &self.bin_work;
        let traces = &mut self.traces;
        let mut lb = 0;
        while lb < n {
            let le = (lb + 8).min(n);
            for trace in traces[lb..le].iter_mut() {
                if trace.len() != sampling.samples {
                    trace.clear();
                    trace.resize(sampling.samples, 0.0);
                }
            }
            for (k, row) in acc.chunks_exact(LANES).enumerate() {
                if bin_work[k].is_empty() {
                    for trace in traces[lb..le].iter_mut() {
                        trace[k] = 0.0;
                    }
                } else {
                    for (l, trace) in traces[lb..le].iter_mut().enumerate() {
                        trace[k] = row[lb + l];
                    }
                }
            }
            lb = le;
        }
        for work in &mut self.bin_work {
            work.clear();
        }

        for (l, lane) in lanes.iter().enumerate() {
            if self.noise_mw > 0.0 {
                let mut rng = SmallRng::seed_from_u64(lane.noise_seed);
                for s in self.traces[l].iter_mut() {
                    *s += self.noise_mw * gaussian(&mut rng);
                }
            }
            let events = self.counts_events[l] as usize;
            let absorbed = self.counts_absorbed[l] as usize;
            self.stats[l] = CaptureStats {
                events,
                full_transitions: events - absorbed,
                absorbed_glitches: absorbed,
                settle_time_ps: self.settle_buf[l],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use rand::Rng;
    use sbox_netlist::NetlistBuilder;

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
    fn full_batches_match_the_event_driven_session_bit_for_bit() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let sampling = SamplingConfig::default();
        let mut scalar = sim.session();
        let mut sliced = sim.bitsliced_session().expect("supported");
        let mut rng = SmallRng::seed_from_u64(0xB175);
        for round in 0..2 {
            let stimuli: Vec<(Vec<bool>, Vec<bool>, u64)> = (0..LANES)
                .map(|_| {
                    (
                        (0..4).map(|_| rng.gen()).collect(),
                        (0..4).map(|_| rng.gen()).collect(),
                        rng.gen(),
                    )
                })
                .collect();
            let lanes: Vec<LaneStimulus<'_>> = stimuli
                .iter()
                .map(|(iv, fv, seed)| LaneStimulus {
                    initial: iv,
                    final_inputs: fv,
                    noise_seed: *seed,
                })
                .collect();
            let (traces, stats) = sliced.capture_batch(&lanes, &sampling);
            for (l, (iv, fv, seed)) in stimuli.iter().enumerate() {
                let mut lane_rng = SmallRng::seed_from_u64(*seed);
                let mut want = Vec::new();
                let want_stats = scalar.capture_into(iv, fv, &sampling, &mut lane_rng, &mut want);
                assert_eq!(traces[l], want, "round {round} lane {l}");
                assert_eq!(stats[l], want_stats, "round {round} lane {l}");
            }
        }
    }

    #[test]
    fn partial_batches_use_dead_lanes_for_free() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let sampling = SamplingConfig::default();
        let mut scalar = sim.session();
        let mut sliced = sim.bitsliced_session().expect("supported");
        for n in [1usize, 3, 17, 63, 64, 65, 100, 1023] {
            let stimuli: Vec<(Vec<bool>, Vec<bool>)> = (0..n)
                .map(|i| {
                    (
                        (0..4).map(|b| (i >> b) & 1 == 1).collect(),
                        (0..4).map(|b| ((i * 5 + 3) >> b) & 1 == 1).collect(),
                    )
                })
                .collect();
            let lanes: Vec<LaneStimulus<'_>> = stimuli
                .iter()
                .enumerate()
                .map(|(i, (iv, fv))| LaneStimulus {
                    initial: iv,
                    final_inputs: fv,
                    noise_seed: i as u64,
                })
                .collect();
            let (traces, stats) = sliced.capture_batch(&lanes, &sampling);
            assert_eq!(traces.len(), n);
            for (l, (iv, fv)) in stimuli.iter().enumerate() {
                let mut lane_rng = SmallRng::seed_from_u64(l as u64);
                let mut want = Vec::new();
                let want_stats = scalar.capture_into(iv, fv, &sampling, &mut lane_rng, &mut want);
                assert_eq!(traces[l], want, "n {n} lane {l}");
                assert_eq!(stats[l], want_stats, "n {n} lane {l}");
            }
        }
    }

    #[test]
    fn sub_resolution_delays_are_rejected() {
        let nl = racy_netlist();
        let n = nl.gates().len();
        let mut factors = vec![1.0; n];
        factors[2] = 1e-12; // passes Derating's positivity check, but
                            // the derated delay rounds away at ps scale
        let derating = crate::Derating::from_factors(factors, vec![1.0; n]);
        let sim = Simulator::with_derating(&nl, &noisy_config(), &derating);
        let err = sim.bitsliced_session().expect_err("must be rejected");
        assert_eq!(err.gate, 2);
        assert!(err.to_string().contains("event-driven"));
        // The event-driven engine still handles it.
        let _ = sim.session().transition(&[false; 4], &[true; 4]);
    }

    #[test]
    fn session_is_reusable_and_state_free_across_batches() {
        let nl = racy_netlist();
        let sim = Simulator::new(&nl, &noisy_config());
        let sampling = SamplingConfig::default();
        let mut sliced = sim.bitsliced_session().expect("supported");
        let mk = |i: usize| {
            (
                (0..4).map(|b| (i >> b) & 1 == 1).collect::<Vec<bool>>(),
                (0..4)
                    .map(|b| ((i ^ 9) >> b) & 1 == 1)
                    .collect::<Vec<bool>>(),
            )
        };
        let (iv, fv) = mk(6);
        let lane = [LaneStimulus {
            initial: &iv,
            final_inputs: &fv,
            noise_seed: 42,
        }];
        let first = sliced.capture_batch(&lane, &sampling).0[0].clone();
        // Interleave a different, busier batch, then repeat the first.
        let (iv2, fv2) = mk(1);
        let busy: Vec<LaneStimulus<'_>> = (0..LANES)
            .map(|_| LaneStimulus {
                initial: &iv2,
                final_inputs: &fv2,
                noise_seed: 7,
            })
            .collect();
        let _ = sliced.capture_batch(&busy, &sampling);
        let again = sliced.capture_batch(&lane, &sampling).0[0].clone();
        assert_eq!(first, again);
    }
}
