//! The bit-sliced capture backend: [`LANES`] traces per levelized pass.
//!
//! A [`BitslicedSession`] runs the simulator's compiled netlist — the
//! same flat straight-line program the event-driven session runs, its
//! 16-bit truth tables evaluated as bitwise multiplexer folds over
//! `u64` lane words — and captures up to [`LANES`] stimuli per pass.
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
//! every commit entry the pop emits, whatever its swing energy. The
//! swing lookup is paid only by lanes that can swing partially: a
//! per-gate `committed` mask sends lanes that have not switched the
//! gate yet in this batch straight to the full-swing pulse, and only
//! the rest walk the gate's recent commits in its 3·delay window. A
//! lane in no window entry would walk the whole window to learn that,
//! and on the glitch-heavy ROM-style netlists (GLUT, RSM-ROM) almost
//! every pop has such lanes: on one 4,096-trace RSM-ROM cell, 5% of
//! pops found any lane inside the window, yet pops walked ~44 entries
//! each. The split into pulses is the same either way, so the log is
//! unchanged. All remaining per-lane work lives in the renderer: the
//! event loop appends `(time, contribution, lane list)` records to one
//! global log in pop order, a single stable sort by time reproduces
//! every lane's scalar insertion-sort order simultaneously (the scalar
//! per-lane log order *is* the pop order restricted to that lane), and
//! the precomputed per-bin contributions are then accumulated
//! bin-major — one lane-indexed `+=` per (event, lane, bin), the exact
//! add sequence, in the exact order, the scalar renderer performs.
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
use crate::power::{bin_power, gaussian, pulse_bins};
use crate::program::{EventQueue, Program, QueuedEvent};
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

/// A pending output change for a subset of lanes of one gate: pushed by
/// one coalesced `schedule`, awaiting its commit pop (or revocation).
/// Its queue entry is a plain `QueuedEvent`; the mask lives here
/// (looked up by `seq` on pop), keeping queue entries small and
/// revocation free of queue surgery.
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
    /// The simulator's compiled netlist and derated per-gate delays and
    /// energies.
    prog: &'a Program,
    delay_ps: &'a [f64],
    energy_fj: &'a [f64],
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
    /// Only lanes in `committed` can be in an entry, so only they are
    /// looked up here.
    recent: Vec<std::collections::VecDeque<(f64, Mask)>>,
    /// Per-gate lanes that have committed the gate in this batch. A
    /// popped lane outside it has never switched the gate — the scalar
    /// engine's `last_switch = −∞`, a full swing — and skips the
    /// `recent` walk.
    committed: Vec<Mask>,
    touched: Vec<u32>,
    queue: EventQueue,
    seq: u32,
    // --- per-capture log and rendering ---
    log: EventLog,
    /// Log indices stably sorted by `time` for rendering.
    order: Vec<u32>,
    /// Scratch for the absorbed-entry side of the render merge.
    absorbed_order: Vec<u32>,
    /// Pulse contributions, rendered by the event loop as it pops.
    pulses: Pulses,
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

/// The contribution arena: `index[c]` is an `(offset, len)` span of
/// `(bin, Δpower)` pairs — one precomputed pulse rendering, shared by
/// every lane the referencing log entries list.
#[derive(Debug, Default)]
struct Pulses {
    index: Vec<(u32, u32)>,
    pairs: Vec<(u32, f64)>,
    /// Charge-fraction cache: `(bin, frac)` of the last `shape`d pulse,
    /// shared by every contribution rendered from it (all commit
    /// entries of one pop).
    fracs: Vec<(u32, f64)>,
    /// The current capture's sampling.
    sampling: SamplingConfig,
}

impl Pulses {
    fn reset(&mut self, sampling: &SamplingConfig) {
        self.index.clear();
        self.pairs.clear();
        self.sampling = *sampling;
    }

    /// Cache the charge fractions of a pulse at `t` of `width` ps: the
    /// scalar renderer's bin loop with the event's energy factored out.
    fn shape(&mut self, t: f64, width: f64) {
        let fracs = &mut self.fracs;
        fracs.clear();
        pulse_bins(t, width, &self.sampling, |k, frac| {
            fracs.push((k as u32, frac))
        });
    }

    /// Render the cached pulse at `energy` through the scalar path's
    /// exact `bin_power`; returns the contribution's index.
    fn render(&mut self, energy: f64) -> u32 {
        let dt = self.sampling.period_ps();
        let off = self.pairs.len() as u32;
        for &(k, frac) in &self.fracs {
            self.pairs.push((k, bin_power(energy, frac, dt)));
        }
        self.index.push((off, self.pairs.len() as u32 - off));
        self.index.len() as u32 - 1
    }

    fn get(&self, c: u32) -> &[(u32, f64)] {
        let (off, len) = self.index[c as usize];
        &self.pairs[off as usize..(off + len) as usize]
    }
}

impl<'a> Simulator<'a> {
    /// Start a bit-sliced capture session on this simulator's compiled
    /// netlist, or report why this netlist/derating combination must
    /// stay on the event-driven backend: every derated delay must be
    /// finite and ≥ 1 µps, so coalesced pop order provably matches the
    /// scalar engine in every lane (see [`BitsliceUnsupported`]).
    pub fn bitsliced_session(&self) -> Result<BitslicedSession<'_>, BitsliceUnsupported> {
        let bad = |&(_, d): &(usize, &f64)| !(d.is_finite() && *d >= MIN_DELAY_PS);
        if let Some((gate, &delay_ps)) = self.delay_ps.iter().enumerate().find(bad) {
            return Err(BitsliceUnsupported { gate, delay_ps });
        }
        let (n_nets, n_gates) = (self.netlist.nets().len(), self.delay_ps.len());
        Ok(BitslicedSession {
            sim: self,
            prog: &self.program,
            delay_ps: &self.delay_ps,
            energy_fj: &self.energy_fj,
            values: vec![ZERO_MASK; n_nets],
            pend: vec![Vec::new(); n_gates],
            pend_mask: vec![ZERO_MASK; n_gates],
            pend_val: vec![ZERO_MASK; n_gates],
            recent: vec![std::collections::VecDeque::new(); n_gates],
            committed: vec![ZERO_MASK; n_gates],
            touched: Vec::new(),
            queue: EventQueue::new(self.program.bucket_width),
            seq: 0,
            log: EventLog::default(),
            order: Vec::new(),
            absorbed_order: Vec::new(),
            pulses: Pulses::default(),
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
}

impl BitslicedSession<'_> {
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
        self.pulses.reset(sampling);
        self.run_batch(lanes);
        self.render(lanes, sampling);
        (&self.traces[..lanes.len()], &self.stats[..lanes.len()])
    }

    /// Bit-sliced gate evaluation: a multiplexer fold of the shared
    /// truth table, each output bit broadcast to a lane word, over the
    /// gate's input words, specialized for the dominant 1- and 2-input
    /// cells.
    #[inline]
    fn eval_gate(&self, g: usize) -> Mask {
        let truth = self.prog.truth[g];
        let t = |p: usize| 0u64.wrapping_sub(u64::from((truth >> p) & 1));
        let mut out = ZERO_MASK;
        match *self.prog.inputs(g) {
            [a] => {
                let va = &self.values[a as usize];
                let (t_lo, t_hi) = (t(0), t(1));
                for w in 0..W {
                    out[w] = (!va[w] & t_lo) | (va[w] & t_hi);
                }
            }
            [a, b] => {
                let va = &self.values[a as usize];
                let vb = &self.values[b as usize];
                let (t00, t01, t10, t11) = (t(0), t(1), t(2), t(3));
                for w in 0..W {
                    let m0 = (!vb[w] & t00) | (vb[w] & t10);
                    let m1 = (!vb[w] & t01) | (vb[w] & t11);
                    out[w] = (!va[w] & m0) | (va[w] & m1);
                }
            }
            ref inputs => {
                let k = inputs.len();
                let mut table = [0u64; 16];
                for (p, slot) in table[..1 << k].iter_mut().enumerate() {
                    *slot = t(p);
                }
                for (w, slot) in out.iter_mut().enumerate() {
                    let mut tab = table;
                    let mut width = 1usize << k;
                    for &net in inputs.iter().rev() {
                        width >>= 1;
                        let v = self.values[net as usize][w];
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
        self.committed.iter_mut().for_each(|m| *m = ZERO_MASK);
        self.queue.reset();
        self.seq = 0;
        self.touched.clear();
        self.log.clear();

        // Settle on the initial inputs (pure levelized evaluation —
        // exactly the scalar engine's topo walk, all lanes at once).
        for (j, net) in netlist.inputs().iter().enumerate() {
            let mut wbuf = ZERO_MASK;
            for (l, lane) in lanes.iter().enumerate() {
                wbuf[l >> 6] |= (lane.initial[j] as u64) << (l & 63);
            }
            self.values[net.index()] = wbuf;
        }
        let prog = self.prog;
        for &g in &prog.topo {
            let out = self.eval_gate(g as usize);
            self.values[prog.output_nets[g as usize] as usize] = out;
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
                let loads = prog.loads(net.index());
                self.touched.extend(loads.iter().map(|&edge| edge >> 3));
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
            let vals = &mut self.values[prog.output_nets[g] as usize];
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
            // pair, since the elapsed time is a group property. Only
            // lanes that committed this gate before are looked up in
            // the window; the rest go straight to the full swing. The
            // charge fractions depend only on `(t, width)` and are
            // computed once for the whole pop.
            let energy = self.energy_fj[g];
            let delay = self.delay_ps[g];
            let swing_ps = 3.0 * delay;
            let width = self.sim.config().pulse_width_factor * delay;
            self.pulses.shape(t, width);
            while self.recent[g]
                .front()
                .is_some_and(|&(tp, _)| t - tp >= swing_ps)
            {
                self.recent[g].pop_front();
            }
            let mut full = ZERO_MASK;
            let mut remaining = ZERO_MASK;
            let seen = &mut self.committed[g];
            for w in 0..W {
                full[w] = m[w] & !seen[w];
                remaining[w] = m[w] & seen[w];
                seen[w] |= m[w];
            }
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
                    let c = self.pulses.render(energy * swing_fraction);
                    self.log.push(t, c, false, &cand);
                }
            }
            for w in 0..W {
                full[w] |= remaining[w];
            }
            if !mask_is_zero(&full) {
                let c = self.pulses.render(energy);
                self.log.push(t, c, false, &full);
            }
            self.recent[g].push_back((t, m));

            // Fan-out: re-evaluate each loading gate, in the scalar
            // engine's per-pin edge order (duplicate entries for a gate
            // loading this net on several pins are idempotent: by then
            // its lanes are already heading to the re-evaluated value).
            for &edge in prog.loads(prog.output_nets[g] as usize) {
                self.schedule((edge >> 3) as usize, t);
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
        let cur = &self.values[self.prog.output_nets[g] as usize];
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
            let config = self.sim.config();
            let energy = self.energy_fj[g] * config.absorbed_energy_fraction;
            let width = config.pulse_width_factor * self.delay_ps[g];
            let emit = config.absorbed_energy_fraction > 0.0;
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
                        let tp = self.pend[g][i].time_ps;
                        self.pulses.shape(tp, width);
                        let c = self.pulses.render(energy);
                        self.log.push(tp, c, true, &overlap);
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
            self.queue.push(QueuedEvent {
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
            for &(bin, dp) in self.pulses.get(meta >> 1) {
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
            let noise_mw = self.sim.config().noise_mw;
            if noise_mw > 0.0 {
                let mut rng = SmallRng::seed_from_u64(lane.noise_seed);
                for s in self.traces[l].iter_mut() {
                    *s += noise_mw * gaussian(&mut rng);
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

    /// One pop of `y = p ^ q` mixes three kinds of lane: `q` reaches
    /// `y` through eight buffers, and `p` flips `y` before that either
    /// never (`x0` alone toggles: the first switch), late through four
    /// buffers from `x2` (a re-switch inside the 3·delay window) or
    /// early straight from `x1` (a previous switch outside the window).
    #[test]
    fn one_pop_mixes_first_in_window_and_stale_switches() {
        let mut b = NetlistBuilder::new("swing_mix");
        let x = b.input_bus("x", 3);
        let mut q = x[0];
        for _ in 0..8 {
            q = b.buf(q);
        }
        let mut late = x[2];
        for _ in 0..4 {
            late = b.buf(late);
        }
        let p = b.xor(x[1], late);
        let y = b.xor(p, q);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let gate = nl.net(y).driver().expect("driven");
        let config = SimConfig {
            process_sigma: 0.0,
            noise_mw: 0.02,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&nl, &config);
        let initial = [false; 3];
        let finals = [
            [true, false, false],
            [true, false, true],
            [true, true, false],
        ];

        // On the event engine, each kind's last commit of `y` lands at
        // the same time — one coalesced pop — with its own swing.
        let full = sim.gate_energy_fj(gate);
        let kinds = finals.map(|f| {
            let rec = sim.session().transition(&initial, &f);
            let commits: Vec<_> = rec
                .events
                .iter()
                .filter(|e| e.gate == gate && !e.absorbed)
                .collect();
            let last = commits.last().expect("y switches");
            (commits.len(), last.time_ps, last.energy_fj < full)
        });
        let t = kinds[0].1;
        assert_eq!(kinds[0], (1, t, false), "first switch: full swing");
        assert_eq!(kinds[1], (2, t, true), "re-switch in window: partial");
        assert_eq!(kinds[2], (2, t, false), "stale re-switch: full swing");

        // Interleave the kinds across every mask word of a full batch.
        let lanes: Vec<LaneStimulus<'_>> = (0..LANES)
            .map(|l| LaneStimulus {
                initial: &initial,
                final_inputs: &finals[l % 3],
                noise_seed: l as u64,
            })
            .collect();
        let sampling = SamplingConfig::default();
        let mut sliced = sim.bitsliced_session().expect("supported");
        let (traces, stats) = sliced.capture_batch(&lanes, &sampling);
        let mut scalar = sim.session();
        let mut want = Vec::new();
        for (l, lane) in lanes.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(lane.noise_seed);
            let want_stats =
                scalar.capture_into(&initial, lane.final_inputs, &sampling, &mut rng, &mut want);
            assert_eq!(traces[l], want, "lane {l}");
            assert_eq!(stats[l], want_stats, "lane {l}");
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
