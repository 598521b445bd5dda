//! The engine core both capture backends share: the netlist compiled
//! once per [`Simulator`](crate::Simulator) into flat arrays, and the
//! `(time, seq)` bucket queue their event loops pop from.
//!
//! # Why the bucket queue pops in exact `(time, seq)` order
//!
//! Events are popped in `(time_ps, seq)` order (`seq` is the
//! per-transition push counter, so ties resolve in schedule order). The
//! bucket queue preserves that order exactly:
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

use sbox_netlist::{GateId, Netlist};

/// The straight-line program both engines run: CSR fan-in and fan-out,
/// per-gate truth tables and output nets, the topological order, and
/// the event queue's bucket width. Built by
/// [`Simulator::with_derating`](crate::Simulator::with_derating);
/// sessions borrow it and own only their scratch state.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// CSR fan-in: gate `g` reads nets
    /// `input_nets[input_offsets[g] .. input_offsets[g + 1]]` (≤ 4).
    pub(crate) input_offsets: Vec<u32>,
    pub(crate) input_nets: Vec<u32>,
    /// CSR fan-out: the loads of net `n` are
    /// `load_edges[load_offsets[n] .. load_offsets[n + 1]]`, each packed
    /// as `(gate_index << 3) | pin`, one entry per connected pin in the
    /// netlist's load order — the scheduling order, and with it the
    /// event tie-breaking, of both engines.
    pub(crate) load_offsets: Vec<u32>,
    pub(crate) load_edges: Vec<u32>,
    /// Per-gate truth table: bit `p` is the output for input pattern `p`
    /// (input `i` contributes bit `i` of `p`).
    pub(crate) truth: Vec<u16>,
    pub(crate) output_nets: Vec<u32>,
    /// Topological order as raw gate indices, for the settle walk.
    pub(crate) topo: Vec<u32>,
    /// Gate index → `GateId`, for the event records.
    pub(crate) gate_ids: Vec<GateId>,
    /// One minimum derated gate delay: an event scheduled while bucket
    /// `b` drains fires at least a full bucket width later, so nearly
    /// every push is an O(1) append into a future bucket.
    pub(crate) bucket_width: f64,
}

impl Program {
    pub(crate) fn compile(netlist: &Netlist, delay_ps: &[f64]) -> Self {
        let n_gates = netlist.gates().len();
        let mut input_offsets = vec![0u32];
        let mut input_nets = Vec::new();
        let mut truth = Vec::with_capacity(n_gates);
        let mut output_nets = Vec::with_capacity(n_gates);
        let mut per_net_edges: Vec<Vec<u32>> = vec![Vec::new(); netlist.nets().len()];
        for (g, gate) in netlist.gates().iter().enumerate() {
            for (pin, net) in gate.inputs().iter().enumerate() {
                input_nets.push(net.index() as u32);
                per_net_edges[net.index()].push(((g as u32) << 3) | pin as u32);
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
        let mut load_offsets = vec![0u32];
        let mut load_edges = Vec::new();
        for edges in &per_net_edges {
            load_edges.extend_from_slice(edges);
            load_offsets.push(load_edges.len() as u32);
        }
        let min_delay = delay_ps.iter().copied().fold(f64::INFINITY, f64::min);
        Self {
            input_offsets,
            input_nets,
            load_offsets,
            load_edges,
            truth,
            output_nets,
            topo: netlist
                .topo_order()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            gate_ids: gate_ids
                .into_iter()
                .map(|g| g.expect("topological order covers every gate"))
                .collect(),
            bucket_width: if min_delay.is_finite() {
                min_delay
            } else {
                1.0
            },
        }
    }

    /// The fan-out edges of net `net` (see `load_edges`).
    #[inline]
    pub(crate) fn loads(&self, net: usize) -> &[u32] {
        &self.load_edges[self.load_offsets[net] as usize..self.load_offsets[net + 1] as usize]
    }

    /// The input nets of gate `g`, pin order.
    #[inline]
    pub(crate) fn inputs(&self, g: usize) -> &[u32] {
        &self.input_nets[self.input_offsets[g] as usize..self.input_offsets[g + 1] as usize]
    }
}

/// A queued event: a scalar output change or a coalesced lane group.
/// Packed to 16 bytes (raw gate index, `u32` push counter — a single
/// transition settles in far fewer than 2³² events).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub(crate) time_ps: f64,
    pub(crate) seq: u32,
    pub(crate) gate: u32,
}

impl QueuedEvent {
    /// The global pop order: earliest time first, push order on ties.
    fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
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
pub(crate) struct EventQueue {
    /// Reciprocal of the bucket width. The float-rounding edge of the
    /// multiply is handled by sorted insertion into the draining
    /// bucket's tail, so it affects density only, never pop order.
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
    pub(crate) fn new(width_ps: f64) -> Self {
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
    pub(crate) fn reset(&mut self) {
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

    pub(crate) fn push(&mut self, ev: QueuedEvent) {
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

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
