//! Incremental cone-scoped re-analysis.
//!
//! The repair searcher verifies hundreds of patched netlists that differ
//! from a common base by a handful of gates. A [`Baseline`] captures the
//! base subject's packed rows and per-entity statistics once; each
//! [`Baseline::reanalyze`] call then:
//!
//! 1. **aligns** the candidate against the base — gates match while cell
//!    type, input net ids, and barrier flag are identical (patches append
//!    inputs/gates or rewire pins in place, so ids are stable up to the
//!    first edit);
//! 2. **dirties** the fan-out cones: an edited/new gate dirties its
//!    output net, and dirt propagates along the topological order
//!    (`NetId`-keyed dirty set);
//! 3. **re-evaluates** only dirty nets; clean nets *tile* their baseline
//!    row into the candidate's lane space (a patch may add mask bits —
//!    appended inputs take the high mask bits, so the old space embeds as
//!    the low lanes of each new block and the row replicates exactly);
//! 4. **recomputes** statistics only for entities touching dirt, copying
//!    the baseline `f64` for the rest. Copying is *exact*, not
//!    approximate: counts and denominators both scale by the same power
//!    of two under lane growth, so the quotients round identically.
//!
//! The result goes through the same [`finish_analysis`] as a from-scratch
//! run, so an incremental report is byte-identical to a full one — the
//! property test at `tests/incremental_property.rs` and the bench oracle
//! in `BENCH_repair.json` pin it.

use std::collections::HashMap;

use crate::analyze::{analyze_subject, finish_analysis, Analysis, SubjectStats};
use crate::packed::{eval_cell_words, input_row, lane_geometry, PackedSweep};
use crate::subject::{Depth, Subject};

/// A base subject's full analysis state, reusable across many candidate
/// re-analyses.
#[derive(Debug, Clone)]
pub struct Baseline {
    subject: Subject,
    depth: Depth,
    sweep: Option<PackedSweep>,
    stats: SubjectStats,
}

/// How much of a candidate the incremental pass actually re-ran — the
/// observability hook for the speedup claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReanalyzeEffort {
    /// Nets whose rows were re-evaluated.
    pub dirty_nets: usize,
    /// Total nets in the candidate.
    pub total_nets: usize,
    /// Gates whose histograms were recomputed.
    pub dirty_gates: usize,
    /// Total gates in the candidate.
    pub total_gates: usize,
}

impl Baseline {
    /// Analyze the base subject once and capture rows + statistics.
    pub fn new(subject: Subject) -> Self {
        let depth = subject.depth();
        let (sweep, stats) = match depth {
            Depth::Exhaustive => {
                let sweep = PackedSweep::run(&subject);
                let stats = SubjectStats::compute(&subject, &sweep);
                (Some(sweep), stats)
            }
            Depth::Structural => (None, SubjectStats::zeros(&subject)),
        };
        Self {
            subject,
            depth,
            sweep,
            stats,
        }
    }

    /// The base subject.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The base subject's own analysis (identical to
    /// [`analyze_subject`] on it).
    pub fn base_analysis(&self) -> Analysis {
        finish_analysis(&self.subject, self.depth, &self.stats)
    }

    /// Re-analyze a candidate subject derived from the base by a
    /// localized edit. Falls back to a full run when the candidate is
    /// structural-depth (the enumeration work the cache saves does not
    /// exist there) or its lane space shrank/reordered.
    pub fn reanalyze(&self, candidate: &Subject) -> (Analysis, ReanalyzeEffort) {
        let depth = candidate.depth();
        let full = |a: Analysis| {
            let effort = ReanalyzeEffort {
                dirty_nets: a.nets,
                total_nets: a.nets,
                dirty_gates: a.gates,
                total_gates: a.gates,
            };
            (a, effort)
        };
        let (Depth::Exhaustive, Some(base_sweep)) = (depth, self.sweep.as_ref()) else {
            return full(analyze_subject(candidate));
        };
        let base = self.subject.netlist();
        let cand = candidate.netlist();
        let base_mask_bits = self.subject.mask_bits();
        let cand_mask_bits = candidate.mask_bits();
        if cand_mask_bits < base_mask_bits
            || candidate.num_classes() != self.subject.num_classes()
            || prefix_roles_differ(&self.subject, candidate)
        {
            return full(analyze_subject(candidate));
        }

        // 1. Alignment: which gates are unchanged (same id, cell, pins,
        // output net, barrier flag)? The output-net check matters when a
        // candidate was rebuilt with shifted net ids (e.g. a rewire after
        // an input-appending patch): a gate whose pins happen to match by
        // id but whose output moved must not tile the base row at the
        // old position.
        let mut gate_clean = vec![false; cand.gates().len()];
        for (g, cg) in cand.gates().iter().enumerate() {
            if let Some(bg) = base.gates().get(g) {
                gate_clean[g] = cg.cell() == bg.cell()
                    && cg.output().index() == bg.output().index()
                    && cg.inputs().iter().map(|n| n.index()).collect::<Vec<_>>()
                        == bg.inputs().iter().map(|n| n.index()).collect::<Vec<_>>()
                    && candidate.is_barrier(g) == self.subject.is_barrier(g);
            }
        }

        // 2. Dirty propagation over the topological order. New inputs and
        // nets beyond the base net count are always dirty; an unchanged
        // gate becomes dirty if any of its pins is.
        let mut net_dirty = vec![false; cand.nets().len()];
        for &net in &cand.inputs()[base.num_inputs()..] {
            net_dirty[net.index()] = true;
        }
        for d in net_dirty.iter_mut().skip(base.nets().len()) {
            *d = true;
        }
        let mut gate_dirty = vec![false; cand.gates().len()];
        for &gid in cand.topo_order() {
            let g = gid.index();
            let gate = cand.gate(gid);
            let dirty = !gate_clean[g] || gate.inputs().iter().any(|n| net_dirty[n.index()]);
            if dirty {
                gate_dirty[g] = true;
                net_dirty[gate.output().index()] = true;
            }
        }

        // 3. Rows: tile clean nets into the (possibly grown) lane space,
        // re-evaluate dirty ones in topological order.
        let classes = candidate.num_classes();
        let (wpc, _valid) = lane_geometry(cand_mask_bits);
        let total = classes * wpc;
        let growth = cand_mask_bits - base_mask_bits;
        let mut rows: HashMap<usize, Vec<u64>> = HashMap::new();
        for (i, &net) in cand.inputs().iter().enumerate() {
            if net_dirty[net.index()] {
                rows.insert(net.index(), input_row(candidate, i, wpc));
            }
        }
        // Clean-net rows materialize lazily through this closure-free
        // two-phase walk: dirty gates may read clean pins, so tile those
        // on demand.
        let tile = |base_row: &[u64]| tile_row(base_row, self.subject.mask_bits(), growth, classes);
        let ensure_row = |rows: &mut HashMap<usize, Vec<u64>>, n: usize| {
            rows.entry(n).or_insert_with(|| tile(base_sweep.net_row(n)));
        };
        let mut dirty_net_count = cand
            .inputs()
            .iter()
            .filter(|n| net_dirty[n.index()])
            .count();
        for &gid in cand.topo_order() {
            let g = gid.index();
            if !gate_dirty[g] {
                continue;
            }
            let gate = cand.gate(gid);
            for &pin in gate.inputs() {
                ensure_row(&mut rows, pin.index());
            }
            let mut out = vec![0u64; total];
            let mut pins = [0u64; 4];
            for (k, slot) in out.iter_mut().enumerate() {
                for (p, &n) in gate.inputs().iter().enumerate() {
                    pins[p] = rows[&n.index()][k];
                }
                *slot = eval_cell_words(gate.cell(), &pins[..gate.inputs().len()]);
            }
            rows.insert(gate.output().index(), out);
            dirty_net_count += 1;
        }

        // Assemble a full sweep for the statistics pass: clean nets tile
        // their baseline rows (cheap replication), dirty nets take the
        // freshly evaluated ones.
        let all_rows: Vec<Vec<u64>> = (0..cand.nets().len())
            .map(|n| match rows.remove(&n) {
                Some(r) => r,
                None => tile(base_sweep.net_row(n)),
            })
            .collect();
        let sweep = PackedSweep::from_rows(classes, cand_mask_bits, all_rows);

        // 4. Statistics: recompute dirty entities, copy the rest. The
        // copies are exact under lane growth (counts and denominators
        // scale by the same 2^growth).
        let mut stats = SubjectStats::zeros(candidate);
        let barrier_unchanged = |n: usize| {
            n < base.nets().len()
                && self.subject.net_is_barriered(n) == candidate.net_is_barriered(n)
        };
        for (n, &n_dirty) in net_dirty.iter().enumerate() {
            if !n_dirty && barrier_unchanged(n) {
                stats.net_value_bias[n] = self.stats.net_value_bias[n];
                stats.net_transition_bias[n] = self.stats.net_transition_bias[n];
            } else {
                stats.net_value_bias[n] = sweep.net_value_bias_one(n);
                stats.net_transition_bias[n] =
                    sweep.net_transition_bias_one(n, candidate.net_is_barriered(n));
            }
        }
        let mut dirty_gate_count = 0usize;
        for (g, gate) in cand.gates().iter().enumerate() {
            let pins_dirty = gate.inputs().iter().any(|n| net_dirty[n.index()]);
            let stale_changed = !gate.inputs().iter().all(|n| barrier_unchanged(n.index()));
            if gate_clean[g] && !pins_dirty && !stale_changed {
                stats.gate_joint_bias[g] = self.stats.gate_joint_bias[g];
                stats.gate_class_variance[g] = self.stats.gate_class_variance[g];
                continue;
            }
            dirty_gate_count += 1;
            if candidate.is_barrier(g) {
                continue;
            }
            let pins: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
            let stale: Vec<bool> = pins
                .iter()
                .map(|&n| candidate.net_is_barriered(n))
                .collect();
            stats.gate_joint_bias[g] = sweep.gate_joint_bias_one(&pins, &stale);
            stats.gate_class_variance[g] = sweep.gate_class_variance_one(&pins, &stale);
        }
        for (gi, ports) in candidate.output_groups().iter().enumerate() {
            let same_group = self
                .subject
                .output_groups()
                .get(gi)
                .is_some_and(|b| b == ports);
            let any_dirty = ports
                .iter()
                .any(|&p| net_dirty[cand.outputs()[p].1.index()]);
            if same_group && !any_dirty && gi < self.stats.group_uniformity.len() {
                stats.group_uniformity[gi] = self.stats.group_uniformity[gi];
            } else {
                stats.group_uniformity[gi] =
                    crate::analyze::group_uniformity_stat(candidate, &sweep, gi);
            }
        }

        let analysis = finish_analysis(candidate, depth, &stats);
        let effort = ReanalyzeEffort {
            dirty_nets: dirty_net_count,
            total_nets: cand.nets().len(),
            dirty_gates: dirty_gate_count,
            total_gates: cand.gates().len(),
        };
        (analysis, effort)
    }
}

/// Do the candidate's roles disagree with the base on the shared port
/// prefix (which would reorder mask bits and invalidate row tiling)?
fn prefix_roles_differ(base: &Subject, cand: &Subject) -> bool {
    let n = base.roles().len();
    cand.roles().len() < n || cand.roles()[..n] != base.roles()[..n]
}

/// Replicate a base row into a lane space grown by `growth` mask bits:
/// the new bits are the high bits, so each class block of the new row is
/// `2^growth` copies of the old block. Handles sub-word replication when
/// the old block is narrower than a word.
fn tile_row(base_row: &[u64], base_mask_bits: usize, growth: usize, classes: usize) -> Vec<u64> {
    if growth == 0 {
        return base_row.to_vec();
    }
    let (base_wpc, base_valid) = lane_geometry(base_mask_bits);
    let (new_wpc, _) = lane_geometry(base_mask_bits + growth);
    let mut out = vec![0u64; classes * new_wpc];
    for t in 0..classes {
        let src = &base_row[t * base_wpc..(t + 1) * base_wpc];
        let dst = &mut out[t * new_wpc..(t + 1) * new_wpc];
        if base_mask_bits >= 6 {
            // Whole-word replication.
            for (i, slot) in dst.iter_mut().enumerate() {
                *slot = src[i % base_wpc];
            }
        } else {
            // Sub-word replication: widen the M-lane pattern to 64 bits,
            // then copy across words.
            let m = 1usize << base_mask_bits;
            let mut word = src[0] & base_valid;
            let mut width = m;
            while width < 64 {
                word |= word << width;
                width *= 2;
            }
            for slot in dst.iter_mut() {
                *slot = word;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use sbox_circuits::{SboxCircuit, Scheme};
    use sbox_netlist::transform;

    #[test]
    fn unedited_candidate_reanalyzes_to_the_identical_report() {
        for scheme in [Scheme::Rsm, Scheme::Isw] {
            let subject = Subject::of_circuit(&SboxCircuit::build(scheme));
            let baseline = Baseline::new(subject.clone());
            let (inc, effort) = baseline.reanalyze(&subject);
            let full = analyze_subject(&subject);
            assert_eq!(report::json(&inc), report::json(&full), "{scheme}");
            assert_eq!(effort.dirty_nets, 0, "{scheme}");
            assert_eq!(effort.dirty_gates, 0, "{scheme}");
        }
    }

    #[test]
    fn rewired_gate_reanalyzes_bit_identically_but_cheaply() {
        let circuit = SboxCircuit::build(Scheme::Isw);
        let subject = Subject::of_circuit(&circuit);
        let baseline = Baseline::new(subject.clone());
        // Rewire one XOR load of refresh r2 onto r0 — the SD-REUSE
        // mutation — and re-analyze.
        let netlist = circuit.netlist();
        let r0 = netlist.inputs()[8];
        let r2 = netlist.inputs()[10];
        let victim = netlist.nets()[r2.index()].loads()[0];
        let pin = netlist
            .gate(victim)
            .inputs()
            .iter()
            .position(|&n| n == r2)
            .expect("victim loads r2");
        let mutant = transform::rewire_input(netlist, victim, pin, r0).expect("acyclic rewire");
        let patched = Subject::with_roles(
            subject.label(),
            mutant,
            subject.roles().to_vec(),
            subject.output_groups().to_vec(),
        )
        .expect("contract unchanged");
        let (inc, effort) = baseline.reanalyze(&patched);
        let full = analyze_subject(&patched);
        assert_eq!(report::json(&inc), report::json(&full));
        assert!(
            effort.dirty_gates < effort.total_gates / 2,
            "cone should be local: {effort:?}"
        );
    }

    #[test]
    fn tiling_survives_subword_and_multiword_growth() {
        // RSM has 4 mask bits (sub-word space). Append a fresh input and
        // a refresh XOR on output share y0 — one new mask bit.
        let circuit = SboxCircuit::build(Scheme::Rsm);
        let subject = Subject::of_circuit(&circuit);
        let baseline = Baseline::new(subject.clone());
        let netlist = circuit.netlist();
        let mut b = sbox_netlist::NetlistBuilder::new("rsm_refreshed");
        let mut map = std::collections::HashMap::new();
        for &net in netlist.inputs() {
            let name = netlist.net(net).name().unwrap_or("in").to_string();
            map.insert(net.index(), b.input(name));
        }
        // Builder creation order is topological for a pristine circuit,
        // so rebuilding in gates() order keeps every id aligned.
        for gate in netlist.gates() {
            let pins: Vec<_> = gate.inputs().iter().map(|n| map[&n.index()]).collect();
            let out = b.gate(gate.cell(), &pins);
            map.insert(gate.output().index(), out);
        }
        let fresh = b.input("r_new");
        let mut roles = subject.roles().to_vec();
        roles.push(sbox_circuits::InputRole::Fresh);
        let mut outs = Vec::new();
        for (i, (name, net)) in netlist.outputs().iter().enumerate() {
            if i == 0 {
                outs.push((name.clone(), b.xor(map[&net.index()], fresh)));
            } else {
                outs.push((name.clone(), map[&net.index()]));
            }
        }
        for (name, net) in outs {
            b.output(name, net);
        }
        let grown = b.finish().expect("valid refresh patch");
        let patched = Subject::with_roles(
            "rsm+refresh",
            grown,
            roles,
            subject.output_groups().to_vec(),
        )
        .expect("contract");
        let (inc, _) = baseline.reanalyze(&patched);
        let full = analyze_subject(&patched);
        assert_eq!(report::json(&inc), report::json(&full));
    }
}
