//! The crate's one evaluator, and incremental cone-scoped re-analysis.
//!
//! The repair searcher verifies hundreds of patched netlists that differ
//! from a common base by a handful of gates. A [`Baseline`] keeps the
//! base subject's lane matrix and statistics; [`Baseline::reanalyze`]
//! passes it to the private routine that [`crate::analyze_subject`] and
//! [`Baseline::new`] call with no baseline — a from-scratch analysis is
//! a re-analysis that reuses nothing. The routine:
//!
//! 1. **aligns** the candidate against the base: a gate matches while its
//!    cell, pin and output net ids and barrier flag do, an input while
//!    its net id and linear form do (patches append inputs and gates or
//!    edit in place, so ids are stable); with no base, nothing matches;
//! 2. **dirties** the fan-out cones along the topological order;
//! 3. **fills** one flat lane matrix: the clean rows that dirty gates or
//!    recomputed statistics read are *tiled* from the base in one pass
//!    (appended inputs take the high mask bits, so the old lane space
//!    embeds as the low lanes of each new block), then dirty inputs and
//!    gates evaluate in place in topological order;
//! 4. **recomputes** the statistics of dirty entities and copies the
//!    rest. Copying is *exact*: counts and denominators scale by the same
//!    power of two under lane growth, so the quotients round identically.
//!
//! Both runs end in the same diagnosis, so an incremental report is
//! byte-identical to a full one; `tests/incremental_property.rs` and the
//! oracle of `BENCH_repair.json` pin it.

use crate::analyze::{finish_analysis, Analysis, SubjectStats};
use crate::packed::PackedSweep;
use crate::subject::{Depth, Subject};

/// A base subject's full analysis state, reusable across many candidate
/// re-analyses.
#[derive(Debug, Clone)]
pub struct Baseline {
    subject: Subject,
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

/// What [`evaluate`] computed for one subject.
pub(crate) struct Evaluation {
    /// The lane matrix; `None` at [`Depth::Structural`]. Complete with
    /// no prior; with one, clean rows no statistic read stay zero.
    pub(crate) sweep: Option<PackedSweep>,
    pub(crate) stats: SubjectStats,
    effort: ReanalyzeEffort,
}

impl Baseline {
    /// Analyze the base subject once and capture rows + statistics.
    pub fn new(subject: Subject) -> Self {
        let Evaluation { sweep, stats, .. } = evaluate(&subject, None);
        Self {
            subject,
            sweep,
            stats,
        }
    }

    /// The base subject.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The base subject's own analysis (identical to
    /// [`crate::analyze_subject`] on it).
    pub fn base_analysis(&self) -> Analysis {
        finish_analysis(&self.subject, &self.stats)
    }

    /// Re-analyze a candidate subject derived from the base by a
    /// localized edit. Nothing is reused when the candidate is
    /// structural-depth (the enumeration work the cache saves does not
    /// exist there) or its lane space shrank or changed its classes.
    pub fn reanalyze(&self, candidate: &Subject) -> (Analysis, ReanalyzeEffort) {
        let Evaluation { stats, effort, .. } = evaluate(candidate, Some(self));
        (finish_analysis(candidate, &stats), effort)
    }
}

/// Compute a subject's lane matrix and statistics, reusing whatever the
/// alignment against `prior` proves unchanged (see the module docs).
/// With no prior every input, gate, net and output group is dirty.
pub(crate) fn evaluate(subject: &Subject, prior: Option<&Baseline>) -> Evaluation {
    let netlist = subject.netlist();
    let (nets, gates) = (netlist.nets().len(), netlist.gates().len());
    let mut stats = SubjectStats::zeros(subject);
    let mut effort = ReanalyzeEffort {
        dirty_nets: nets,
        total_nets: nets,
        dirty_gates: gates,
        total_gates: gates,
    };
    if subject.depth() == Depth::Structural {
        return Evaluation {
            sweep: None,
            stats,
            effort,
        };
    }
    // The base lane space must embed as the low lanes of the subject's.
    let prior = prior
        .and_then(|b| Some((b, b.sweep.as_ref()?)))
        .filter(|(b, _)| {
            b.subject.mask_bits() <= subject.mask_bits()
                && b.subject.num_classes() == subject.num_classes()
        });

    // 1. Alignment: which inputs and gates are unchanged? The output-net
    // check matters when a candidate was rebuilt with shifted net ids
    // (e.g. a rewire after an input-appending patch): a gate whose pins
    // happen to match by id but whose output moved must not tile the
    // base row at the old position. Nets beyond the base are new.
    let mut gate_clean = vec![false; gates];
    let mut net_dirty = vec![true; nets];
    if let Some((b, _)) = prior {
        let base = b.subject.netlist();
        for d in net_dirty.iter_mut().take(base.nets().len()) {
            *d = false;
        }
        for (port, &net) in netlist.inputs().iter().enumerate() {
            net_dirty[net.index()] = base.inputs().get(port) != Some(&net)
                || b.subject.codec().input_form(port) != subject.codec().input_form(port);
        }
        for (g, (cg, bg)) in netlist.gates().iter().zip(base.gates()).enumerate() {
            gate_clean[g] = cg.cell() == bg.cell()
                && cg.output() == bg.output()
                && cg.inputs() == bg.inputs()
                && subject.is_barrier(g) == b.subject.is_barrier(g);
        }
    }

    // 2. Dirty propagation over the topological order: an unchanged gate
    // becomes dirty if any of its pins is. A gate is dirty exactly when
    // its output net is (a clean gate's output is a base net).
    for &gid in netlist.topo_order() {
        let gate = netlist.gate(gid);
        if !gate_clean[gid.index()] || gate.inputs().iter().any(|n| net_dirty[n.index()]) {
            net_dirty[gate.output().index()] = true;
        }
    }

    // 3. What carries over: a clean net whose barrier flag is unchanged
    // (it picks the transition model, and whether loads read the net
    // stale), a clean gate whose pins all carry over, and an unchanged
    // output group of clean nets.
    let base = prior.map(|(b, _)| b);
    let net_kept: Vec<bool> = (0..nets)
        .map(|n| {
            !net_dirty[n]
                && base
                    .is_some_and(|b| b.subject.net_is_barriered(n) == subject.net_is_barriered(n))
        })
        .collect();
    let gate_kept: Vec<bool> = netlist
        .gates()
        .iter()
        .zip(&gate_clean)
        .map(|(gate, &clean)| clean && gate.inputs().iter().all(|n| net_kept[n.index()]))
        .collect();
    let group_kept: Vec<bool> = subject
        .output_groups()
        .iter()
        .enumerate()
        .map(|(gi, ports)| {
            base.is_some_and(|b| b.subject.output_groups().get(gi) == Some(ports))
                && ports
                    .iter()
                    .all(|&p| !net_dirty[netlist.outputs()[p].1.index()])
        })
        .collect();

    // 4. Rows, in one flat matrix: tile the clean rows that a dirty gate
    // or a recomputed statistic reads (the rest stay untouched, so a
    // re-analysis costs its cone, not its lane space), then evaluate
    // dirty inputs and gates in place.
    let mut read: Vec<bool> = net_kept.iter().map(|&k| !k).collect();
    for (gate, _) in netlist.gates().iter().zip(&gate_kept).filter(|(_, &k)| !k) {
        for pin in gate.inputs() {
            read[pin.index()] = true;
        }
    }
    for (ports, _) in subject
        .output_groups()
        .iter()
        .zip(&group_kept)
        .filter(|(_, &k)| !k)
    {
        for &p in ports {
            read[netlist.outputs()[p].1.index()] = true;
        }
    }
    let mut sweep = PackedSweep::zeroed(subject);
    if let Some((_, base_sweep)) = prior {
        for n in (0..nets).filter(|&n| read[n] && !net_dirty[n]) {
            sweep.tile_row(n, base_sweep);
        }
    }
    for (port, net) in netlist.inputs().iter().enumerate() {
        if net_dirty[net.index()] {
            sweep.fill_input(subject, port);
        }
    }
    for gate in netlist.topo_order().iter().map(|&gid| netlist.gate(gid)) {
        if net_dirty[gate.output().index()] {
            sweep.eval_gate(gate);
        }
    }

    // 5. Statistics: copy what carries over, recompute the rest.
    for (n, &kept) in net_kept.iter().enumerate() {
        (stats.net_value_bias[n], stats.net_transition_bias[n]) = match base {
            Some(b) if kept => (b.stats.net_value_bias[n], b.stats.net_transition_bias[n]),
            _ => (
                sweep.net_value_bias_one(n),
                sweep.net_transition_bias_one(n, subject.net_is_barriered(n)),
            ),
        };
    }
    for (g, (gate, &kept)) in netlist.gates().iter().zip(&gate_kept).enumerate() {
        (stats.gate_joint_bias[g], stats.gate_class_variance[g]) = match base {
            Some(b) if kept => (b.stats.gate_joint_bias[g], b.stats.gate_class_variance[g]),
            // Barriers do not glitch: their output follows a
            // registered/precharged update, not a race window.
            _ if subject.is_barrier(g) => (0.0, 0.0),
            _ => {
                let pins: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
                let stale: Vec<bool> = pins.iter().map(|&n| subject.net_is_barriered(n)).collect();
                sweep.gate_joint_stats(&pins, &stale)
            }
        };
    }
    for (gi, (ports, &kept)) in subject.output_groups().iter().zip(&group_kept).enumerate() {
        stats.group_uniformity[gi] = match base {
            Some(b) if kept => b.stats.group_uniformity[gi],
            // SHARE-UNIFORM needs at least two shares and a mask space.
            _ if subject.shares_per_bit() < 2 || sweep.mask_count() == 1 => 0.0,
            _ => {
                let nets: Vec<usize> = ports
                    .iter()
                    .map(|&p| netlist.outputs()[p].1.index())
                    .collect();
                sweep.group_uniformity_one(&nets)
            }
        };
    }
    let count = |flags: &[bool], value| flags.iter().filter(|&&f| f == value).count();
    effort.dirty_nets = count(&net_dirty, true);
    effort.dirty_gates = count(&gate_kept, false);
    Evaluation {
        sweep: Some(sweep),
        stats,
        effort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_subject, report};
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
        let victim = netlist.loads(r2)[0];
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
