//! Candidate countermeasure patches, synthesized at witness sites.
//!
//! Every generator takes a diagnosed [`Subject`] and produces candidates
//! whose gate and net ids are stable with respect to the base: new
//! structure (fresh inputs, refresh XORs) is *appended*, pin rewires and
//! barrier marks edit in place, and nothing is ever interleaved. Id
//! stability is what makes two things work downstream:
//!
//! * the incremental re-analyzer aligns the candidate against the base and
//!   re-runs only the edit's fan-out cone;
//! * the beam search compares Error sets across candidates by
//!   `(rule, gate, net)` keys, which would be meaningless under id drift.
//!
//! The families:
//!
//! | name            | anchored at              | edit                                         |
//! |-----------------|--------------------------|----------------------------------------------|
//! | `refresh-shared`| all GX-BOUNDARY groups   | 1 fresh bit XORed into two shares per group  |
//! | `refresh-group` | one GX-BOUNDARY group    | 1 fresh bit XORed into two shares of it      |
//! | `refresh-ring`  | one GX-BOUNDARY group    | k−1 fresh bits chained across all k shares   |
//! | `affine-remap`  | one GX-BOUNDARY group    | an *existing* fresh bit re-used as refresh   |
//! | `xor-rotate`    | VALUE-BIAS/GLITCH-LOCAL  | re-associate an XOR chain through the anchor |
//! | `barrier`       | GLITCH-LOCAL gate        | mark the gate as a synchronization barrier   |

use std::collections::BTreeSet;

use sbox_circuits::InputRole;
use sbox_netlist::{transform, CellType, NetId, Netlist, NetlistBuilder};
use sca_verify::score::energy_weight;
use sca_verify::{Analysis, RuleId, Subject};

/// Energy-equivalent cost of one fresh random bit (the RNG, its routing,
/// and the refresh register pressure), in femtojoules. Tuned so a fresh
/// bit costs about as much as ten XOR2 evaluations: randomness is the
/// scarce resource in masked designs.
pub const FRESH_COST_FJ: f64 = 25.0;

/// Energy-equivalent cost of turning a gate into a synchronization
/// barrier (a registered/precharged cell in place of a combinational
/// one), in femtojoules.
pub const BARRIER_COST_FJ: f64 = 12.0;

/// Cap on witness anchors expanded per rule, keeping the candidate set
/// bounded on heavily-leaking subjects. Diagnostics arrive
/// strongest-first, so the cap keeps the worst sites.
const MAX_ANCHORS_PER_RULE: usize = 8;

/// One candidate patch: the edited subject plus its cost accounting.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Short machine-stable identifier, e.g. `refresh-group(b2)`.
    pub name: String,
    /// Human-readable description of the edit.
    pub description: String,
    /// Gates added by the patch.
    pub added_gates: usize,
    /// Fresh-randomness inputs added by the patch.
    pub added_inputs: usize,
    /// Energy-model cost: added-gate switching energy plus
    /// [`FRESH_COST_FJ`] per added input (or [`BARRIER_COST_FJ`] per
    /// barrier mark).
    pub cost_fj: f64,
    /// The patched subject, ready for re-analysis.
    pub subject: Subject,
}

/// The candidate set one generation pass produced, with notes about
/// anchors that had to be skipped (non-XOR shapes, would-be cycles, …).
#[derive(Debug, Clone, Default)]
pub struct GeneratedPatches {
    /// Viable candidates.
    pub patches: Vec<Patch>,
    /// Why particular anchors produced no candidate.
    pub notes: Vec<String>,
}

/// Synthesize every candidate patch the diagnostics of `analysis` anchor
/// on `subject`.
pub fn generate(subject: &Subject, analysis: &Analysis) -> GeneratedPatches {
    let mut out = GeneratedPatches::default();
    generate_refreshes(subject, analysis, &mut out);
    generate_xor_rotations(subject, analysis, &mut out);
    generate_barriers(subject, analysis, &mut out);
    out
}

/// Output groups implicated by a GX-BOUNDARY finding, by matching each
/// finding's anchor net against the group's first output port.
fn flagged_groups(subject: &Subject, analysis: &Analysis) -> Vec<usize> {
    let gx = analysis.of_rule(RuleId::GxBoundary);
    subject
        .output_groups()
        .iter()
        .enumerate()
        .filter(|(_, ports)| match ports.first() {
            Some(&p) => {
                let anchor = subject.netlist().outputs()[p].1.index();
                gx.iter().any(|d| d.location.net == anchor)
            }
            None => false,
        })
        .map(|(g, _)| g)
        .collect()
}

/// Where a refresh XOR takes its random operand from.
#[derive(Debug, Clone, Copy)]
enum RefreshSrc {
    /// The `i`-th fresh input this patch appends.
    New(usize),
    /// An existing primary-input net (affine remap reuse).
    Existing(usize),
}

fn generate_refreshes(subject: &Subject, analysis: &Analysis, out: &mut GeneratedPatches) {
    let flagged: Vec<usize> = flagged_groups(subject, analysis)
        .into_iter()
        .filter(|&g| {
            let ok = subject.output_groups()[g].len() >= 2;
            if !ok {
                out.notes.push(format!(
                    "group {g}: single output share, boundary refresh impossible"
                ));
            }
            ok
        })
        .collect();
    if flagged.is_empty() {
        return;
    }

    // refresh-shared: one fresh bit amortized across every flagged group.
    // Only distinct from refresh-group when more than one group is flagged.
    if flagged.len() >= 2 {
        let mut assigns = Vec::new();
        for &g in &flagged {
            let ports = &subject.output_groups()[g];
            assigns.push((ports[0], vec![RefreshSrc::New(0)]));
            assigns.push((ports[1], vec![RefreshSrc::New(0)]));
        }
        let bits: Vec<String> = flagged.iter().map(|g| format!("b{g}")).collect();
        push_refresh(
            subject,
            "refresh-shared".to_string(),
            format!(
                "XOR one shared fresh mask into two shares of output bits {}",
                bits.join(",")
            ),
            1,
            &assigns,
            out,
        );
    }

    for &g in &flagged {
        let ports = &subject.output_groups()[g];
        // refresh-group: a private fresh bit into the first two shares.
        push_refresh(
            subject,
            format!("refresh-group(b{g})"),
            format!("XOR a fresh mask into shares 0 and 1 of output bit {g}"),
            1,
            &[
                (ports[0], vec![RefreshSrc::New(0)]),
                (ports[1], vec![RefreshSrc::New(0)]),
            ],
            out,
        );
        // refresh-ring: a chain refresh across all k shares (k ≥ 3).
        let k = ports.len();
        if k >= 3 {
            let mut assigns = vec![(ports[0], vec![RefreshSrc::New(0)])];
            for (i, &port) in ports.iter().enumerate().take(k - 1).skip(1) {
                assigns.push((port, vec![RefreshSrc::New(i - 1), RefreshSrc::New(i)]));
            }
            assigns.push((ports[k - 1], vec![RefreshSrc::New(k - 2)]));
            push_refresh(
                subject,
                format!("refresh-ring(b{g})"),
                format!(
                    "chain {} fresh masks across all {k} shares of output bit {g}",
                    k - 1
                ),
                k - 1,
                &assigns,
                out,
            );
        }
        // affine-remap: re-use the last declared fresh input as the
        // refresh operand — zero new randomness. Sound here because a
        // flagged group's cone union holds *no* fresh bit, so the reused
        // one is independent of everything the group computes.
        let existing_fresh = subject
            .roles()
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, InputRole::Fresh))
            .map(|(i, _)| i)
            .next_back();
        if let Some(pos) = existing_fresh {
            let net = subject.netlist().inputs()[pos].index();
            push_refresh(
                subject,
                format!("affine-remap(b{g})"),
                format!(
                    "remap shares 0 and 1 of output bit {g} by the existing fresh input '{}'",
                    input_name(subject.netlist(), pos)
                ),
                0,
                &[
                    (ports[0], vec![RefreshSrc::Existing(net)]),
                    (ports[1], vec![RefreshSrc::Existing(net)]),
                ],
                out,
            );
        }
    }
}

fn input_name(netlist: &Netlist, pos: usize) -> String {
    let net = netlist.inputs()[pos];
    match netlist.net(net).name() {
        Some(n) => n.to_string(),
        None => format!("in{pos}"),
    }
}

/// Build a refresh patch: clone the base netlist id-stably, append
/// `fresh_count` fresh inputs, and XOR the listed sources into each listed
/// output port. Pushes the patch, or a note on failure.
fn push_refresh(
    subject: &Subject,
    name: String,
    description: String,
    fresh_count: usize,
    assigns: &[(usize, Vec<RefreshSrc>)],
    out: &mut GeneratedPatches,
) {
    match build_refresh(subject, &name, description, fresh_count, assigns) {
        Ok(p) => out.patches.push(p),
        Err(e) => out.notes.push(format!("{name}: {e}")),
    }
}

fn build_refresh(
    subject: &Subject,
    name: &str,
    description: String,
    fresh_count: usize,
    assigns: &[(usize, Vec<RefreshSrc>)],
) -> Result<Patch, String> {
    let base = subject.netlist();
    let (mut b, map) = clone_netlist(base)?;
    let base_inputs = base.num_inputs();
    let fresh: Vec<NetId> = (0..fresh_count)
        .map(|i| b.input(format!("fix_r{}", base_inputs + i)))
        .collect();
    let base_gates = base.gates().len();
    // Per-port redirect of the emitted output net.
    let mut redirect: Vec<Option<NetId>> = vec![None; base.num_outputs()];
    for (port, srcs) in assigns {
        let old = base
            .outputs()
            .get(*port)
            .ok_or_else(|| format!("output port {port} out of range"))?
            .1;
        let mut cur = map[old.index()].ok_or("output net unmapped")?;
        for src in srcs {
            let operand = match src {
                RefreshSrc::New(i) => *fresh.get(*i).ok_or("fresh operand out of range")?,
                RefreshSrc::Existing(n) => map
                    .get(*n)
                    .copied()
                    .flatten()
                    .ok_or("existing operand unmapped")?,
            };
            cur = b.xor(cur, operand);
        }
        redirect[*port] = Some(cur);
    }
    for (port, (pname, net)) in base.outputs().iter().enumerate() {
        let dst = match redirect[port] {
            Some(n) => n,
            None => map[net.index()].ok_or("output net unmapped")?,
        };
        b.output(pname.clone(), dst);
    }
    let patched = b.finish().map_err(|e| e.to_string())?;
    let added_gates = patched.gates().len() - base_gates;
    let cost_fj = (base_gates..patched.gates().len())
        .map(|g| energy_weight(&patched, g))
        .sum::<f64>()
        + FRESH_COST_FJ * fresh_count as f64;
    let mut roles = subject.roles().to_vec();
    roles.extend(std::iter::repeat_n(InputRole::Fresh, fresh_count));
    let mut cand = Subject::with_roles(
        subject.label(),
        patched,
        roles,
        subject.output_groups().to_vec(),
    )?;
    copy_barriers(subject, &mut cand);
    Ok(Patch {
        name: name.to_string(),
        description,
        added_gates,
        added_inputs: fresh_count,
        cost_fj,
        subject: cand,
    })
}

/// Re-emit the base netlist with identical ids: inputs in port order,
/// gates in id order (creation order, topological for every netlist this
/// workspace builds or imports). Returns the builder mid-flight plus the
/// old-net-index → new-net-id map, so callers can append patch structure
/// before emitting outputs.
fn clone_netlist(base: &Netlist) -> Result<(NetlistBuilder, Vec<Option<NetId>>), String> {
    let mut b = NetlistBuilder::new(base.name());
    let mut map: Vec<Option<NetId>> = vec![None; base.nets().len()];
    for (i, &net) in base.inputs().iter().enumerate() {
        let name = match base.net(net).name() {
            Some(n) => n.to_string(),
            None => format!("in{i}"),
        };
        map[net.index()] = Some(b.input(name));
    }
    for (g, gate) in base.gates().iter().enumerate() {
        let pins: Result<Vec<NetId>, String> = gate
            .inputs()
            .iter()
            .map(|n| map[n.index()].ok_or_else(|| format!("gate {g}: pin drawn from a later net")))
            .collect();
        let out = b.gate(gate.cell(), &pins?);
        map[gate.output().index()] = Some(out);
    }
    Ok((b, map))
}

fn copy_barriers(base: &Subject, cand: &mut Subject) {
    for g in 0..base.netlist().gates().len() {
        if base.is_barrier(g) {
            cand.mark_barrier(g);
        }
    }
}

/// Witness gate anchors of a rule, strongest-first, capped.
fn anchors(analysis: &Analysis, rule: RuleId, out: &mut GeneratedPatches) -> Vec<usize> {
    let all: Vec<usize> = analysis
        .of_rule(rule)
        .iter()
        .filter_map(|d| d.location.gate)
        .collect();
    let mut seen = BTreeSet::new();
    let mut kept = Vec::new();
    for g in all {
        if seen.insert(g) {
            kept.push(g);
        }
    }
    if kept.len() > MAX_ANCHORS_PER_RULE {
        out.notes.push(format!(
            "{}: {} anchors, expanding strongest {MAX_ANCHORS_PER_RULE}",
            rule.code(),
            kept.len()
        ));
        kept.truncate(MAX_ANCHORS_PER_RULE);
    }
    kept
}

fn generate_xor_rotations(subject: &Subject, analysis: &Analysis, out: &mut GeneratedPatches) {
    let mut sites = anchors(analysis, RuleId::ValueBias, out);
    for g in anchors(analysis, RuleId::GlitchLocal, out) {
        if !sites.contains(&g) {
            sites.push(g);
        }
    }
    for g in sites {
        match xor_rotate_variants(subject, g) {
            Ok(patches) => out.patches.extend(patches),
            Err(e) => out.notes.push(format!("xor-rotate(g{g}): {e}")),
        }
    }
}

/// Re-associate the XOR chain `v = (x ⊕ y) ⊕ z` through the anchor gate
/// `u = x ⊕ y`: variant A computes `(x ⊕ z) ⊕ y`, variant B
/// `(y ⊕ z) ⊕ x`. The anchor's output must feed exactly one gate and no
/// primary output, so the chain value — and the netlist function — is
/// preserved while the intermediate distribution changes.
fn xor_rotate_variants(subject: &Subject, g: usize) -> Result<Vec<Patch>, String> {
    let netlist = subject.netlist();
    let gate = netlist
        .gates()
        .get(g)
        .ok_or_else(|| format!("gate {g} out of range"))?;
    if gate.cell() != CellType::Xor2 {
        return Err(format!("anchor is {}, not XOR2", gate.cell().mnemonic()));
    }
    let out_net = gate.output();
    if netlist.outputs().iter().any(|(_, n)| *n == out_net) {
        return Err("anchor drives a primary output".to_string());
    }
    let loads = netlist.loads(out_net);
    if loads.len() != 1 {
        return Err(format!("anchor output has {} loads, need 1", loads.len()));
    }
    let c_id = loads[0];
    let consumer = netlist.gate(c_id);
    if consumer.cell() != CellType::Xor2 {
        return Err(format!(
            "consumer is {}, not XOR2",
            consumer.cell().mnemonic()
        ));
    }
    let z_pin = consumer
        .inputs()
        .iter()
        .position(|&n| n != out_net)
        .ok_or("consumer reads the anchor on both pins")?;
    let z = consumer.inputs()[z_pin];
    let g_id = netlist
        .net(out_net)
        .driver()
        .ok_or("anchor output has no driver")?;
    let (x, y) = (gate.inputs()[0], gate.inputs()[1]);

    let mut patches = Vec::new();
    for (variant, anchor_pin, displaced) in [("A", 1usize, y), ("B", 0usize, x)] {
        if z == displaced {
            // Rotating z into the place it already occupies is the
            // identity; skip silently.
            continue;
        }
        let step1 = match transform::rewire_input(netlist, g_id, anchor_pin, z) {
            Ok(n) => n,
            // z is driven downstream of the anchor: rotating it in would
            // create a cycle. Not an error, just an infeasible variant.
            Err(_) => continue,
        };
        let rotated =
            transform::rewire_input(&step1, c_id, z_pin, displaced).map_err(|e| e.to_string())?;
        let mut cand = Subject::with_roles(
            subject.label(),
            rotated,
            subject.roles().to_vec(),
            subject.output_groups().to_vec(),
        )?;
        copy_barriers(subject, &mut cand);
        patches.push(Patch {
            name: format!("xor-rotate(g{g},{variant})"),
            description: format!(
                "re-associate the XOR chain through gate {g} (variant {variant}): rotate operand '{}' into the anchor",
                net_label(netlist, z)
            ),
            added_gates: 0,
            added_inputs: 0,
            cost_fj: 0.0,
            subject: cand,
        });
    }
    Ok(patches)
}

fn net_label(netlist: &Netlist, net: NetId) -> String {
    match netlist.net(net).name() {
        Some(n) => n.to_string(),
        None => format!("net{}", net.index()),
    }
}

fn generate_barriers(subject: &Subject, analysis: &Analysis, out: &mut GeneratedPatches) {
    for g in anchors(analysis, RuleId::GlitchLocal, out) {
        if subject.is_barrier(g) {
            out.notes
                .push(format!("barrier(g{g}): gate is already a barrier"));
            continue;
        }
        let mut cand = subject.clone();
        cand.mark_barrier(g);
        out.patches.push(Patch {
            name: format!("barrier(g{g})"),
            description: format!(
                "register gate {g}'s output (synchronization barrier): its race window no longer reaches a probe"
            ),
            added_gates: 0,
            added_inputs: 0,
            cost_fj: BARRIER_COST_FJ,
            subject: cand,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::{SboxCircuit, Scheme};
    use sca_verify::analyze_subject;

    #[test]
    fn ti_generates_boundary_refreshes_with_stable_ids() {
        let subject = Subject::of_circuit(&SboxCircuit::build(Scheme::Ti));
        let analysis = analyze_subject(&subject);
        let gen = generate(&subject, &analysis);
        assert!(gen.patches.iter().any(|p| p.name == "refresh-shared"));
        assert!(gen
            .patches
            .iter()
            .any(|p| p.name.starts_with("refresh-group")));
        for p in &gen.patches {
            let base = subject.netlist();
            let cand = p.subject.netlist();
            // Id stability: every base gate survives at its own index.
            for (g, bg) in base.gates().iter().enumerate() {
                assert_eq!(cand.gates()[g].cell(), bg.cell(), "{}", p.name);
            }
            assert_eq!(p.added_gates, cand.gates().len() - base.gates().len());
            assert!(p.cost_fj > 0.0, "{} should cost energy", p.name);
        }
    }

    #[test]
    fn refresh_preserves_the_recombined_function() {
        let circuit = SboxCircuit::build(Scheme::Ti);
        let subject = Subject::of_circuit(&circuit);
        let analysis = analyze_subject(&subject);
        let gen = generate(&subject, &analysis);
        let patch = gen
            .patches
            .iter()
            .find(|p| p.name == "refresh-shared")
            .expect("TI flags all four boundary groups");
        for t in 0..16u64 {
            let mask = (t * 0x9e37) & ((1 << subject.mask_bits()) - 1);
            let extra = t & 1;
            let base_out = subject.netlist().evaluate(&subject.encode(t, mask));
            let cand_mask = mask | extra << subject.mask_bits();
            let cand_out = patch
                .subject
                .netlist()
                .evaluate(&patch.subject.encode(t, cand_mask));
            for (g, ports) in subject.output_groups().iter().enumerate() {
                let xor = |vals: &[bool]| ports.iter().fold(false, |a, &p| a ^ vals[p]);
                assert_eq!(xor(&base_out), xor(&cand_out), "t={t} group {g}");
            }
        }
    }
}
