//! The analysis pipeline: packed sweep → taint → rules → verdicts.
//!
//! [`analyze_subject`] is the generic entry point: any [`Subject`]
//! (native scheme, frontend import, repair candidate) runs through the
//! same catalogue. [`analyze`] is the historical wrapper for the seven
//! hand-built schemes. The pipeline is factored into *statistics*
//! ([`SubjectStats`], computed by the packed engine or copied forward by
//! [`crate::incremental`]) and *diagnosis* ([`finish_analysis`], pure in
//! the statistics) so the incremental re-analyzer provably produces the
//! same reports as a from-scratch run.

use sbox_circuits::{InputRole, SboxCircuit};
use sbox_netlist::{cone, NetId, Netlist};

use crate::packed::PackedSweep;
use crate::rules::{Diagnostic, Location, RuleId};
use crate::score::{self, Scores};
use crate::subject::{Depth, Subject};
use crate::taint::{share_union, ShareSet, TaintMap, MAX_SHARES};

/// Distributions closer than this to class-independent count as exact
/// (the sweeps are exhaustive, so true zeros are zeros up to rounding).
pub const BIAS_EPS: f64 = 1e-9;

/// How many XOR-family loads one fresh refresh mask legitimately has: the
/// ISW gadget inserts each `r` into exactly two cross-domain partial
/// products. More loads mean the mask serves two masters and can cancel.
pub const FRESH_FANOUT_LIMIT: usize = 2;

/// Pass/fail verdicts of one scheme under the three probe models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    /// No driven net has a class-dependent settled value.
    pub value_first_order: bool,
    /// No gate has a class-dependent fan-in joint distribution.
    pub glitch_local: bool,
    /// No output bit's share cones jointly uncover a secret without
    /// fresh randomness.
    pub gx_boundary: bool,
}

impl Verdicts {
    /// Secure against first-order glitch-extended probes: both the local
    /// race-window model and the boundary composition rule are clean.
    pub fn glitch_first_order(&self) -> bool {
        self.glitch_local && self.gx_boundary
    }
}

/// The per-entity distribution statistics the enumeration-backed rules
/// consume. One slot per net / gate / output group; all zeros at
/// [`Depth::Structural`], where those rules stay silent.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectStats {
    /// Per-net settled-value bias ([`PackedSweep::net_value_bias_one`]).
    pub net_value_bias: Vec<f64>,
    /// Per-net held-mask transition bias
    /// ([`PackedSweep::net_transition_bias_one`]).
    pub net_transition_bias: Vec<f64>,
    /// Per-gate fan-in joint (transient) bias.
    pub gate_joint_bias: Vec<f64>,
    /// Per-gate fan-in class-variance mass (the score input).
    pub gate_class_variance: Vec<f64>,
    /// Per-output-group conditional non-uniformity.
    pub group_uniformity: Vec<f64>,
}

impl SubjectStats {
    /// All-zero statistics for a structural-depth subject.
    pub fn zeros(subject: &Subject) -> Self {
        let netlist = subject.netlist();
        Self {
            net_value_bias: vec![0.0; netlist.nets().len()],
            net_transition_bias: vec![0.0; netlist.nets().len()],
            gate_joint_bias: vec![0.0; netlist.gates().len()],
            gate_class_variance: vec![0.0; netlist.gates().len()],
            group_uniformity: vec![0.0; subject.output_groups().len()],
        }
    }

    /// Compute every statistic from a finished packed sweep.
    pub fn compute(subject: &Subject, sweep: &PackedSweep) -> Self {
        let netlist = subject.netlist();
        let net_value_bias: Vec<f64> = (0..netlist.nets().len())
            .map(|n| sweep.net_value_bias_one(n))
            .collect();
        let net_transition_bias: Vec<f64> = (0..netlist.nets().len())
            .map(|n| sweep.net_transition_bias_one(n, subject.net_is_barriered(n)))
            .collect();
        let mut gate_joint_bias = vec![0.0; netlist.gates().len()];
        let mut gate_class_variance = vec![0.0; netlist.gates().len()];
        for (g, gate) in netlist.gates().iter().enumerate() {
            if subject.is_barrier(g) {
                // Barriers do not glitch: their output follows a
                // registered/precharged update, not a race window.
                continue;
            }
            let pins: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
            let stale: Vec<bool> = pins.iter().map(|&n| subject.net_is_barriered(n)).collect();
            gate_joint_bias[g] = sweep.gate_joint_bias_one(&pins, &stale);
            gate_class_variance[g] = sweep.gate_class_variance_one(&pins, &stale);
        }
        let group_uniformity = (0..subject.output_groups().len())
            .map(|g| group_uniformity_stat(subject, sweep, g))
            .collect();
        Self {
            net_value_bias,
            net_transition_bias,
            gate_joint_bias,
            gate_class_variance,
            group_uniformity,
        }
    }
}

/// The SHARE-UNIFORM statistic of one output group (0 when the group is
/// out of the rule's scope: fewer than two shares, no mask space, or
/// more than four ports).
pub fn group_uniformity_stat(subject: &Subject, sweep: &PackedSweep, group: usize) -> f64 {
    let ports = &subject.output_groups()[group];
    if subject.shares_per_bit() < 2 || sweep.mask_count() == 1 {
        return 0.0;
    }
    let nets: Vec<usize> = ports
        .iter()
        .map(|&p| subject.netlist().outputs()[p].1.index())
        .collect();
    sweep.group_uniformity_one(&nets)
}

/// Full analysis result for one subject.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Subject label (scheme label for native circuits).
    pub label: String,
    /// Netlist name.
    pub netlist_name: String,
    /// Gate count.
    pub gates: usize,
    /// Net count.
    pub nets: usize,
    /// Mask-space width enumerated (bits).
    pub mask_bits: usize,
    /// Whether the enumeration rules ran or only the structural passes.
    pub depth: Depth,
    /// All findings, grouped by rule in [`RuleId::ALL`] order and sorted
    /// strongest-first within each rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-net settled-value bias.
    pub net_value_bias: Vec<f64>,
    /// Per-gate fan-in joint (transient) bias.
    pub gate_joint_bias: Vec<f64>,
    /// Scheme verdicts.
    pub verdicts: Verdicts,
    /// Static leakage scores.
    pub scores: Scores,
}

impl Analysis {
    /// The diagnostics of one rule, strongest first.
    pub fn of_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Number of findings of one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// The strongest measure of one rule, or 0 if the rule is silent.
    pub fn max_measure(&self, rule: RuleId) -> f64 {
        self.diagnostics
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.measure)
            .fold(0.0, f64::max)
    }

    /// Number of Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == crate::rules::Severity::Error)
            .count()
    }
}

fn net_name_at(netlist: &Netlist, index: usize) -> String {
    match netlist.nets()[index].name() {
        Some(n) => n.to_string(),
        None => format!("net{index}"),
    }
}

fn net_name(netlist: &Netlist, net: NetId) -> String {
    net_name_at(netlist, net.index())
}

fn gate_location(netlist: &Netlist, gate: usize) -> Location {
    let g = &netlist.gates()[gate];
    Location {
        gate: Some(gate),
        cell: Some(g.cell().mnemonic()),
        net: g.output().index(),
        net_name: net_name(netlist, g.output()),
    }
}

fn sort_group(group: &mut [Diagnostic]) {
    group.sort_by(|a, b| {
        b.measure
            .total_cmp(&a.measure)
            .then(a.location.gate.cmp(&b.location.gate))
            .then(a.location.net.cmp(&b.location.net))
    });
}

/// Run the full static analysis on one native scheme circuit.
///
/// # Panics
///
/// Panics if the mask space exceeds 16 bits (enumeration bound) or the
/// netlist's ports do not match the encoding.
pub fn analyze(circuit: &SboxCircuit) -> Analysis {
    analyze_subject(&Subject::of_circuit(circuit))
}

/// Run the full static analysis on any subject, at the depth its size
/// affords.
pub fn analyze_subject(subject: &Subject) -> Analysis {
    let depth = subject.depth();
    let stats = match depth {
        Depth::Exhaustive => {
            let sweep = PackedSweep::run(subject);
            SubjectStats::compute(subject, &sweep)
        }
        Depth::Structural => SubjectStats::zeros(subject),
    };
    finish_analysis(subject, depth, &stats)
}

/// Turn precomputed statistics into the final diagnosed [`Analysis`].
/// Pure in its inputs: the incremental re-analyzer reuses it so an
/// incremental run and a from-scratch run go through one code path.
pub fn finish_analysis(subject: &Subject, depth: Depth, stats: &SubjectStats) -> Analysis {
    let netlist = subject.netlist();
    let taint = TaintMap::build(subject);
    let secret_bits = subject.secret_bits();

    let mut diagnostics = Vec::new();

    // VALUE-BIAS: settled-value leakage on driven nets.
    let mut group = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        let bias = stats.net_value_bias[i];
        if net.driver().is_some() && bias > BIAS_EPS {
            group.push(Diagnostic {
                rule: RuleId::ValueBias,
                severity: RuleId::ValueBias.severity(),
                location: Location {
                    gate: net.driver().map(|g| g.index()),
                    cell: net.driver().map(|g| netlist.gate(g).cell().mnemonic()),
                    net: i,
                    net_name: net_name_at(netlist, i),
                },
                measure: bias,
                witness: vec![net_name_at(netlist, i)],
                message: format!("mean settled value shifts by {bias:.3} across classes"),
            });
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // GLITCH-LOCAL: race-window joint-distribution leakage.
    let mut group = Vec::new();
    for g in 0..netlist.gates().len() {
        let bias = stats.gate_joint_bias[g];
        if bias > BIAS_EPS {
            group.push(Diagnostic {
                rule: RuleId::GlitchLocal,
                severity: RuleId::GlitchLocal.severity(),
                location: gate_location(netlist, g),
                measure: bias,
                witness: netlist.gates()[g]
                    .inputs()
                    .iter()
                    .map(|&n| net_name(netlist, n))
                    .collect(),
                message: format!(
                    "fan-in joint distribution shifts by {bias:.3} (total variation) across classes"
                ),
            });
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // TRANSITION-HD: class-dependent flip rate under a held mask.
    let mut group = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
        let bias = stats.net_transition_bias[i];
        if net.driver().is_some() && bias > BIAS_EPS {
            let model = if subject.net_is_barriered(i) {
                "precharge"
            } else {
                "held-mask"
            };
            group.push(Diagnostic {
                rule: RuleId::TransitionHd,
                severity: RuleId::TransitionHd.severity(),
                location: Location {
                    gate: net.driver().map(|g| g.index()),
                    cell: net.driver().map(|g| netlist.gate(g).cell().mnemonic()),
                    net: i,
                    net_name: net_name_at(netlist, i),
                },
                measure: bias,
                witness: vec![net_name_at(netlist, i)],
                message: format!(
                    "transition rate spreads by {bias:.3} across class pairs ({model} model)"
                ),
            });
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // SD-RECOMB: complete share recombination without randomness.
    // Trivial (and silent) for unprotected schemes: with one share per
    // bit there is nothing to recombine — value probing already covers
    // them.
    let mut group = Vec::new();
    if subject.shares_per_bit() >= 2 {
        for (g, gate) in netlist.gates().iter().enumerate() {
            let out = gate.output();
            let covered = taint.fully_covered_bits(taint.shares(out));
            if covered != 0 && taint.fresh(out) == 0 {
                group.push(Diagnostic {
                    rule: RuleId::SdRecomb,
                    severity: RuleId::SdRecomb.severity(),
                    location: gate_location(netlist, g),
                    measure: f64::from(covered.count_ones()) / secret_bits as f64,
                    witness: vec![net_name(netlist, out)],
                    message: format!(
                        "glitch-extended cone holds every share of input bit(s) {} and no fresh randomness",
                        bit_list(covered)
                    ),
                });
            }
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // SD-REUSE: a fresh mask with more XOR-family loads than one refresh
    // duty explains. One diagnostic per implicated load gate, so a
    // mutation that rewires a refresh names the exact gates involved.
    let mut group = Vec::new();
    for (pos, role) in subject.roles().iter().enumerate() {
        if !matches!(role, InputRole::Fresh) {
            continue;
        }
        let net = netlist.inputs()[pos];
        let xor_loads: Vec<usize> = netlist
            .loads(net)
            .iter()
            .map(|&g| g.index())
            .filter(|&g| matches!(netlist.gates()[g].cell().family(), "XOR" | "XNOR"))
            .collect();
        if xor_loads.len() > FRESH_FANOUT_LIMIT {
            let excess = 1.0 - FRESH_FANOUT_LIMIT as f64 / xor_loads.len() as f64;
            for &g in &xor_loads {
                group.push(Diagnostic {
                    rule: RuleId::SdReuse,
                    severity: RuleId::SdReuse.severity(),
                    location: gate_location(netlist, g),
                    measure: excess,
                    witness: vec![net_name(netlist, net)],
                    message: format!(
                        "refresh mask '{}' has {} XOR loads (limit {}); reuse lets it cancel across domains",
                        net_name(netlist, net),
                        xor_loads.len(),
                        FRESH_FANOUT_LIMIT
                    ),
                });
            }
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // SD-CROSS (advisory): nonlinear cross-domain products.
    let mut group = Vec::new();
    if subject.shares_per_bit() >= 2 {
        for (g, gate) in netlist.gates().iter().enumerate() {
            if !matches!(gate.cell().family(), "AND" | "OR" | "NAND" | "NOR") {
                continue;
            }
            let pin_domains: Vec<u8> = gate
                .inputs()
                .iter()
                .map(|&n| taint.domains(n))
                .filter(|&d| d != 0)
                .collect();
            let union = pin_domains.iter().fold(0u8, |a, &d| a | d);
            let crosses = pin_domains.len() >= 2 && pin_domains.iter().any(|&d| d != union);
            if crosses {
                group.push(Diagnostic {
                    rule: RuleId::SdCross,
                    severity: RuleId::SdCross.severity(),
                    location: gate_location(netlist, g),
                    measure: f64::from(union.count_ones()) / MAX_SHARES as f64,
                    witness: gate.inputs().iter().map(|&n| net_name(netlist, n)).collect(),
                    message: format!(
                        "nonlinear product mixes share domains {{{}}}; sound only under a downstream refresh",
                        domain_list(union)
                    ),
                });
            }
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // SHARE-UNIFORM: output share groups must stay jointly uniform given
    // their recombined value.
    let mut group = Vec::new();
    for (bit, ports) in subject.output_groups().iter().enumerate() {
        let tv = stats.group_uniformity[bit];
        if tv > BIAS_EPS {
            let anchor = netlist.outputs()[ports[0]].1;
            group.push(Diagnostic {
                rule: RuleId::ShareUniform,
                severity: RuleId::ShareUniform.severity(),
                location: Location {
                    gate: netlist.nets()[anchor.index()].driver().map(|g| g.index()),
                    cell: netlist.nets()[anchor.index()]
                        .driver()
                        .map(|g| netlist.gate(g).cell().mnemonic()),
                    net: anchor.index(),
                    net_name: net_name(netlist, anchor),
                },
                measure: tv,
                witness: ports
                    .iter()
                    .map(|&p| netlist.outputs()[p].0.clone())
                    .collect(),
                message: format!(
                    "share group of output bit {bit} deviates from conditional uniformity by {tv:.3} (total variation)"
                ),
            });
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // GX-BOUNDARY: composition at the output share boundary.
    let mut group = Vec::new();
    let mut exposed_groups = Vec::new();
    for (bit, ports) in subject.output_groups().iter().enumerate() {
        let union_shares: ShareSet = ports
            .iter()
            .map(|&p| taint.shares(netlist.outputs()[p].1))
            .fold([0u64; MAX_SHARES], share_union);
        let union_fresh = ports
            .iter()
            .map(|&p| taint.fresh(netlist.outputs()[p].1))
            .fold(0u64, |a, f| a | f);
        let covered = taint.fully_covered_bits(union_shares);
        if covered != 0 && union_fresh == 0 {
            exposed_groups.push(ports.clone());
            let anchor = netlist.outputs()[ports[0]].1;
            group.push(Diagnostic {
                rule: RuleId::GxBoundary,
                severity: RuleId::GxBoundary.severity(),
                location: Location {
                    gate: netlist.nets()[anchor.index()].driver().map(|g| g.index()),
                    cell: netlist.nets()[anchor.index()]
                        .driver()
                        .map(|g| netlist.gate(g).cell().mnemonic()),
                    net: anchor.index(),
                    net_name: net_name(netlist, anchor),
                },
                measure: f64::from(covered.count_ones()) / secret_bits as f64,
                witness: ports
                    .iter()
                    .map(|&p| netlist.outputs()[p].0.clone())
                    .collect(),
                message: format!(
                    "share cones of output bit {bit} jointly hold every share of input bit(s) {} with no fresh randomness",
                    bit_list(covered)
                ),
            });
        }
    }
    sort_group(&mut group);
    diagnostics.append(&mut group);

    // Exposure: gates inside a flagged boundary group's union cone carry
    // the composition risk, graded by their own share coverage and by
    // the s−1 secret-correlated partial sums an s-share recombination
    // forms in its race window (zero for unprotected one-share schemes,
    // whose leakage the local term already saturates).
    let partial_joins = f64::from(subject.shares_per_bit() - 1);
    let mut exposure = vec![0.0f64; netlist.gates().len()];
    for ports in &exposed_groups {
        for &p in ports {
            for gid in cone::fanin_gates(netlist, netlist.outputs()[p].1) {
                let g = gid.index();
                let cov = taint.max_coverage(taint.shares(netlist.gates()[g].output()));
                exposure[g] = exposure[g].max(cov * partial_joins);
            }
        }
    }

    let verdicts = Verdicts {
        value_first_order: !diagnostics.iter().any(|d| d.rule == RuleId::ValueBias),
        glitch_local: !diagnostics.iter().any(|d| d.rule == RuleId::GlitchLocal),
        gx_boundary: !diagnostics.iter().any(|d| d.rule == RuleId::GxBoundary),
    };

    let scores = score::score(netlist, &stats.gate_class_variance, &exposure);

    Analysis {
        label: subject.label().to_string(),
        netlist_name: netlist.name().to_string(),
        gates: netlist.gates().len(),
        nets: netlist.nets().len(),
        mask_bits: subject.mask_bits(),
        depth,
        diagnostics,
        net_value_bias: stats.net_value_bias.clone(),
        gate_joint_bias: stats.gate_joint_bias.clone(),
        verdicts,
        scores,
    }
}

fn bit_list(bits: u64) -> String {
    let v: Vec<String> = (0..64)
        .filter(|&b| bits >> b & 1 == 1)
        .map(|b| b.to_string())
        .collect();
    v.join(",")
}

fn domain_list(domains: u8) -> String {
    let v: Vec<String> = (0..4)
        .filter(|&s| domains >> s & 1 == 1)
        .map(|s| s.to_string())
        .collect();
    v.join(",")
}
