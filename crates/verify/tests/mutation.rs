//! Mutation tests: graft known masking defects onto the (provably clean)
//! ISW netlist via `sbox_netlist::transform` and assert the analyzer
//! names the exact injected gate — the analyzer's detection power, not
//! just its silence on good circuits.

use sbox_circuits::{SboxCircuit, Scheme};
use sbox_netlist::transform;
use sca_verify::{analyze, RuleId};

/// The clean baseline: ISW passes first-order glitch-extended probing
/// and triggers none of the defect rules.
#[test]
fn clean_isw_passes_first_order_glitch_extended_probing() {
    let analysis = analyze(&SboxCircuit::build(Scheme::Isw));
    assert!(analysis.verdicts.value_first_order);
    assert!(analysis.verdicts.glitch_local);
    assert!(analysis.verdicts.gx_boundary);
    assert!(analysis.verdicts.glitch_first_order());
    assert_eq!(analysis.count(RuleId::ValueBias), 0);
    assert_eq!(analysis.count(RuleId::GlitchLocal), 0);
    assert_eq!(analysis.count(RuleId::SdReuse), 0);
    assert_eq!(analysis.count(RuleId::GxBoundary), 0);
    // Two conservative SD-RECOMB warnings are expected: partial products
    // whose share-1 operand is a linear combination (m1^m2), so the
    // *cone* spans both shares of bit 2. The exact distribution checks
    // above discharge them as non-exploitable at first order — which is
    // why SD-RECOMB is a warning, not a verdict.
    assert_eq!(analysis.count(RuleId::SdRecomb), 2);
    // The cross-domain products of the ISW gadgets are *advisory* — they
    // exist by construction and are refreshed downstream.
    assert!(analysis.count(RuleId::SdCross) > 0);
}

/// Defect 1 — refresh-mask reuse: point one gadget's refresh XOR at an
/// already-spent mask bit. The reused bit then exceeds its single
/// masking duty and SD-REUSE must name the rewired gate.
#[test]
fn reused_refresh_mask_is_reported_at_the_rewired_gate() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let netlist = circuit.netlist();
    // ISW inputs: xa0..3, m0..3, r0..3 — r0 at position 8, r2 at 10.
    let r0 = netlist.inputs()[8];
    let r2 = netlist.inputs()[10];
    // Take an XOR gate consuming r2 and redirect its refresh pin to r0.
    let (victim, pin) = netlist
        .loads(r2)
        .iter()
        .find_map(|&g| {
            let gate = netlist.gate(g);
            (gate.cell().family() == "XOR")
                .then(|| gate.inputs().iter().position(|&n| n == r2).map(|p| (g, p)))
                .flatten()
        })
        .expect("ISW has XOR loads on every refresh bit");
    let mutant = transform::rewire_input(netlist, victim, pin, r0).expect("legal rewire");
    let analysis = analyze(&SboxCircuit::from_parts(Scheme::Isw, mutant));

    let reuse = analysis.of_rule(RuleId::SdReuse);
    assert!(!reuse.is_empty(), "reuse must be detected");
    // Every implicated diagnostic points at r0, and the rewired gate is
    // among the named gates.
    assert!(reuse.iter().all(|d| d.witness == ["r0"]));
    let named: Vec<usize> = reuse.iter().filter_map(|d| d.location.gate).collect();
    assert!(
        named.contains(&victim.index()),
        "rewired gate {} missing from {named:?}",
        victim.index()
    );
}

/// Defect 2 — share recombination: one AND over both shares of input
/// bit 0. Every layer of the analyzer must converge on the injected
/// gate: its settled value is biased, its fan-in joint is transient-
/// leaky, and its cone recombines a full sharing without randomness.
#[test]
fn recombining_and_gate_is_reported_by_every_layer() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let netlist = circuit.netlist();
    let xa0 = netlist.inputs()[0];
    let m0 = netlist.inputs()[4];
    let (mutant, injected) =
        transform::observe_product(netlist, xa0, m0, "probe_recomb").expect("legal probe");
    let baseline = analyze(&SboxCircuit::build(Scheme::Isw));
    let analysis = analyze(&SboxCircuit::from_instrumented(Scheme::Isw, mutant));

    // Per rule, the mutant's findings minus the clean baseline's must be
    // exactly the injected gate — the analyzer names the defect, no
    // more, no less.
    for rule in [RuleId::ValueBias, RuleId::GlitchLocal, RuleId::SdRecomb] {
        let before: Vec<Option<usize>> = baseline
            .of_rule(rule)
            .iter()
            .map(|d| d.location.gate)
            .collect();
        let fresh: Vec<Option<usize>> = analysis
            .of_rule(rule)
            .iter()
            .map(|d| d.location.gate)
            .filter(|g| !before.contains(g))
            .collect();
        assert_eq!(
            fresh,
            vec![Some(injected.index())],
            "{} must name exactly the injected gate",
            rule.code()
        );
    }
    // AND(xa0, m0) = m0 ∧ ¬t0: mean 0.5 for t0 = 0, 0 for t0 = 1.
    let value = analysis.of_rule(RuleId::ValueBias)[0];
    assert!(
        (value.measure - 0.5).abs() < 1e-12,
        "bias {}",
        value.measure
    );
    // The race-window tuple (xa0, m0) identifies t0 exactly.
    let local = analysis.of_rule(RuleId::GlitchLocal)[0];
    assert!(
        (local.measure - 1.0).abs() < 1e-12,
        "bias {}",
        local.measure
    );
    // The verdicts flip from the clean baseline.
    assert!(!analysis.verdicts.value_first_order);
    assert!(!analysis.verdicts.glitch_first_order());
}

/// Defect 3 — Hamming-distance leakage under a held mask: an AND over
/// the share-0 encodings of two *different* secret bits. Its settled
/// value is Bernoulli(1/4) in every class and its fan-in joint is
/// uniform, so the settled-value layers stay silent — but between class
/// pairs its flip rate swings from 0 (neither bit changed) to 1/2,
/// which only TRANSITION-HD sees. The diff against the clean baseline
/// must name exactly the injected gate.
#[test]
fn held_mask_transition_leak_is_named_only_by_transition_hd() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let netlist = circuit.netlist();
    let xa0 = netlist.inputs()[0];
    let xa1 = netlist.inputs()[1];
    let (mutant, injected) =
        transform::observe_product(netlist, xa0, xa1, "probe_hd").expect("legal probe");
    let baseline = analyze(&SboxCircuit::build(Scheme::Isw));
    let analysis = analyze(&SboxCircuit::from_instrumented(Scheme::Isw, mutant));

    let before: Vec<Option<usize>> = baseline
        .of_rule(RuleId::TransitionHd)
        .iter()
        .map(|d| d.location.gate)
        .collect();
    let fresh: Vec<&sca_verify::Diagnostic> = analysis
        .of_rule(RuleId::TransitionHd)
        .into_iter()
        .filter(|d| !before.contains(&d.location.gate))
        .collect();
    assert_eq!(
        fresh.iter().map(|d| d.location.gate).collect::<Vec<_>>(),
        vec![Some(injected.index())],
        "TRANSITION-HD must name exactly the injected gate"
    );
    // xa0 ∧ xa1 flips with probability 1/2 against class 0 whenever a
    // changed secret bit feeds it, and never when none does.
    assert!(
        (fresh[0].measure - 0.5).abs() < 1e-12,
        "spread {}",
        fresh[0].measure
    );
    // The settled-value layers gained nothing: the defect is invisible
    // to every pre-existing rule.
    for rule in [RuleId::ValueBias, RuleId::GlitchLocal] {
        assert_eq!(
            analysis.count(rule),
            baseline.count(rule),
            "{} must not react to the HD probe",
            rule.code()
        );
    }
}

/// Build the 3-share boundary toy for the SHARE-UNIFORM defect: a
/// single secret bit shared as `a0 ⊕ a1 ⊕ a2`, one fresh bit `u`, and —
/// when `defective` — the biased product `a0 ∧ u` XOR-folded into output
/// shares 0 and 2. The fold cancels in the group XOR (the function is
/// preserved) and every net's per-class mean is class-independent, yet
/// the joint share distribution collapses: patterns where the product
/// fires are remapped onto their neighbours, skewing the coset masses
/// to (3/8, 3/8, 1/8, 1/8).
fn boundary_toy(defective: bool) -> sca_verify::Subject {
    use sbox_circuits::InputRole;
    let mut b = sbox_netlist::NetlistBuilder::new(if defective {
        "toy_skewed"
    } else {
        "toy_uniform"
    });
    let a0 = b.input("a0");
    let a1 = b.input("a1");
    let a2 = b.input("a2");
    let u = b.input("u");
    // The control folds the fresh bit itself into shares 0 and 2 — the
    // same shape, but an unbiased shift keeps the coset uniform. The
    // defect replaces it with the biased product `a0 ∧ u`.
    let d = if defective { b.and(&[a0, u]) } else { u };
    let (y0, y2) = (b.xor(a0, d), b.xor(a2, d));
    let y1 = b.buf(a1);
    b.output("y0", y0);
    b.output("y1", y1);
    b.output("y2", y2);
    sca_verify::Subject::with_roles(
        if defective {
            "toy-skewed"
        } else {
            "toy-uniform"
        },
        b.finish().expect("valid toy"),
        vec![
            InputRole::Share { bit: 0, share: 0 },
            InputRole::Share { bit: 0, share: 1 },
            InputRole::Share { bit: 0, share: 2 },
            InputRole::Fresh,
        ],
        vec![vec![0, 1, 2]],
    )
    .expect("contract well-formed")
}

/// Defect 4 — boundary non-uniformity with clean marginals: only
/// SHARE-UNIFORM can see it. Every net is class-balanced (no
/// VALUE-BIAS), every fan-in joint is class-constant (no GLITCH-LOCAL),
/// the cones never recombine all three shares and the boundary carries
/// fresh randomness — yet the output share group is skewed within its
/// parity coset, exactly the non-uniformity that breaks composable
/// masking proofs.
#[test]
fn skewed_share_group_is_named_only_by_share_uniform() {
    let clean = sca_verify::analyze_subject(&boundary_toy(false));
    assert_eq!(clean.count(RuleId::ShareUniform), 0);
    assert_eq!(clean.error_count(), 0);

    let analysis = sca_verify::analyze_subject(&boundary_toy(true));
    let findings = analysis.of_rule(RuleId::ShareUniform);
    assert_eq!(findings.len(), 1, "exactly the one skewed group");
    let d = findings[0];
    // The diagnostic anchors at the group's first share and lists the
    // whole group as witness.
    assert_eq!(d.witness, ["y0", "y1", "y2"]);
    // Coset masses (3/8, 3/8, 1/8, 1/8) against the uniform 1/4 ideal:
    // total variation exactly 1/4.
    assert!((d.measure - 0.25).abs() < 1e-12, "tv {}", d.measure);
    // And nothing else reacts: the defect is invisible to every
    // Error-severity rule.
    assert_eq!(analysis.error_count(), 0);
    assert_eq!(analysis.count(RuleId::ValueBias), 0);
    assert_eq!(analysis.count(RuleId::GlitchLocal), 0);
    assert_eq!(analysis.count(RuleId::SdRecomb), 0);
    assert!(analysis.verdicts.value_first_order);
    assert!(analysis.verdicts.glitch_first_order());
}

/// The two mutants leave untouched gates undisturbed: ids are preserved,
/// so the diagnostics map one-to-one onto the original netlist.
#[test]
fn mutants_preserve_gate_ids() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let netlist = circuit.netlist();
    let (mutant, injected) =
        transform::observe_product(netlist, netlist.inputs()[0], netlist.inputs()[4], "probe")
            .expect("legal probe");
    assert_eq!(mutant.gates().len(), netlist.gates().len() + 1);
    assert_eq!(injected.index(), netlist.gates().len());
    for (old, new) in netlist.gates().iter().zip(mutant.gates()) {
        assert_eq!(old.cell(), new.cell());
    }
}
