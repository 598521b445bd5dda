//! Property test for the incremental re-analyzer: under random netlist
//! edits, `Baseline::reanalyze` must render a report byte-identical to a
//! from-scratch `analyze_subject` of the same candidate.
//!
//! The edit distribution mixes the three shapes the repair searcher
//! actually produces — pin rewires (`transform::rewire_input`), barrier
//! re-marks, and the generator's own candidate patches — so the
//! equivalence is checked on the inputs that matter, not a synthetic
//! corpus. The schemes span every lane-row width: RSM-ROM's 16 mask
//! words fill a quarter of one 64-lane word, ISW's 256 and TI's 4,096
//! fill whole words, and appended fresh inputs grow RSM-ROM's sub-word
//! rows past one word. Any divergence means the cone-invalidation logic
//! tiled a stale statistic over an edited region, which would silently
//! corrupt the repair search.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbox_leakage::circuits::{InputRole, SboxCircuit, Scheme};
use sbox_leakage::netlist::NetlistBuilder;
use sbox_leakage::repair::patch::generate;
use sbox_leakage::verify::{analyze_subject, report, Baseline, ReanalyzeEffort, RuleId, Subject};

/// Incremental and from-scratch reports must match byte-for-byte.
fn assert_equivalent(baseline: &Baseline, candidate: &Subject, what: &str) -> ReanalyzeEffort {
    let fresh = analyze_subject(candidate);
    let (incremental, effort) = baseline.reanalyze(candidate);
    assert_eq!(
        report::json(&fresh),
        report::json(&incremental),
        "{what}: incremental report diverged (effort {}/{} gates)",
        effort.dirty_gates,
        effort.total_gates
    );
    effort
}

fn random_rewires(scheme: Scheme, seed: u64, attempts: usize, accepted: usize) {
    let subject = Subject::of_circuit(&SboxCircuit::build(scheme));
    let baseline = Baseline::new(subject.clone());
    let netlist = subject.netlist();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Legal rewire sources: any primary input or gate output, referred
    // to by the `NetId`s the netlist itself hands out.
    let mut sources: Vec<_> = netlist.inputs().to_vec();
    sources.extend(netlist.gates().iter().map(|g| g.output()));
    let mut done = 0usize;
    for _ in 0..attempts {
        if done >= accepted {
            break;
        }
        let gi = rng.gen::<u64>() as usize % netlist.gates().len();
        let g = netlist.nets()[netlist.gates()[gi].output().index()]
            .driver()
            .expect("gate output has a driver");
        let gate = netlist.gate(g);
        let pin = rng.gen::<u64>() as usize % gate.inputs().len();
        let new_net = sources[rng.gen::<u64>() as usize % sources.len()];
        let Ok(mutant) = sbox_leakage::netlist::transform::rewire_input(netlist, g, pin, new_net)
        else {
            // Cycles and other illegal rewires are not candidates.
            continue;
        };
        let candidate = Subject::with_roles(
            subject.label(),
            mutant,
            subject.roles().to_vec(),
            subject.output_groups().to_vec(),
        )
        .expect("roles unchanged");
        assert_equivalent(
            &baseline,
            &candidate,
            &format!(
                "{scheme} rewire gate {} pin {pin} -> net {}",
                g.index(),
                new_net.index()
            ),
        );
        done += 1;
    }
    assert!(
        done >= accepted / 2,
        "{scheme}: too few legal rewires ({done})"
    );
}

fn random_barrier_marks(scheme: Scheme, seed: u64, count: usize) {
    let subject = Subject::of_circuit(&SboxCircuit::build(scheme));
    let baseline = Baseline::new(subject.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..count {
        let g = rng.gen::<u64>() as usize % subject.netlist().gates().len();
        let mut candidate = subject.clone();
        candidate.mark_barrier(g);
        assert_equivalent(
            &baseline,
            &candidate,
            &format!("{scheme} barrier at gate {g}"),
        );
    }
}

fn generator_patches(scheme: Scheme, cap: usize) {
    let subject = Subject::of_circuit(&SboxCircuit::build(scheme));
    let baseline = Baseline::new(subject.clone());
    let analysis = baseline.base_analysis();
    for patch in generate(baseline.subject(), &analysis)
        .patches
        .into_iter()
        .take(cap)
    {
        assert_equivalent(
            &baseline,
            &patch.subject,
            &format!("{scheme} patch {}", patch.name),
        );
    }
}

/// The subject with inputs of the given roles appended, appended input
/// `i` XORed into output port `i` (mod the port count) and, on an extra
/// output port, into base net `tap`. The base inputs and gates are
/// re-emitted in id order, so every base id is kept and the patch is
/// appended, the way the repair generator builds its refreshes.
fn with_appended(subject: &Subject, appended: &[InputRole], tap: usize) -> Subject {
    let netlist = subject.netlist();
    let mut b = NetlistBuilder::new(netlist.name());
    let mut map = vec![None; netlist.nets().len()];
    for &net in netlist.inputs() {
        let name = netlist.net(net).name().expect("named input");
        map[net.index()] = Some(b.input(name));
    }
    for gate in netlist.gates() {
        let pins: Vec<_> = gate
            .inputs()
            .iter()
            .map(|n| map[n.index()].expect("topological order"))
            .collect();
        map[gate.output().index()] = Some(b.gate(gate.cell(), &pins));
    }
    let mut outputs: Vec<_> = netlist
        .outputs()
        .iter()
        .map(|(name, net)| (name.clone(), map[net.index()].expect("driven output")))
        .collect();
    let ports = outputs.len();
    for i in 0..appended.len() {
        let r = b.input(format!("appended{i}"));
        outputs[i % ports].1 = b.xor(outputs[i % ports].1, r);
        let tapped = b.xor(map[tap].expect("tap net"), r);
        outputs.push((format!("tap{i}"), tapped));
    }
    for (name, net) in outputs {
        b.output(name, net);
    }
    let mut roles = subject.roles().to_vec();
    roles.extend_from_slice(appended);
    Subject::with_roles(
        format!("{}+{}", subject.label(), appended.len()),
        b.finish().expect("valid refresh patch"),
        roles,
        subject.output_groups().to_vec(),
    )
    .expect("contract")
}

#[test]
fn rsm_rom_random_rewires_reanalyze_byte_identically() {
    random_rewires(Scheme::RsmRom, 0x40, 40, 12);
}

#[test]
fn appended_fresh_inputs_grow_subword_rows_past_one_word() {
    // RSM-ROM's 16 mask words fill a quarter of a 64-lane word; one to
    // four appended fresh inputs make 32, 64, 128 and 256 lanes, so every
    // clean row is a widened sub-word base row, tiled into one word or
    // copied across two and four. The tap reads the base's most biased
    // net, so a mis-tiled lane shows in the new gate's joint statistics.
    let subject = Subject::of_circuit(&SboxCircuit::build(Scheme::RsmRom));
    assert_eq!(subject.mask_bits(), 4);
    let baseline = Baseline::new(subject.clone());
    let tap = baseline.base_analysis().of_rule(RuleId::ValueBias)[0]
        .location
        .net;
    for fresh in 1..=4 {
        let candidate = with_appended(&subject, &vec![InputRole::Fresh; fresh], tap);
        assert_eq!(candidate.mask_bits(), 4 + fresh);
        let what = format!("RSM-ROM + {fresh} fresh");
        let effort = assert_equivalent(&baseline, &candidate, &what);
        assert_eq!(effort.dirty_gates, fresh * 2, "{what}: {effort:?}");
    }
}

#[test]
fn appended_shares_re_evaluate_the_shares_they_close() {
    // A third share of every secret bit adds four mask bits and changes
    // what each share 0 closes, so those input rows must not be tiled.
    let subject = Subject::of_circuit(&SboxCircuit::build(Scheme::Isw));
    let baseline = Baseline::new(subject.clone());
    let shares: Vec<InputRole> = (0..4)
        .map(|bit| InputRole::Share { bit, share: 2 })
        .collect();
    let candidate = with_appended(&subject, &shares, subject.netlist().inputs()[0].index());
    assert_eq!(candidate.shares_per_bit(), 3);
    assert_equivalent(&baseline, &candidate, "ISW + third shares");
}

#[test]
fn isw_random_rewires_reanalyze_byte_identically() {
    random_rewires(Scheme::Isw, 0x15, 40, 12);
}

#[test]
fn ti_random_rewires_reanalyze_byte_identically() {
    random_rewires(Scheme::Ti, 0x71, 24, 6);
}

#[test]
fn barrier_marks_reanalyze_byte_identically() {
    random_barrier_marks(Scheme::RsmRom, 0xBA10, 8);
    random_barrier_marks(Scheme::Isw, 0xBA11, 8);
    random_barrier_marks(Scheme::Ti, 0xBA12, 3);
}

#[test]
fn repair_generator_patches_reanalyze_byte_identically() {
    generator_patches(Scheme::Ti, 4);
    generator_patches(Scheme::Isw, 4);
}
