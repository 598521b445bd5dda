//! Property test: export ∘ import is the identity on netlist structure.
//!
//! Randomized small netlists — grown gate by gate from the full cell
//! library, then perturbed through the workspace's own mutators
//! (dead-gate sweep, delay balancing, product observation, input
//! rewiring) — must survive `to_yosys_json` → `import_str` and
//! `to_edif` → `import_str` with identical gate counts, topology, and
//! delays. The generator is seeded, so a failure reproduces exactly.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbox_netlist::transform::{balance_delays, observe_product, rewire_input, sweep_dead_gates};
use sbox_netlist::{GateId, Netlist, NetlistBuilder, ALL_CELL_TYPES};
use sca_frontend::{
    import_str, netlist_digest, structural_diff, to_edif, to_yosys_json, SourceFormat,
};

/// Grow a random netlist: 1–6 inputs, 1–24 gates over the whole cell
/// library wired to arbitrary earlier nets, 1–4 outputs drawn from the
/// gate outputs (and occasionally a raw input, to cover pass-through
/// ports).
fn random_netlist(rng: &mut SmallRng, tag: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("prop_{tag}"));
    let num_inputs = rng.gen_range(1usize..=6);
    let mut nets: Vec<_> = (0..num_inputs).map(|i| b.input(format!("in{i}"))).collect();
    let num_gates = rng.gen_range(1usize..=24);
    let mut gate_outs = Vec::new();
    for _ in 0..num_gates {
        let cell = *ALL_CELL_TYPES.choose(rng).expect("non-empty");
        let inputs: Vec<_> = (0..cell.arity())
            .map(|_| *nets.choose(rng).expect("non-empty"))
            .collect();
        let out = b.gate(cell, &inputs);
        nets.push(out);
        gate_outs.push(out);
    }
    let num_outputs = rng.gen_range(1usize..=4);
    for i in 0..num_outputs {
        let pool = if rng.gen_bool(0.1) { &nets } else { &gate_outs };
        b.output(format!("out{i}"), *pool.choose(rng).expect("non-empty"));
    }
    b.finish().expect("random netlist is structurally valid")
}

/// Apply 0–2 random mutators, skipping any that reject the input
/// (e.g. a rewire that would form a cycle).
fn mutate(rng: &mut SmallRng, netlist: Netlist) -> Netlist {
    let mut current = netlist;
    for _ in 0..rng.gen_range(0usize..=2) {
        current = match rng.gen_range(0u8..4) {
            0 => sweep_dead_gates(&current).unwrap_or(current),
            1 => balance_delays(&current, rng.gen_range(1.0..50.0)).unwrap_or(current),
            2 => {
                let nets: Vec<_> = current.inputs().to_vec();
                match (nets.choose(rng), nets.choose(rng)) {
                    (Some(&a), Some(&b)) => observe_product(&current, a, b, "probe")
                        .map(|(n, _)| n)
                        .unwrap_or(current),
                    _ => current,
                }
            }
            _ => {
                // Ids are only reachable through the graph, so pick a
                // victim gate off a random input net's load list.
                let candidates: Vec<GateId> = current
                    .inputs()
                    .iter()
                    .flat_map(|&n| current.loads(n).iter().copied())
                    .collect();
                match candidates.choose(rng) {
                    Some(&gate) => {
                        let pin = rng.gen_range(0..current.gate(gate).inputs().len());
                        let source = *current.inputs().choose(rng).expect("has inputs");
                        rewire_input(&current, gate, pin, source).unwrap_or(current)
                    }
                    None => current,
                }
            }
        };
    }
    current
}

fn assert_round_trips(netlist: &Netlist, seed: u64, case: usize) {
    for (format, text) in [
        (SourceFormat::YosysJson, to_yosys_json(netlist)),
        (SourceFormat::Edif, to_edif(netlist)),
    ] {
        let design = import_str(&text, format).unwrap_or_else(|e| {
            panic!(
                "seed {seed} case {case}: {format} import of {} gates failed: {e}\n{text}",
                netlist.gates().len()
            )
        });
        if let Some(diff) = structural_diff(netlist, &design.netlist) {
            panic!("seed {seed} case {case}: {format} round trip differs: {diff}\n{text}",);
        }
        assert_eq!(
            netlist_digest(netlist),
            netlist_digest(&design.netlist),
            "seed {seed} case {case}: {format} digest drifted"
        );
    }
}

#[test]
fn randomized_netlists_round_trip_bit_exactly() {
    let seed = 0xB0C4_D00D;
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..96 {
        let netlist = random_netlist(&mut rng, case);
        assert_round_trips(&netlist, seed, case);
    }
}

#[test]
fn mutated_netlists_round_trip_bit_exactly() {
    let seed = 0x5EED_CAFE;
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..64 {
        let netlist = random_netlist(&mut rng, 1000 + case);
        let mutant = mutate(&mut rng, netlist);
        assert_round_trips(&mutant, seed, case);
    }
}
