//! Differential test: the bit-sliced engine replays the event-driven
//! engine bit for bit on random circuits.
//!
//! Seeded random netlists (1–8 inputs, 1–60 gates over the whole cell
//! library, wired to arbitrary earlier nets so one net can drive several
//! pins of one gate) run under random derating, process variation,
//! measurement noise, absorbed-glitch energy and sampling. Every lane of
//! one `capture_batch` must equal `capture_into` with the lane's noise
//! seed, in both trace and `CaptureStats`. Most cases fill 1–`LANES/8`
//! lanes; every tenth fills all `LANES`, so every mask word is
//! exercised. Every fourth case draws half its cells from the 3- and
//! 4-input cells, whose several input paths make a gate re-switch more
//! often, so more pops mix lanes that switch the gate for the first
//! time with lanes that switch it again. The generator is seeded, so a
//! failure reproduces exactly.

use gatesim::{Derating, LaneStimulus, SamplingConfig, SimConfig, Simulator, LANES};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbox_netlist::{CellType, Netlist, NetlistBuilder, ALL_CELL_TYPES};

const CASES: u64 = 300;

/// Grow a random netlist: 1–8 inputs, 1–60 gates over all 16 cells
/// (half of them 3- and 4-input cells when `wide`), each pin wired to
/// any earlier net (repeats allowed), 1–4 outputs.
fn random_netlist(rng: &mut SmallRng, case: u64, wide: bool) -> Netlist {
    let mut b = NetlistBuilder::new(format!("diff_{case}"));
    let num_inputs = rng.gen_range(1usize..=8);
    let mut nets: Vec<_> = (0..num_inputs).map(|i| b.input(format!("in{i}"))).collect();
    let wide_cells: Vec<CellType> = ALL_CELL_TYPES
        .into_iter()
        .filter(|cell| cell.arity() >= 3)
        .collect();
    for _ in 0..rng.gen_range(1usize..=60) {
        let pool: &[CellType] = if wide && rng.gen_bool(0.5) {
            &wide_cells
        } else {
            &ALL_CELL_TYPES
        };
        let cell = *pool.choose(rng).expect("non-empty");
        let inputs: Vec<_> = (0..cell.arity())
            .map(|_| *nets.choose(rng).expect("non-empty"))
            .collect();
        nets.push(b.gate(cell, &inputs));
    }
    for i in 0..rng.gen_range(1usize..=4) {
        b.output(format!("out{i}"), *nets.choose(rng).expect("non-empty"));
    }
    b.finish().expect("random netlist is structurally valid")
}

fn random_bits(rng: &mut SmallRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn every_batch_lane_matches_the_event_engine_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_E4E7);
    for case in 0..CASES {
        let netlist = random_netlist(&mut rng, case, case % 4 == 3);
        let n_gates = netlist.gates().len();
        let mut factors = |lo: f64, hi: f64| -> Vec<f64> {
            (0..n_gates).map(|_| rng.gen_range(lo..hi)).collect()
        };
        let derating = Derating::from_factors(factors(0.8, 1.6), factors(0.6, 1.1));
        let config = SimConfig {
            process_sigma: rng.gen_range(0.0..0.15),
            noise_mw: if rng.gen_bool(0.5) { 0.02 } else { 0.0 },
            absorbed_energy_fraction: if rng.gen_bool(0.5) {
                0.0
            } else {
                SimConfig::default().absorbed_energy_fraction
            },
            seed: rng.gen(),
            ..SimConfig::default()
        };
        let sampling = SamplingConfig {
            window_ps: rng.gen_range(100.0..3000.0),
            samples: rng.gen_range(1usize..=200),
        };
        let sim = Simulator::with_derating(&netlist, &config, &derating);
        let width = netlist.num_inputs();
        let n_lanes = if case % 10 == 0 {
            LANES
        } else {
            rng.gen_range(1usize..=LANES / 8)
        };
        let stimuli: Vec<(Vec<bool>, Vec<bool>, u64)> = (0..n_lanes)
            .map(|_| {
                let initial = random_bits(&mut rng, width);
                let final_inputs = random_bits(&mut rng, width);
                (initial, final_inputs, rng.gen())
            })
            .collect();
        let lanes: Vec<LaneStimulus<'_>> = stimuli
            .iter()
            .map(|(initial, final_inputs, noise_seed)| LaneStimulus {
                initial,
                final_inputs,
                noise_seed: *noise_seed,
            })
            .collect();

        let mut sliced = sim
            .bitsliced_session()
            .expect("random deratings stay supported");
        let (traces, stats) = sliced.capture_batch(&lanes, &sampling);
        let mut session = sim.session();
        let mut want = Vec::new();
        for (lane, (initial, final_inputs, noise_seed)) in stimuli.iter().enumerate() {
            let mut noise = SmallRng::seed_from_u64(*noise_seed);
            let want_stats =
                session.capture_into(initial, final_inputs, &sampling, &mut noise, &mut want);
            assert_eq!(
                traces[lane], want,
                "case {case} lane {lane}: trace differs ({n_gates} gates, {config:?}, {sampling:?})"
            );
            assert_eq!(
                stats[lane], want_stats,
                "case {case} lane {lane}: stats differ"
            );
        }
    }
}
