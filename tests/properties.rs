//! Property-style tests on the core data structures and invariants of the
//! workspace.
//!
//! These were originally written with `proptest`; the build environment
//! has no registry access, so each property is now exercised over a
//! seeded randomized sweep (plus the interesting boundary cases) with the
//! workspace's own `rand`. Failures print the iteration seed so a case
//! can be replayed by hand.

use leakage_core::online::TreeReducer;
use leakage_core::{
    spectrum_of, ChunkFold, ClassAccumulator, ClassifiedTraces, LeakageSpectrum,
    SpectrumAccumulator, SumMode,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbox_circuits::{InputEncoding, Scheme};
use sbox_netlist::synth::{greedy_cover, prime_implicants, TruthTable};
use sbox_netlist::NetlistBuilder;

const SWEEPS: usize = 64;

/// The Walsh–Hadamard transform is an involution and preserves energy
/// (Parseval) on arbitrary 16-point functions.
#[test]
fn wht_involution_and_parseval() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0001);
    for case in 0..SWEEPS {
        let f: Vec<f64> = (0..16).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let a = spectrum_of(&f);
        let back = spectrum_of(&a);
        for (x, y) in f.iter().zip(&back) {
            assert!((x - y).abs() < 1e-9, "case {case}: {x} != {y}");
        }
        let ef: f64 = f.iter().map(|x| x * x).sum();
        let ea: f64 = a.iter().map(|x| x * x).sum();
        assert!(
            (ef - ea).abs() < 1e-6 * ef.max(1.0),
            "case {case}: energy {ef} vs {ea}"
        );
    }
}

/// Adding a constant to every trace changes only the u = 0 component.
#[test]
fn constant_offsets_never_leak() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0002);
    for case in 0..SWEEPS {
        let offset = rng.gen_range(-50.0..50.0);
        let mut plain = ClassifiedTraces::new(16, 4);
        let mut shifted = ClassifiedTraces::new(16, 4);
        for i in 0..64usize {
            let class = i % 16;
            let t: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            shifted.push(class, t.iter().map(|x| x + offset).collect());
            plain.push(class, t);
        }
        let a = LeakageSpectrum::from_class_means(&plain.class_means());
        let b = LeakageSpectrum::from_class_means(&shifted.class_means());
        for t in 0..4 {
            assert!(
                (a.leakage_power(t) - b.leakage_power(t)).abs() < 1e-9,
                "case {case}, sample {t}"
            );
        }
    }
}

/// Every encoding round-trips its class label for arbitrary masks.
#[test]
fn encodings_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0003);
    for case in 0..SWEEPS {
        let t = rng.gen_range(0u8..16);
        let word = rng.gen_range(0u32..(1 << 12));
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            let bits = enc.mask_bits();
            let mask = if bits == 0 {
                0
            } else {
                word & ((1 << bits) - 1)
            };
            let v = enc.encode_masked(t, mask);
            assert_eq!(v.len(), enc.num_inputs(), "case {case}, {scheme}");
            assert_eq!(enc.unmask_input(&v), t, "case {case}, {scheme}");
        }
    }
}

/// Two-level synthesis is exact on random 4-input / 2-output tables.
#[test]
fn sop_synthesis_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0004);
    for case in 0..SWEEPS {
        let words: Vec<u64> = (0..16).map(|_| rng.gen_range(0u64..4)).collect();
        let tt = TruthTable::from_words(4, 2, words.clone());
        let mut b = NetlistBuilder::new("prop_sop");
        let ins = b.input_bus("x", 4);
        let outs = tt.synthesize_sop(&mut b, &ins);
        b.output_bus("y", &outs);
        let nl = b.finish().expect("valid");
        for (t, w) in words.iter().enumerate() {
            assert_eq!(nl.evaluate_word(t as u64), *w, "case {case}, t={t}");
        }
    }
}

/// Prime implicants cover exactly the on-set: soundness and completeness
/// of the cover on random (and boundary) on-sets.
#[test]
fn qm_cover_is_sound_and_complete() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0005);
    let masks = (0..SWEEPS as u32)
        .map(|_| rng.gen_range(1u32..0xFFFF))
        .chain([1, 0xFFFE, 0x8000, 0x5555, 0xAAAA]);
    for mask in masks {
        let on: Vec<u32> = (0..16u32).filter(|t| (mask >> t) & 1 == 1).collect();
        let primes = prime_implicants(&on, 4);
        let cover = greedy_cover(&on, &primes);
        for t in 0..16u32 {
            let covered = cover.iter().any(|p| p.covers(t));
            assert_eq!(covered, on.contains(&t), "mask={mask:#x} t={t}");
        }
    }
}

/// PRESENT encrypt/decrypt round-trip for arbitrary keys and blocks.
#[test]
fn present_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0006);
    for case in 0..SWEEPS {
        let mut key = [0u8; 10];
        rng.fill_bytes(&mut key);
        let block: u64 = rng.gen();
        let cipher = present_cipher::Present80::new(key);
        assert_eq!(
            cipher.decrypt_block(cipher.encrypt_block(block)),
            block,
            "case {case}: key {key:02x?} block {block:#x}"
        );
    }
}

/// The netlist reduction helpers are correct for arbitrary widths.
#[test]
fn reductions_match_folds() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0007);
    for case in 0..SWEEPS {
        let width = rng.gen_range(1usize..24);
        let bits: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        let mut b = NetlistBuilder::new("prop_reduce");
        let ins = b.input_bus("x", bits.len());
        let and = b.and(&ins);
        let or = b.or(&ins);
        let xor = b.xor_tree(&ins);
        b.output("and", and);
        b.output("or", or);
        b.output("xor", xor);
        let nl = b.finish().expect("valid");
        let out = nl.evaluate(&bits);
        assert_eq!(out[0], bits.iter().all(|&x| x), "case {case} and");
        assert_eq!(out[1], bits.iter().any(|&x| x), "case {case} or");
        assert_eq!(
            out[2],
            bits.iter().fold(false, |a, &x| a ^ x),
            "case {case} xor"
        );
    }
}

/// A random class-labelled trace set plus the batch-analysis view of it.
fn random_labelled_traces(
    rng: &mut SmallRng,
    classes: usize,
    samples: usize,
    n: usize,
) -> Vec<(usize, Vec<f64>)> {
    (0..n)
        .map(|_| {
            let class = rng.gen_range(0..classes);
            let t: Vec<f64> = (0..samples)
                .map(|_| rng.gen_range(-100.0f64..100.0))
                .collect();
            (class, t)
        })
        .collect()
}

fn accumulate(set: &[(usize, Vec<f64>)], classes: usize, samples: usize) -> SpectrumAccumulator {
    let mut acc = SpectrumAccumulator::new(classes, samples, SumMode::Exact);
    for (class, t) in set {
        acc.fold(*class, t);
    }
    acc
}

/// Streaming accumulation equals the batch analysis bit for bit on
/// arbitrary random sets.
#[test]
fn streaming_equals_batch_on_random_sets() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0008);
    for case in 0..SWEEPS {
        let samples = rng.gen_range(1usize..8);
        let n = rng.gen_range(16usize..200);
        let set = random_labelled_traces(&mut rng, 16, samples, n);
        let mut batch = ClassifiedTraces::new(16, samples);
        for (class, t) in &set {
            batch.push(*class, t.clone());
        }
        let batch_spectrum = LeakageSpectrum::from_class_means(&batch.class_means());

        let mut fold = ChunkFold::new(SpectrumAccumulator::new(16, samples, SumMode::Exact));
        for (class, t) in &set {
            fold.fold(*class as u16, t);
        }
        let exact = fold.finish();
        assert_eq!(exact.class_means(), batch.class_means(), "case {case}");
        assert_eq!(exact.spectrum(), batch_spectrum, "case {case}");
    }
}

/// Accumulator merging is associative and commutative: any shard
/// grouping yields the same statistics bit for bit. (This is the
/// property that makes a fold worker-count invariant, however the
/// shards are grouped.)
#[test]
fn accumulator_merge_is_associative_and_commutative() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0009);
    for case in 0..SWEEPS {
        let samples = rng.gen_range(1usize..6);
        let parts: Vec<Vec<(usize, Vec<f64>)>> = (0..3)
            .map(|_| {
                let n = rng.gen_range(0usize..40);
                random_labelled_traces(&mut rng, 16, samples, n)
            })
            .collect();
        let acc = |i: usize| accumulate(&parts[i], 16, samples);
        let left = acc(0).merge(acc(1)).merge(acc(2));
        let right = acc(0).merge(acc(1).merge(acc(2)));
        let swapped = acc(1).merge(acc(0)).merge(acc(2));
        assert_eq!(left.class_counts(), right.class_counts(), "case {case}");
        assert_eq!(left.class_counts(), swapped.class_counts(), "case {case}");
        assert_eq!(left.class_means(), right.class_means(), "case {case} assoc");
        assert_eq!(
            left.class_means(),
            swapped.class_means(),
            "case {case} comm"
        );
        assert_eq!(left.spectrum(), right.spectrum(), "case {case}");
        assert_eq!(left.spectrum(), swapped.spectrum(), "case {case}");
    }
}

/// The fold is invariant under how it is cut into leaves: every chunk
/// size produces the identical accumulator statistics.
#[test]
fn exact_fold_is_invariant_under_tree_shape() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_000A);
    for case in 0..16 {
        let samples = rng.gen_range(1usize..6);
        let n = rng.gen_range(32usize..150);
        let set = random_labelled_traces(&mut rng, 16, samples, n);
        let reference = accumulate(&set, 16, samples);
        for chunk in [1usize, 3, 16, 64, 1024] {
            // Hand-cut leaves of `chunk` traces, reduced by the grid's chain.
            let mut reducer = TreeReducer::new();
            for (seq, leaf) in set.chunks(chunk).enumerate() {
                reducer.push(seq as u64, accumulate(leaf, 16, samples));
            }
            let acc = reducer.finish().expect("at least one leaf");
            assert_eq!(
                acc.class_means(),
                reference.class_means(),
                "case {case} chunk {chunk}"
            );
            assert_eq!(
                acc.spectrum(),
                reference.spectrum(),
                "case {case} chunk {chunk}"
            );
        }
    }
}

/// The online variance from exact sums agrees with the two-pass
/// definition.
#[test]
fn online_variance_matches_two_pass() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_000B);
    for case in 0..SWEEPS {
        let samples = rng.gen_range(1usize..6);
        let n = rng.gen_range(2usize..100);
        let traces: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..samples)
                    .map(|_| rng.gen_range(-100.0f64..100.0))
                    .collect()
            })
            .collect();
        // Two-pass reference: mean first, then centred squares.
        let two_pass: Vec<f64> = (0..samples)
            .map(|s| {
                let mean = traces.iter().map(|t| t[s]).sum::<f64>() / n as f64;
                traces.iter().map(|t| (t[s] - mean).powi(2)).sum::<f64>() / n as f64
            })
            .collect();
        let mut acc = ClassAccumulator::new(samples);
        for t in &traces {
            acc.fold(t);
        }
        for (s, (got, want)) in acc.variance().iter().zip(&two_pass).enumerate() {
            let rel = (got - want).abs() / want.abs().max(1.0);
            assert!(rel <= 1e-9, "case {case} sample {s}: {got} vs {want}");
        }
    }
}
