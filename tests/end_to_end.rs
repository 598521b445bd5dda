//! Cross-crate integration: netlist generators → simulator → acquisition →
//! spectral analysis, exercised together.

mod support;

use acquisition::{classified_schedule, trace_seed, LeakageStudy, ProtocolConfig, NUM_CLASSES};
use campaign::{CacheMode, Campaign, CampaignConfig, FaultPlan};
use gatesim::{SimConfig, Simulator};
use leakage_core::{ClassifiedTraces, LeakageSpectrum};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};
use support::acquire;

fn small_protocol() -> ProtocolConfig {
    ProtocolConfig {
        traces_per_class: 8,
        ..ProtocolConfig::default()
    }
}

/// Every scheme's netlist, driven through its own encoding, computes the
/// PRESENT S-box once unmasked — the fundamental functional contract.
#[test]
fn all_schemes_compute_the_sbox_through_their_encodings() {
    let mut rng = SmallRng::seed_from_u64(20_22);
    for circuit in SboxCircuit::build_all() {
        for t in 0..16u8 {
            for _ in 0..4 {
                let inputs = circuit.encoding().encode(t, &mut rng);
                let outputs = circuit.netlist().evaluate(&inputs);
                assert_eq!(
                    circuit.encoding().unmask_output(&inputs, &outputs),
                    present_cipher::sbox(t),
                    "{} t={t}",
                    circuit.scheme()
                );
            }
        }
    }
}

/// The event-driven simulator's settled state equals the functional
/// evaluation for every scheme (timing cannot change logic).
#[test]
fn simulator_settles_to_functional_values_for_every_scheme() {
    let mut rng = SmallRng::seed_from_u64(7);
    for circuit in SboxCircuit::build_all() {
        let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
        let mut session = sim.session();
        for t in [0u8, 5, 10, 15] {
            let initial = circuit.encoding().encode(0, &mut rng);
            let final_inputs = circuit.encoding().encode(t, &mut rng);
            let record = session.transition(&initial, &final_inputs);
            let expect = circuit.netlist().evaluate_nets(&final_inputs);
            assert_eq!(record.settled, expect, "{}", circuit.scheme());
        }
    }
}

/// The full study pipeline produces a well-formed spectrum for every
/// scheme, and Parseval's identity ties it to the class means.
#[test]
fn study_pipeline_is_consistent_with_parseval() {
    for scheme in [Scheme::Opt, Scheme::Isw] {
        let circuit = SboxCircuit::build(scheme);
        let traces = acquire(&circuit, &small_protocol());
        assert_eq!(traces.len(), 128);
        let means = traces.class_means();
        let spectrum = LeakageSpectrum::from_class_means(&means);
        for t in (0..100).step_by(17) {
            let column: Vec<f64> = means.iter().map(|m| m[t]).collect();
            let sum_sq: f64 = column.iter().map(|x| x * x).sum();
            let spec_sq: f64 = (0..16).map(|u| spectrum.coefficient(u, t).powi(2)).sum();
            assert!(
                (sum_sq - spec_sq).abs() <= 1e-9 * sum_sq.max(1.0),
                "{scheme} t={t}: {sum_sq} vs {spec_sq}"
            );
        }
    }
}

/// Leakage splits exactly into single-bit + multi-bit parts.
#[test]
fn leakage_split_is_exhaustive() {
    let outcome = Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        cache: CacheMode::Off,
        faults: FaultPlan::none(),
        ..CampaignConfig::default()
    })
    .acquire_aged(Scheme::Lut, 0.0);
    let sp = &outcome.spectrum;
    let total = sp.total_leakage_power();
    let parts = sp.total_single_bit() + sp.total_multi_bit();
    assert!((total - parts).abs() <= 1e-9 * total.max(1.0));
    assert!(total > 0.0, "unprotected S-box must leak");
}

/// Aging derating slows the critical path and shrinks the total energy
/// for a real S-box netlist.
#[test]
fn aging_slows_and_weakens_the_sbox() {
    let study = LeakageStudy::new(small_protocol());
    let circuit = SboxCircuit::build(Scheme::Opt);
    let device = study.aged_device(&circuit);
    let fresh = device.derating_at_months(0.0);
    let old = device.derating_at_months(48.0);
    assert!(old.mean_delay_factor() > fresh.mean_delay_factor());
    assert!(old.mean_current_factor() < fresh.mean_current_factor());

    let cfg = SimConfig::default();
    let sim_fresh = Simulator::with_derating(circuit.netlist(), &cfg, &fresh);
    let sim_old = Simulator::with_derating(circuit.netlist(), &cfg, &old);
    let mut rng = SmallRng::seed_from_u64(3);
    let a = circuit.encoding().encode(0, &mut rng);
    let b = circuit.encoding().encode(9, &mut rng);
    let rec_fresh = sim_fresh.session().transition(&a, &b);
    let rec_old = sim_old.session().transition(&a, &b);
    assert!(rec_old.settle_time_ps() > rec_fresh.settle_time_ps());
    assert!(rec_old.total_energy_fj() < rec_fresh.total_energy_fj());
}

/// The acquisition protocol's class labels are consistent with the
/// encodings it generated (round-trip through `unmask_input`).
#[test]
fn protocol_labels_match_encodings() {
    let circuit = SboxCircuit::build(Scheme::Glut);
    let set = acquire(&circuit, &small_protocol());
    assert_eq!(set.class_counts(), vec![8; 16]);
}

/// The unprotected LUT's class means differ: the oracle captures signal.
#[test]
fn unprotected_traces_differ_by_class() {
    let circuit = SboxCircuit::build(Scheme::Lut);
    let means = acquire(&circuit, &small_protocol()).class_means();
    let m0: f64 = means[0].iter().sum();
    assert!(
        (1..16).any(|c| (means[c].iter().sum::<f64>() - m0).abs() > 1e-9),
        "all class means identical — no signal at all?"
    );
}

/// Initial and final both encode class 0 for unprotected circuits:
/// identical inputs → zero events → an all-zero class-0 mean.
#[test]
fn class_zero_final_values_cause_least_activity() {
    let circuit = SboxCircuit::build(Scheme::Opt);
    let means = acquire(&circuit, &small_protocol()).class_means();
    assert!(means[0].iter().all(|&p| p == 0.0));
    assert!(means[5].iter().any(|&p| p > 0.0));
}

/// Capturing the schedule out of order with per-trace seeds agrees with
/// the sequential oracle — the invariant the parallel campaign executor
/// stands on.
#[test]
fn schedule_and_per_trace_seeds_reproduce_acquire() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    let config = small_protocol();
    let sequential = acquire(&circuit, &config);
    let sim = Simulator::new(circuit.netlist(), &config.sim);
    let mut session = sim.session();
    let schedule = classified_schedule(&circuit, &config);
    let mut traces: Vec<(usize, Vec<f64>)> = schedule
        .iter()
        .enumerate()
        .rev() // deliberately reversed capture order
        .map(|(i, s)| {
            let mut noise = SmallRng::seed_from_u64(trace_seed(config.seed, i as u64));
            let mut t = Vec::new();
            session.capture_into(
                &s.initial,
                &s.final_inputs,
                &config.sampling,
                &mut noise,
                &mut t,
            );
            (i, t)
        })
        .collect();
    traces.sort_by_key(|(i, _)| *i);
    let mut set = ClassifiedTraces::new(NUM_CLASSES, config.sampling.samples);
    for ((_, trace), s) in traces.into_iter().zip(&schedule) {
        set.push(usize::from(s.label), trace);
    }
    assert_eq!(set, sequential);
}
