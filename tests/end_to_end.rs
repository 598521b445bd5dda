//! Cross-crate integration: netlist generators → simulator → acquisition →
//! spectral analysis, exercised together.

use acquisition::{acquire, LeakageStudy, ProtocolConfig};
use gatesim::{SimConfig, Simulator};
use leakage_core::LeakageSpectrum;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};

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
    let study = LeakageStudy::new(small_protocol());
    let outcome = study.run(Scheme::Lut);
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
