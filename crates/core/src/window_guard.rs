//! Guard for the fixed-point windows of the exact rows in
//! [`crate::stats`]: every value and `h·x` product the default protocol
//! produces must land on the `i128` grid, so the spectral and attack
//! folds never fall back to Shewchuk expansions. A power-model change
//! that moved samples off the grid would fail here instead of quietly
//! slowing every exact fold down.

use crate::comoment::CoMomentAccumulator;
use crate::online::{SpectrumAccumulator, SumMode};
use acquisition::{acquire_with_derating, LeakageStudy, ProtocolConfig, NUM_CLASSES};
use sbox_circuits::{SboxCircuit, Scheme};
use sca_attacks::{Distinguisher, LeakageModel};

#[test]
fn default_protocol_folds_never_leave_the_fixed_window() {
    let config = ProtocolConfig::default();
    let study = LeakageStudy::new(config.clone());
    let cpa = Distinguisher::Cpa(LeakageModel::OutputTransition);
    let samples = config.sampling.samples;
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let device = study.aged_device(&circuit);
        for months in [0.0, 24.0] {
            let derating = device.derating_at_months(months);
            let traces = acquire_with_derating(&circuit, &config, &derating);
            let mut spectrum = SpectrumAccumulator::new(NUM_CLASSES, samples, SumMode::Exact);
            let mut attack = CoMomentAccumulator::new(cpa.channels(), samples);
            for (class, trace) in traces.iter() {
                // The attack folds the label as its plaintext, as a
                // joint spectral and attack fold does.
                let h: Vec<f64> = (0..16u8)
                    .map(|guess| cpa.hypothesis(class as u8, guess, 0))
                    .collect();
                spectrum.fold(class, trace);
                attack.fold(&h, trace);
            }
            assert_eq!(
                spectrum.len(),
                (NUM_CLASSES * config.traces_per_class) as u64
            );
            assert!(
                spectrum.value_rows_stay_hot(),
                "{scheme} at {months} months: a trace sample left the value window"
            );
            assert!(
                attack.value_rows_stay_hot(),
                "{scheme} at {months} months: a sample or h·x product left the value window"
            );
        }
    }
}
