//! The end-to-end leakage study: build → (age) → acquire → project.

use aging::{AgedDevice, AgingConditions};
use gatesim::{ActivityProfile, SimConfig, Simulator};
use leakage_core::{ClassifiedTraces, LeakageSpectrum};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};

use crate::protocol::{acquire, acquire_with_derating, ProtocolConfig};
use crate::Backend;

/// The result of one fresh-device study.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// The scheme studied.
    pub scheme: Scheme,
    /// The classified trace set (64 × 16 by default).
    pub traces: ClassifiedTraces,
    /// The Walsh–Hadamard projection of the class means.
    pub spectrum: LeakageSpectrum,
}

/// The result of one aged-device study.
#[derive(Debug, Clone)]
pub struct AgedOutcome {
    /// Device age in months.
    pub months: f64,
    /// The study at that age.
    pub outcome: StudyOutcome,
}

/// Orchestrates the paper's experiments over any scheme and device age.
///
/// Construction is cheap; netlists are built per call (they are
/// deterministic), so a single `LeakageStudy` can be shared across
/// experiments.
#[derive(Debug, Clone)]
pub struct LeakageStudy {
    config: ProtocolConfig,
    conditions: AgingConditions,
}

impl LeakageStudy {
    /// A study using the given acquisition parameters and the paper's
    /// default aging conditions.
    pub fn new(config: ProtocolConfig) -> Self {
        Self {
            config,
            conditions: AgingConditions::default(),
        }
    }

    /// Override the aging conditions.
    pub fn with_conditions(mut self, conditions: AgingConditions) -> Self {
        self.conditions = conditions;
        self
    }

    /// The acquisition configuration in use.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Run the fresh-device study for one scheme.
    pub fn run(&self, scheme: Scheme) -> StudyOutcome {
        let circuit = SboxCircuit::build(scheme);
        let traces = acquire(&circuit, &self.config);
        let spectrum = LeakageSpectrum::from_class_means(&traces.class_means());
        StudyOutcome {
            scheme,
            traces,
            spectrum,
        }
    }

    /// Run the study for one scheme at a sequence of device ages
    /// (months). Age 0 uses identity derating.
    ///
    /// The stress workload profiled for the aging model is the same
    /// protocol stimulus the measurement uses — the device under attack is
    /// aged by its own operation, as in the paper.
    pub fn run_aged(&self, scheme: Scheme, ages_months: &[f64]) -> Vec<AgedOutcome> {
        let circuit = SboxCircuit::build(scheme);
        let device = self.aged_device(&circuit);
        ages_months
            .iter()
            .map(|&months| {
                let derating = device.derating_at_months(months);
                let traces =
                    acquire_with_derating(&circuit, &self.config, &derating, Backend::Event)
                        .expect("the event engine runs every netlist");
                let spectrum = LeakageSpectrum::from_class_means(&traces.class_means());
                AgedOutcome {
                    months,
                    outcome: StudyOutcome {
                        scheme,
                        traces,
                        spectrum,
                    },
                }
            })
            .collect()
    }

    /// The aging model bound to a circuit's own workload profile.
    pub fn aged_device(&self, circuit: &SboxCircuit) -> AgedDevice {
        let sim_cfg = SimConfig {
            noise_mw: 0.0,
            ..self.config.sim.clone()
        };
        let sim = Simulator::new(circuit.netlist(), &sim_cfg);
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0xA61E);
        // A representative workload: the protocol's own stimulus pattern
        // (initial class-0 encodings alternating with random classes).
        let mut vectors = Vec::with_capacity(64);
        for i in 0..32u8 {
            vectors.push(circuit.encoding().encode(0, &mut rng));
            vectors.push(circuit.encoding().encode(i % 16, &mut rng));
        }
        let profile = ActivityProfile::collect(&sim, &vectors);
        AgedDevice::new(circuit.netlist(), profile, self.conditions.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study() -> LeakageStudy {
        LeakageStudy::new(ProtocolConfig {
            traces_per_class: 4,
            ..ProtocolConfig::default()
        })
    }

    #[test]
    fn fresh_study_produces_a_spectrum() {
        let s = tiny_study().run(Scheme::Opt);
        assert_eq!(s.spectrum.samples(), 100);
        assert!(s.spectrum.total_leakage_power() > 0.0);
    }

    #[test]
    fn aging_reduces_total_leakage() {
        let outcomes = tiny_study().run_aged(Scheme::Opt, &[0.0, 48.0]);
        let fresh = outcomes[0].outcome.spectrum.total_leakage_power();
        let aged = outcomes[1].outcome.spectrum.total_leakage_power();
        assert!(aged < fresh, "aged {aged} !< fresh {fresh}");
        assert!(aged > 0.5 * fresh, "degradation should be gentle");
    }

    #[test]
    fn masked_scheme_leaks_less_than_unprotected() {
        // At the paper's trace budget (64/class) the masked estimate of a
        // small-variance scheme sits well below the unprotected circuits.
        let study = LeakageStudy::new(ProtocolConfig {
            traces_per_class: 64,
            ..ProtocolConfig::default()
        });
        let unprot = study.run(Scheme::Opt).spectrum.total_leakage_power();
        let isw = study.run(Scheme::Isw).spectrum.total_leakage_power();
        let rom = study.run(Scheme::RsmRom).spectrum.total_leakage_power();
        assert!(isw < unprot, "ISW {isw} !< OPT {unprot}");
        assert!(rom < unprot, "RSM-ROM {rom} !< OPT {unprot}");
    }
}
