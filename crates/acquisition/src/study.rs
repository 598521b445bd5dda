//! The aging model of a circuit under the paper's protocol workload.

use aging::{AgedDevice, AgingConditions};
use gatesim::{ActivityProfile, SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::SboxCircuit;

use crate::protocol::ProtocolConfig;

/// Ages circuits the way the paper's study does: under their own
/// acquisition workload and the paper's (or overridden) stress
/// conditions. The `sca-campaign` crate acquires at each age; this type
/// only builds the aged device.
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
