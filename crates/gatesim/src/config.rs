//! Simulation and sampling configuration.

/// Electrical and timing configuration of the simulator.
///
/// The defaults reproduce the paper's operating point: Vdd = 1.2 V, 85 °C,
/// NANGATE-45nm-like cells.
///
/// # Example
///
/// ```
/// use gatesim::SimConfig;
///
/// let cfg = SimConfig {
///     process_sigma: 0.08,
///     ..SimConfig::default()
/// };
/// assert_eq!(cfg.vdd_v, 1.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Supply voltage in volts.
    pub vdd_v: f64,
    /// Die temperature in °C (informative; aging models consume it).
    pub temperature_c: f64,
    /// Relative standard deviation of the per-gate-instance delay jitter
    /// (process variation). Sampled once per gate from the seed, then fixed
    /// for the life of the simulator — the same die is measured repeatedly,
    /// as in the paper's setup.
    pub process_sigma: f64,
    /// Seed for the process-variation sampling.
    pub seed: u64,
    /// Fraction of a full output swing's energy dissipated by a pulse that
    /// the inertial-delay rule absorbs (a partial excursion of the output
    /// node). Set to 0.0 for an idealized zero-cost filter.
    pub absorbed_energy_fraction: f64,
    /// Width of the current pulse of a full transition, as a multiple of the
    /// switching gate's (derated) propagation delay.
    pub pulse_width_factor: f64,
    /// Standard deviation of additive Gaussian measurement noise on each
    /// power sample, in mW. 0.0 disables noise.
    pub noise_mw: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            vdd_v: 1.2,
            temperature_c: 85.0,
            process_sigma: 0.05,
            seed: 0x5b0c_1eaf,
            absorbed_energy_fraction: 0.35,
            pulse_width_factor: 1.5,
            noise_mw: 0.0,
        }
    }
}

/// The oscilloscope: how power waveforms are discretized.
///
/// The default matches the paper: 100 samples over 2 ns (50 GS/s), starting
/// when the final value is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Observation window in picoseconds.
    pub window_ps: f64,
    /// Number of samples across the window.
    pub samples: usize,
}

impl SamplingConfig {
    /// Sample period in picoseconds.
    pub fn period_ps(&self) -> f64 {
        self.window_ps / self.samples as f64
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            window_ps: 2000.0,
            samples: 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sampling_is_fifty_gigasamples() {
        let s = SamplingConfig::default();
        assert_eq!(s.period_ps(), 20.0);
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn default_operating_point_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.vdd_v, 1.2);
        assert_eq!(c.temperature_c, 85.0);
    }
}
