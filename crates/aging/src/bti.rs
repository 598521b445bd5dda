//! Bias Temperature Instability: power-law stress with partial recovery.

use crate::AgingConditions;

/// Which device type the BTI instance affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtiKind {
    /// Negative BTI — PMOS transistors, stressed while conducting
    /// (gate output high in a CMOS stage).
    Nbti,
    /// Positive BTI — NMOS transistors, stressed while conducting.
    Pbti,
}

/// One phase of a stress/recovery schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressPhase {
    /// Phase duration in months.
    pub months: f64,
    /// Whether the transistor is under stress during the phase.
    pub stressed: bool,
}

/// A sequence of stress/recovery phases (paper Fig. 1's two scenarios are
/// both instances of this).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StressSchedule {
    phases: Vec<StressPhase>,
}

impl StressSchedule {
    /// Continuous stress for `months`.
    pub fn continuous(months: f64) -> Self {
        Self {
            phases: vec![StressPhase {
                months,
                stressed: true,
            }],
        }
    }

    /// Alternating stress/recovery phases of `period_months` each, starting
    /// stressed, for `cycles` full stress+recovery pairs.
    pub fn alternating(period_months: f64, cycles: usize) -> Self {
        let phases = (0..2 * cycles)
            .map(|i| StressPhase {
                months: period_months,
                stressed: i % 2 == 0,
            })
            .collect();
        Self { phases }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[StressPhase] {
        &self.phases
    }

    /// Append a phase.
    pub fn push(&mut self, phase: StressPhase) {
        self.phases.push(phase);
    }
}

/// Compact reaction–diffusion-inspired BTI model.
///
/// Under stress, `ΔVth = A · dutyᵐ · tⁿ` (long-term power law, `n ≈ 0.16`).
/// During recovery the *recoverable* fraction of the accumulated drift
/// decays exponentially while a *permanent* fraction remains — which is why
/// an alternating stress/recovery workload ends up with visibly less drift
/// than continuous stress (paper Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct BtiModel {
    kind: BtiKind,
    /// Drift after 1 month of continuous stress at duty 1, in volts.
    prefactor_v: f64,
    /// Power-law time exponent `n`.
    time_exponent: f64,
    /// Duty-cycle exponent `m`.
    duty_exponent: f64,
    /// Fraction of newly accumulated drift that never recovers.
    permanent_fraction: f64,
    /// Time constant of the recoverable component's decay, months.
    recovery_tau_months: f64,
}

impl BtiModel {
    /// Instantiate for the given device kind at the given operating
    /// conditions (temperature and Vdd accelerate the drift).
    pub fn new(kind: BtiKind, conditions: &AgingConditions) -> Self {
        // Arrhenius-like acceleration, normalized to the paper's 85 °C /
        // 1.2 V operating point.
        let temp_accel = ((conditions.temperature_c - 85.0) / 60.0).exp();
        let vdd_accel = (conditions.vdd_v / 1.2).powi(3);
        // PBTI in high-k 45 nm metal-gate processes is a weaker effect
        // than NBTI.
        let base = match kind {
            BtiKind::Nbti => 0.012,
            BtiKind::Pbti => 0.007,
        };
        Self {
            kind,
            prefactor_v: base * temp_accel * vdd_accel,
            time_exponent: 0.16,
            duty_exponent: 0.3,
            permanent_fraction: 0.55,
            recovery_tau_months: 0.7,
        }
    }

    /// The device kind this model applies to.
    pub fn kind(&self) -> BtiKind {
        self.kind
    }

    /// Long-term drift in volts after `months` of operation at the given
    /// stress duty cycle (fraction of time the device is stressed).
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]` or `months` is negative.
    pub fn delta_vth_v(&self, duty: f64, months: f64) -> f64 {
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        assert!(months >= 0.0);
        if duty == 0.0 || months == 0.0 {
            return 0.0;
        }
        self.prefactor_v * duty.powf(self.duty_exponent) * months.powf(self.time_exponent)
    }

    /// Walk an explicit stress/recovery schedule and return the drift (in
    /// volts) at the *end of every phase* — the trajectory plotted in the
    /// paper's Fig. 1.
    pub fn trajectory(&self, schedule: &StressSchedule) -> Vec<f64> {
        let mut permanent = 0.0f64;
        let mut recoverable = 0.0f64;
        let mut effective_stress_months = 0.0f64;
        let mut out = Vec::with_capacity(schedule.phases().len());
        for phase in schedule.phases() {
            if phase.stressed {
                let before = self.prefactor_v * effective_stress_months.powf(self.time_exponent);
                effective_stress_months += phase.months;
                let after = self.prefactor_v * effective_stress_months.powf(self.time_exponent);
                let delta = (after - before).max(0.0);
                permanent += self.permanent_fraction * delta;
                recoverable += (1.0 - self.permanent_fraction) * delta;
            } else {
                recoverable *= (-phase.months / self.recovery_tau_months).exp();
                // Relaxation also slows the next stress round: credit the
                // recovered charge back to the effective stress clock.
                let total = permanent + recoverable;
                effective_stress_months = (total / self.prefactor_v)
                    .max(0.0)
                    .powf(1.0 / self.time_exponent);
            }
            out.push(permanent + recoverable);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nbti() -> BtiModel {
        BtiModel::new(BtiKind::Nbti, &AgingConditions::default())
    }

    #[test]
    fn drift_grows_sublinearly() {
        let m = nbti();
        let v1 = m.delta_vth_v(1.0, 12.0);
        let v2 = m.delta_vth_v(1.0, 24.0);
        assert!(v2 > v1);
        assert!(v2 < 2.0 * v1, "power law must be sublinear");
    }

    #[test]
    fn higher_duty_means_more_drift() {
        let m = nbti();
        assert!(m.delta_vth_v(1.0, 12.0) > m.delta_vth_v(0.3, 12.0));
        assert_eq!(m.delta_vth_v(0.0, 12.0), 0.0);
    }

    #[test]
    fn pbti_is_weaker_than_nbti() {
        let c = AgingConditions::default();
        let n = BtiModel::new(BtiKind::Nbti, &c);
        let p = BtiModel::new(BtiKind::Pbti, &c);
        assert!(n.delta_vth_v(0.5, 24.0) > p.delta_vth_v(0.5, 24.0));
    }

    #[test]
    fn temperature_accelerates() {
        let hot = BtiModel::new(
            BtiKind::Nbti,
            &AgingConditions {
                temperature_c: 125.0,
                ..AgingConditions::default()
            },
        );
        assert!(hot.delta_vth_v(0.5, 12.0) > nbti().delta_vth_v(0.5, 12.0));
    }

    #[test]
    fn alternating_schedule_drifts_less_than_continuous() {
        // Paper Fig. 1: 6 months continuous vs stress/recovery every other
        // month.
        let m = nbti();
        let cont = m.trajectory(&StressSchedule::continuous(6.0));
        let alt = m.trajectory(&StressSchedule::alternating(1.0, 3));
        let final_cont = *cont.last().expect("non-empty");
        let final_alt = *alt.last().expect("non-empty");
        assert!(final_alt < final_cont, "{final_alt} !< {final_cont}");
        assert!(final_alt > 0.0, "permanent component remains");
    }

    #[test]
    fn recovery_phases_reduce_drift() {
        let m = nbti();
        let mut schedule = StressSchedule::continuous(1.0);
        schedule.push(StressPhase {
            months: 1.0,
            stressed: false,
        });
        let traj = m.trajectory(&schedule);
        assert!(traj[1] < traj[0]);
        assert!(traj[1] > m.permanent_fraction * traj[0] * 0.99);
    }

    #[test]
    fn trajectory_matches_closed_form_under_continuous_stress() {
        let m = nbti();
        let mut schedule = StressSchedule::default();
        for _ in 0..6 {
            schedule.push(StressPhase {
                months: 1.0,
                stressed: true,
            });
        }
        let traj = m.trajectory(&schedule);
        let closed = m.delta_vth_v(1.0, 6.0);
        assert!((traj[5] - closed).abs() / closed < 1e-9);
    }
}
