//! Dynamic confirmation of a repair: did the NICV actually drop?
//!
//! Static soundness arguments have models; models have edges. After the
//! searcher accepts a patch sequence, this module replays base and
//! repaired subjects through the gate-level power simulator, via the
//! campaign executor (bit-sliced wherever the netlist supports it),
//! under identical stimulus recipes and compares their class-conditional
//! NICV (the paper's dynamic leakage metric). A real repair shows a
//! non-increasing NICV peak; a model-gaming "repair" shows up here as a
//! delta near zero or negative.
//!
//! Everything is seeded and noise-free, so the resulting floats are
//! byte-stable and safe to pin in golden reports.

use acquisition::Stimulus;
use campaign::{fold_schedule_into, ExecPolicy, ResumeState};
use gatesim::{SamplingConfig, SimConfig, Simulator};
use leakage_core::{metrics, ClassifiedTraces};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sca_verify::Subject;

/// Cap on distinguisher classes: NICV wants a handful of well-populated
/// classes, not `2^secret_bits` singletons.
pub const MAX_CLASSES: usize = 16;

/// NICV comparison between the base and repaired subjects.
#[derive(Debug, Clone, Copy)]
pub struct Confirmation {
    /// Traces captured per subject.
    pub traces: usize,
    /// Samples per trace.
    pub samples: usize,
    /// Peak NICV of the base subject.
    pub base_nicv_max: f64,
    /// Peak NICV of the repaired subject.
    pub repaired_nicv_max: f64,
    /// `base − repaired`: positive when the repair reduced the dynamic
    /// class leakage at its worst sample.
    pub delta: f64,
}

/// Why a confirmation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfirmError {
    /// The named subject would get no traces: `traces_per_class` is zero
    /// or the subject has no classes, and NICV of nothing is undefined.
    NoTraces {
        /// The subject's name.
        subject: String,
    },
}

impl std::fmt::Display for ConfirmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoTraces { subject } => write!(
                f,
                "cannot confirm `{subject}`: no traces to capture (zero traces per class or no classes)"
            ),
        }
    }
}

impl std::error::Error for ConfirmError {}

/// Capture `traces_per_class` transition traces per class for both
/// subjects and compare peak NICV.
///
/// # Errors
///
/// [`ConfirmError::NoTraces`] if either subject would get no traces.
pub fn confirm(
    base: &Subject,
    repaired: &Subject,
    traces_per_class: usize,
    seed: u64,
) -> Result<Confirmation, ConfirmError> {
    let sampling = SamplingConfig::default();
    let (base_max, traces) = peak_nicv(base, traces_per_class, seed, &sampling)?;
    let (repaired_max, _) = peak_nicv(repaired, traces_per_class, seed, &sampling)?;
    Ok(Confirmation {
        traces,
        samples: sampling.samples,
        base_nicv_max: base_max,
        repaired_nicv_max: repaired_max,
        delta: base_max - repaired_max,
    })
}

fn peak_nicv(
    subject: &Subject,
    traces_per_class: usize,
    seed: u64,
    sampling: &SamplingConfig,
) -> Result<(f64, usize), ConfirmError> {
    let classes = subject.num_classes().min(MAX_CLASSES);
    if classes == 0 || traces_per_class == 0 {
        return Err(ConfirmError::NoTraces {
            subject: subject.label().to_string(),
        });
    }
    let mask_bits = subject.mask_bits();
    let mask_mask = if mask_bits == 0 {
        0
    } else if mask_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << mask_bits) - 1
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    // Transition stimuli: a random previous (class, mask) state settles,
    // then the labelled class is applied under a freshly drawn mask — the
    // class-conditional variance NICV measures is exactly the distance
    // leakage the masking should have randomized away.
    let all_classes = subject.num_classes() as u64;
    let schedule: Vec<Stimulus> = (0..classes * traces_per_class)
        .map(|i| {
            let class = i % classes;
            let prev_class: u64 = rng.gen::<u64>() % all_classes;
            let before: u64 = rng.gen::<u64>() & mask_mask;
            let after: u64 = rng.gen::<u64>() & mask_mask;
            Stimulus {
                // `classes` is at most MAX_CLASSES.
                label: class as u16,
                initial: subject.encode(prev_class, before),
                final_inputs: subject.encode(class as u64, after),
            }
        })
        .collect();

    // Noise-free, so the per-trace noise seeds never enter a trace.
    let sim = Simulator::new(subject.netlist(), &SimConfig::default());
    let policy = ExecPolicy {
        workers: 1,
        ..ExecPolicy::default()
    };
    let make = || ClassifiedTraces::new(classes, sampling.samples);
    let (set, _) = fold_schedule_into(
        &sim,
        &schedule,
        sampling,
        seed,
        &policy,
        ResumeState::fresh(),
        &make,
        None,
    );
    let peak = metrics::nicv(&set).into_iter().fold(0.0f64, f64::max);
    Ok((peak, set.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::{SboxCircuit, Scheme};

    #[test]
    fn confirmation_is_deterministic_and_orders_lut_above_isw() {
        let lut = Subject::of_circuit(&SboxCircuit::build(Scheme::Lut));
        let isw = Subject::of_circuit(&SboxCircuit::build(Scheme::Isw));
        let a = confirm(&lut, &isw, 8, 7).expect("confirm");
        let b = confirm(&lut, &isw, 8, 7).expect("confirm");
        assert_eq!(a.base_nicv_max.to_bits(), b.base_nicv_max.to_bits());
        assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        // Unprotected LUT leaks its class hard; masked ISW does not.
        assert!(
            a.base_nicv_max > a.repaired_nicv_max,
            "LUT NICV {} should exceed ISW NICV {}",
            a.base_nicv_max,
            a.repaired_nicv_max
        );
    }

    #[test]
    fn zero_traces_per_class_is_an_error_not_a_panic() {
        let lut = Subject::of_circuit(&SboxCircuit::build(Scheme::Lut));
        let isw = Subject::of_circuit(&SboxCircuit::build(Scheme::Isw));
        let err = confirm(&lut, &isw, 0, 7).expect_err("zero traces per class");
        assert!(matches!(err, ConfirmError::NoTraces { .. }), "{err:?}");
        assert!(err.to_string().contains("no traces"), "{err}");
    }
}
