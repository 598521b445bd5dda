//! Class-balanced two-phase trace capture.
//!
//! Acquisition is split into two pure stages so it can be sharded:
//!
//! 1. **Scheduling** ([`classified_schedule`], [`cpa_schedule`]) — all
//!    mask/plaintext randomness is drawn here, sequentially, from the
//!    protocol seed, producing a list of [`Stimulus`] records;
//! 2. **Capture** — simulating each stimulus, with measurement noise
//!    (if configured) seeded per trace via [`trace_seed`], so trace `i`
//!    is the same no matter which engine or worker captures it, or in
//!    which order.
//!
//! The sequential [`acquire_with_derating`] / [`acquire`] /
//! [`acquire_cpa`] entry points share one event-engine capture loop over
//! these stages: the reference that tests compare the `sca-campaign`
//! executor against. The executor composes the same stages on either
//! engine, which is what makes their outputs bit-identical.

use gatesim::{Derating, SamplingConfig, SimConfig, Simulator};
use leakage_core::ClassifiedTraces;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbox_circuits::SboxCircuit;

/// Acquisition parameters. The default reproduces the paper: 64 traces per
/// class (1024 total), 100 samples over 2 ns, Vdd 1.2 V / 85 °C.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Traces collected for each of the 16 classes.
    pub traces_per_class: usize,
    /// Oscilloscope configuration.
    pub sampling: SamplingConfig,
    /// Electrical/timing simulator configuration.
    pub sim: SimConfig,
    /// Seed for mask randomness and class-order shuffling.
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            traces_per_class: 64,
            sampling: SamplingConfig::default(),
            sim: SimConfig::default(),
            seed: 0xD47E_2022,
        }
    }
}

/// Number of classes (the PRESENT S-box input space).
pub const NUM_CLASSES: usize = 16;

/// One scheduled trace: the label it will carry (class index for the
/// leakage protocol, plaintext nibble for CPA) and the input vectors the
/// circuit transitions between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    /// Class index or plaintext nibble.
    pub label: u16,
    /// Input vector the circuit settles on before t = 0.
    pub initial: Vec<bool>,
    /// Input vector applied at t = 0.
    pub final_inputs: Vec<bool>,
}

impl Stimulus {
    /// Check that this stimulus fits a circuit with `expected_inputs`
    /// primary inputs.
    ///
    /// The simulator asserts these lengths deep inside its transition
    /// loop; validating up front turns a guaranteed-to-repeat panic into
    /// a typed error the campaign executor can quarantine immediately
    /// instead of burning retries on.
    pub fn validate(&self, expected_inputs: usize) -> Result<(), CaptureError> {
        for (what, vector) in [("initial", &self.initial), ("final", &self.final_inputs)] {
            if vector.len() != expected_inputs {
                return Err(CaptureError::InputWidth {
                    label: self.label,
                    vector: what,
                    got: vector.len(),
                    expected: expected_inputs,
                });
            }
        }
        Ok(())
    }
}

/// A stimulus that cannot be captured on the simulator it was handed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// An input vector's width does not match the circuit.
    InputWidth {
        /// The stimulus' label (class or plaintext nibble).
        label: u16,
        /// Which vector is wrong (`"initial"` or `"final"`).
        vector: &'static str,
        /// The vector's length.
        got: usize,
        /// The circuit's primary input count.
        expected: usize,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::InputWidth {
                label,
                vector,
                got,
                expected,
            } => write!(
                f,
                "stimulus (label {label}) has a {vector} vector of {got} inputs; \
                 the circuit has {expected}"
            ),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Derive the measurement-noise seed of trace `index` from the campaign
/// seed (a SplitMix64-style finalizer over both words).
///
/// Seeding per trace — rather than threading one generator through the
/// capture loop — is what lets a sharded executor produce bit-identical
/// traces for any worker count, including the sequential paths in this
/// crate.
pub fn trace_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The full, shuffled stimulus schedule of the leakage protocol; all mask
/// randomness is drawn here, from `config.seed`, before any simulation.
pub fn classified_schedule(circuit: &SboxCircuit, config: &ProtocolConfig) -> Vec<Stimulus> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    stimuli(circuit, config, &mut rng)
        .into_iter()
        .map(|(class, initial, final_inputs)| Stimulus {
            label: class as u16,
            initial,
            final_inputs,
        })
        .collect()
}

/// The one sequential capture loop: capture `schedule` in order on the
/// event engine, seeding trace `i`'s noise with `trace_seed(base_seed,
/// i)` — the executor's per-index seed, so the sharded campaign agrees
/// bit for bit on either engine — and hand each trace to `sink`.
fn capture_schedule(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    mut sink: impl FnMut(&Stimulus, &[f64]),
) {
    let mut session = sim.session();
    let mut trace = Vec::new();
    for (i, s) in schedule.iter().enumerate() {
        let mut noise = SmallRng::seed_from_u64(trace_seed(base_seed, i as u64));
        session.capture_into(
            &s.initial,
            &s.final_inputs,
            sampling,
            &mut noise,
            &mut trace,
        );
        sink(s, &trace);
    }
}

/// Acquire a class-balanced trace set from a fresh (unaged) device on
/// the event engine — the reference the campaign tests compare against.
pub fn acquire(circuit: &SboxCircuit, config: &ProtocolConfig) -> ClassifiedTraces {
    let derating = Derating::fresh(circuit.netlist());
    acquire_with_derating(circuit, config, &derating)
}

/// Acquire a class-balanced trace set from a device with per-gate aging
/// derating applied, on the event engine.
pub fn acquire_with_derating(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    derating: &Derating,
) -> ClassifiedTraces {
    let sim = Simulator::with_derating(circuit.netlist(), &config.sim, derating);
    let schedule = classified_schedule(circuit, config);
    let mut set = ClassifiedTraces::new(NUM_CLASSES, config.sampling.samples);
    capture_schedule(
        &sim,
        &schedule,
        &config.sampling,
        config.seed,
        |s, trace| set.push(usize::from(s.label), trace.to_vec()),
    );
    set
}

/// The balanced, shuffled stimulus schedule: `(class, initial, final)`
/// triples in acquisition order.
///
/// Mask randomness is sampled **stratified per class**: each independent
/// mask subfield (MI, MO, gadget R, TI share triplets) cycles through its
/// value space an equal number of times within a class's batch before
/// being shuffled. This is the "non-biased evaluation … fair comparison"
/// of paper §V-A: with only 64 traces per class, i.i.d. mask draws would
/// leave sampling noise that swamps the small residual leakage of the
/// masked styles.
fn stimuli(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    rng: &mut SmallRng,
) -> Vec<(usize, Vec<bool>, Vec<bool>)> {
    let enc = circuit.encoding();
    let mut all = Vec::with_capacity(NUM_CLASSES * config.traces_per_class);
    for class in 0..NUM_CLASSES {
        let final_masks = balanced_mask_words(enc, config.traces_per_class, rng);
        // Initial masks are the final masks XOR a *balanced difference*:
        // the mask-transition statistics (which drive switching energy)
        // are then identical across classes, so mask-pairing sampling
        // noise cannot masquerade as class leakage.
        let diffs = balanced_mask_words(enc, config.traces_per_class, rng);
        for (fm, d) in final_masks.into_iter().zip(diffs) {
            let initial = enc.encode_masked(0, fm ^ d);
            let final_inputs = enc.encode_masked(class as u8, fm);
            all.push((class, initial, final_inputs));
        }
    }
    all.shuffle(rng);
    all
}

/// Mask words whose independent subfields are each exactly balanced over
/// their value space (up to remainder when `count` is not a multiple),
/// shuffled so subfields pair randomly.
fn balanced_mask_words(
    enc: &sbox_circuits::InputEncoding,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<u32> {
    let fields = enc.mask_fields();
    let mut words = vec![0u32; count];
    let mut shift = 0usize;
    for &width in fields {
        let size = 1usize << width;
        let mut vals: Vec<u32> = (0..count).map(|i| (i % size) as u32).collect();
        vals.shuffle(rng);
        for (word, v) in words.iter_mut().zip(vals) {
            *word |= v << shift;
        }
        shift += width;
    }
    words
}

/// Traces labelled with known plaintexts for a CPA experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaAcquisition {
    /// The secret key nibble the traces were captured under.
    pub key: u8,
    /// Plaintext nibble of each trace.
    pub plaintexts: Vec<u8>,
    /// Power trace of each acquisition.
    pub traces: Vec<Vec<f64>>,
}

/// The CPA stimulus schedule: uniformly random plaintext nibbles (stored
/// as each stimulus' label), the round-key addition `t = p ⊕ k` applied
/// in the (unmasked) stimulus domain, masks fresh per trace. All
/// randomness is drawn here, from `config.seed`, before any simulation.
///
/// # Panics
///
/// Panics if `key >= 16` or `traces == 0`.
pub fn cpa_schedule(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    key: u8,
    traces: usize,
) -> Vec<Stimulus> {
    assert!(key < 16);
    assert!(traces > 0);
    let mut rng = SmallRng::seed_from_u64(cpa_seed(config));
    (0..traces)
        .map(|_| {
            let p: u8 = rng.gen_range(0..16);
            let t = p ^ key;
            Stimulus {
                label: u16::from(p),
                initial: circuit.encoding().encode(0, &mut rng),
                final_inputs: circuit.encoding().encode(t, &mut rng),
            }
        })
        .collect()
}

/// The seed domain of the CPA protocol (kept distinct from the leakage
/// protocol so the two never share mask or noise streams).
pub fn cpa_seed(config: &ProtocolConfig) -> u64 {
    config.seed ^ 0xC0FF_EE00
}

/// Acquire an attack dataset (see [`cpa_schedule`] for the protocol).
///
/// # Panics
///
/// Panics if `key >= 16` or `traces == 0`.
pub fn acquire_cpa(
    circuit: &SboxCircuit,
    config: &ProtocolConfig,
    key: u8,
    traces: usize,
) -> CpaAcquisition {
    let sim = Simulator::new(circuit.netlist(), &config.sim);
    let schedule = cpa_schedule(circuit, config, key, traces);
    let mut plaintexts = Vec::with_capacity(traces);
    let mut out = Vec::with_capacity(traces);
    capture_schedule(
        &sim,
        &schedule,
        &config.sampling,
        cpa_seed(config),
        |s, trace| {
            plaintexts.push(s.label as u8);
            out.push(trace.to_vec());
        },
    );
    CpaAcquisition {
        key,
        plaintexts,
        traces: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::Scheme;

    fn small_config() -> ProtocolConfig {
        ProtocolConfig {
            traces_per_class: 4,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn classes_are_balanced_and_complete() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let set = acquire(&circuit, &small_config());
        assert_eq!(set.len(), 64);
        assert_eq!(set.class_counts(), vec![4; 16]);
        assert_eq!(set.samples(), 100);
    }

    #[test]
    fn acquisition_is_deterministic_in_the_seed() {
        let circuit = SboxCircuit::build(Scheme::Rsm);
        let a = acquire(&circuit, &small_config());
        let b = acquire(&circuit, &small_config());
        assert_eq!(a, b);
        let other = acquire(
            &circuit,
            &ProtocolConfig {
                seed: 1,
                ..small_config()
            },
        );
        assert_ne!(a, other);
    }

    #[test]
    fn unprotected_traces_differ_by_class() {
        let circuit = SboxCircuit::build(Scheme::Lut);
        let set = acquire(&circuit, &small_config());
        let means = set.class_means();
        let m0: f64 = means[0].iter().sum();
        assert!(
            (1..16).any(|c| (means[c].iter().sum::<f64>() - m0).abs() > 1e-9),
            "all class means identical — no signal at all?"
        );
    }

    #[test]
    fn class_zero_final_values_cause_least_activity() {
        // Initial and final both encode class 0 for unprotected circuits:
        // identical inputs → zero events → an all-zero class-0 mean.
        let circuit = SboxCircuit::build(Scheme::Opt);
        let set = acquire(&circuit, &small_config());
        let means = set.class_means();
        assert!(means[0].iter().all(|&p| p == 0.0));
        assert!(means[5].iter().any(|&p| p > 0.0));
    }

    #[test]
    fn mask_subfields_are_exactly_balanced() {
        let mut rng = SmallRng::seed_from_u64(99);
        for scheme in [Scheme::Glut, Scheme::Rsm, Scheme::Isw, Scheme::Ti] {
            let enc = sbox_circuits::InputEncoding::for_scheme(scheme);
            let words = balanced_mask_words(&enc, 64, &mut rng);
            assert_eq!(words.len(), 64);
            let mut shift = 0usize;
            for &width in enc.mask_fields() {
                let size = 1usize << width;
                let mut counts = vec![0usize; size];
                for &w in &words {
                    counts[((w >> shift) as usize) & (size - 1)] += 1;
                }
                let expect = 64 / size;
                assert!(
                    counts.iter().all(|&c| c == expect),
                    "{scheme} field at {shift}: {counts:?}"
                );
                shift += width;
            }
        }
    }

    #[test]
    fn unprotected_mask_words_are_all_zero() {
        let mut rng = SmallRng::seed_from_u64(100);
        let enc = sbox_circuits::InputEncoding::for_scheme(Scheme::Lut);
        let words = balanced_mask_words(&enc, 16, &mut rng);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn stimuli_are_shuffled_across_classes() {
        // Acquisition order must interleave classes (no block structure
        // that would alias drift into class means).
        let circuit = SboxCircuit::build(Scheme::Opt);
        let set = acquire(&circuit, &small_config());
        let labels: Vec<usize> = set.iter().map(|(c, _)| c).collect();
        let sorted = {
            let mut l = labels.clone();
            l.sort_unstable();
            l
        };
        assert_ne!(labels, sorted, "stimulus order should be shuffled");
    }

    #[test]
    fn schedule_and_per_trace_seeds_reproduce_acquire() {
        // Capturing the schedule out of order with per-trace seeds must
        // agree with the sequential path — the invariant the parallel
        // campaign executor stands on.
        let circuit = SboxCircuit::build(Scheme::Isw);
        let config = small_config();
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

    #[test]
    fn malformed_stimuli_fail_validation_with_a_typed_error() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let good = classified_schedule(&circuit, &small_config()).remove(0);
        assert!(good.validate(circuit.netlist().num_inputs()).is_ok());

        let mut bad = good.clone();
        bad.final_inputs.push(false);
        let err = bad
            .validate(circuit.netlist().num_inputs())
            .expect_err("wrong width must fail");
        assert!(err.to_string().contains("final vector"));
        let mut short = good;
        short.initial.pop();
        assert!(short
            .validate(circuit.netlist().num_inputs())
            .is_err_and(|e| e.to_string().contains("initial vector")));
    }

    #[test]
    fn trace_seeds_decorrelate() {
        let a = trace_seed(1, 0);
        let b = trace_seed(1, 1);
        let c = trace_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trace_seed(1, 0));
    }

    #[test]
    fn cpa_dataset_has_uniformish_plaintexts() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let data = acquire_cpa(&circuit, &small_config(), 0xB, 256);
        assert_eq!(data.traces.len(), 256);
        let mut counts = [0usize; 16];
        for &p in &data.plaintexts {
            counts[usize::from(p)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
    }
}
