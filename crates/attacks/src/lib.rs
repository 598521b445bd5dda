//! Streaming key-recovery attacks — the adversary the paper's leakage
//! metrics predict.
//!
//! The paper's introduction frames the whole study around CPA (Brier–
//! Clavier–Olivier): an adversary correlates measured power with a
//! hypothetical leakage model of `S(p ⊕ k̂)` for every key guess `k̂` and
//! keeps the guess with the strongest statistic. This crate implements
//! that adversary as a *streaming* subsystem over the campaign engine's
//! mergeable accumulators:
//!
//! * [`distinguisher`] — pluggable scoring rules: CPA under the
//!   standard [`LeakageModel`]s, difference-of-means DPA, and the
//!   Roche–Tavernier MLPA multi-linear combination;
//! * [`streaming`] — constant-memory per-guess co-moment state
//!   ([`AttackAccumulator`]), a fold state of the campaign's
//!   chunk grid (`leakage_core::online`); its exact sums make it
//!   bit-identical at any worker count and to the batch reference;
//! * [`evaluate`] — success rate, guessing entropy, and
//!   measurements-to-disclosure from incremental prefix evaluation;
//! * [`second_order`] / [`template`] — centered-product second-order
//!   CPA and profiled template attacks on materialized trace sets.
//!
//! The batch entry points ([`cpa_attack`], [`dpa_attack`],
//! [`mlpa_attack`]) are thin wrappers that fold the dataset through the
//! same accumulator, so batch and streamed results agree bitwise.
//!
//! # Example
//!
//! ```
//! use sca_attacks::{cpa_attack, LeakageModel};
//!
//! // Synthetic traces that leak HW(S(p ^ 0xB)) at sample 0.
//! let key = 0xB;
//! let plaintexts: Vec<u8> = (0..64).map(|i| (i % 16) as u8).collect();
//! let traces: Vec<Vec<f64>> = plaintexts
//!     .iter()
//!     .map(|&p| vec![f64::from(present_cipher::sbox(p ^ key).count_ones())])
//!     .collect();
//! let result = cpa_attack(&plaintexts, &traces, LeakageModel::HammingWeight);
//! assert_eq!(result.best_guess(), key);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distinguisher;
pub mod evaluate;
pub mod second_order;
pub mod streaming;
pub mod template;

pub use distinguisher::Distinguisher;
pub use evaluate::{
    guessing_entropy, measurements_to_disclosure, success_rate_curve, PrefixEvaluator,
};
pub use streaming::{attack_batch, AttackAccumulator};

use present_cipher::sbox;

/// Hypothetical power models for the round-1 S-box output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakageModel {
    /// Hamming weight of `S(p ⊕ k̂)`.
    HammingWeight,
    /// Hamming distance between the S-box input and output (a transition
    /// model matching the capture protocol's initial/final structure).
    HammingDistance,
    /// The least significant bit of `S(p ⊕ k̂)` — the single-bit model
    /// connected to the paper's Theorem 1.
    Lsb,
    /// Datapath transition weight from the protocol's fixed class-0
    /// initial state: `w_H(p ⊕ k̂) + w_H(S(0) ⊕ S(p ⊕ k̂))` — the model
    /// matched to the paper's two-phase capture, where every trace starts
    /// from an encoding of class 0.
    OutputTransition,
}

impl LeakageModel {
    /// The predicted leakage for one plaintext nibble under key guess `k`.
    pub fn predict(self, plaintext: u8, key_guess: u8) -> f64 {
        let input = (plaintext ^ key_guess) & 0xF;
        let output = sbox(input);
        match self {
            LeakageModel::HammingWeight => f64::from(output.count_ones()),
            LeakageModel::HammingDistance => f64::from((input ^ output).count_ones()),
            LeakageModel::Lsb => f64::from(output & 1),
            LeakageModel::OutputTransition => {
                f64::from(input.count_ones()) + f64::from((sbox(0) ^ output).count_ones())
            }
        }
    }
}

/// The outcome of a key-recovery attack: per-guess scores (higher is
/// more likely) and the sample index where each guess peaked. For CPA
/// the score is the peak |ρ|; for DPA the peak |difference of means|;
/// for MLPA the peak summed squared correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaResult {
    /// `scores[k]` = the distinguisher's statistic for guess `k`.
    pub scores: [f64; 16],
    /// For each guess, the sample index where the peak occurred.
    pub peak_samples: [usize; 16],
}

impl CpaResult {
    /// The key guess with the highest score.
    pub fn best_guess(&self) -> u8 {
        self.scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k as u8)
            .expect("16 guesses")
    }

    /// Rank of the true key (0 = attack succeeded).
    pub fn key_rank(&self, true_key: u8) -> usize {
        let own = self.scores[usize::from(true_key)];
        self.scores.iter().filter(|&&s| s > own).count()
    }

    /// Guesses ordered from most to least likely.
    pub fn ranking(&self) -> [u8; 16] {
        let mut order: Vec<u8> = (0..16).collect();
        order.sort_by(|&a, &b| self.scores[usize::from(b)].total_cmp(&self.scores[usize::from(a)]));
        order.try_into().expect("16 guesses")
    }
}

/// Run a CPA attack over all 16 key guesses (batch wrapper over the
/// streaming fold; see [`attack_batch`]).
///
/// # Panics
///
/// Panics if `plaintexts` and `traces` differ in length, are empty, or the
/// traces are ragged.
pub fn cpa_attack(plaintexts: &[u8], traces: &[Vec<f64>], model: LeakageModel) -> CpaResult {
    attack_batch(plaintexts, traces, Distinguisher::Cpa(model)).scores()
}

/// Run a difference-of-means DPA on selection bit `bit` (0–3) of the
/// S-box output.
///
/// # Panics
///
/// As for [`cpa_attack`].
pub fn dpa_attack(plaintexts: &[u8], traces: &[Vec<f64>], bit: u8) -> CpaResult {
    attack_batch(plaintexts, traces, Distinguisher::Dpa { bit }).scores()
}

/// Run an MLPA attack combining the four single-bit linear
/// approximations of the S-box output (see
/// [`Distinguisher::Mlpa`]).
///
/// # Panics
///
/// As for [`cpa_attack`].
pub fn mlpa_attack(plaintexts: &[u8], traces: &[Vec<f64>]) -> CpaResult {
    attack_batch(plaintexts, traces, Distinguisher::Mlpa).scores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_dataset(key: u8, n: usize, noise: f64, seed: u64) -> (Vec<u8>, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plaintexts: Vec<u8> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let traces = plaintexts
            .iter()
            .map(|&p| {
                let hw = f64::from(sbox(p ^ key).count_ones());
                vec![
                    rng.gen::<f64>(),                      // pure noise sample
                    hw + noise * (rng.gen::<f64>() - 0.5), // leaking sample
                ]
            })
            .collect();
        (plaintexts, traces)
    }

    #[test]
    fn recovers_the_key_from_clean_traces() {
        for key in 0..16u8 {
            let (p, t) = synthetic_dataset(key, 128, 0.0, 42);
            let r = cpa_attack(&p, &t, LeakageModel::HammingWeight);
            assert_eq!(r.best_guess(), key, "key {key}");
            assert_eq!(r.key_rank(key), 0);
            assert_eq!(
                r.peak_samples[usize::from(key)],
                1,
                "peak at leaking sample"
            );
        }
    }

    #[test]
    fn recovers_the_key_under_noise() {
        let (p, t) = synthetic_dataset(0x7, 512, 4.0, 7);
        let r = cpa_attack(&p, &t, LeakageModel::HammingWeight);
        assert_eq!(r.best_guess(), 0x7);
    }

    #[test]
    fn dpa_and_mlpa_recover_the_key_too() {
        // Identity leaker: single-bit DPA needs a leak it can uniquely
        // attribute (a pure HW leak ties eight guesses by symmetry).
        let mut rng = SmallRng::seed_from_u64(8);
        let key = 0xD;
        let p: Vec<u8> = (0..512).map(|_| rng.gen_range(0..16)).collect();
        let t: Vec<Vec<f64>> = p
            .iter()
            .map(|&pt| vec![f64::from(sbox(pt ^ key)) + 2.0 * (rng.gen::<f64>() - 0.5)])
            .collect();
        assert_eq!(dpa_attack(&p, &t, 3).best_guess(), key);
        assert_eq!(mlpa_attack(&p, &t).best_guess(), key);
    }

    #[test]
    fn ranking_is_a_permutation() {
        let (p, t) = synthetic_dataset(0x3, 64, 1.0, 9);
        let r = cpa_attack(&p, &t, LeakageModel::HammingWeight);
        let mut sorted = r.ranking().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn success_rate_increases_with_traces() {
        let (p, t) = synthetic_dataset(0xC, 512, 8.0, 11);
        let curve = success_rate_curve(&p, &t, 0xC, LeakageModel::HammingWeight, &[8, 256], 16);
        assert!(curve[1].1 >= curve[0].1, "{curve:?}");
        assert!(curve[1].1 > 0.9);
    }

    #[test]
    fn guessing_entropy_drops_with_traces() {
        let (p, t) = synthetic_dataset(0x5, 512, 12.0, 13);
        let few = guessing_entropy(&p, &t, 0x5, LeakageModel::HammingWeight, 8, 16);
        let many = guessing_entropy(&p, &t, 0x5, LeakageModel::HammingWeight, 400, 16);
        assert!(many <= few, "{many} !<= {few}");
    }

    #[test]
    fn models_predict_in_expected_ranges() {
        for p in 0..16u8 {
            for k in 0..16u8 {
                assert!((0.0..=4.0).contains(&LeakageModel::HammingWeight.predict(p, k)));
                assert!((0.0..=4.0).contains(&LeakageModel::HammingDistance.predict(p, k)));
                let lsb = LeakageModel::Lsb.predict(p, k);
                assert!(lsb == 0.0 || lsb == 1.0);
                assert!((0.0..=8.0).contains(&LeakageModel::OutputTransition.predict(p, k)));
            }
        }
    }
}
