//! Pluggable attack distinguishers over the streaming co-moment state.
//!
//! A distinguisher maps each trace's known plaintext nibble, under every
//! key guess, to one or more *hypothesis components* — real-valued
//! predictions whose statistical relationship with the measured power
//! identifies the key:
//!
//! * **CPA** (Brier–Clavier–Olivier): one component per guess, a
//!   [`LeakageModel`] prediction of `S(p ⊕ k̂)`; scored by the peak
//!   absolute Pearson correlation over samples.
//! * **DPA** (difference of means, after the Gamaarachchi–Ganegoda
//!   tutorial): one binary component per guess — a selection bit of
//!   `S(p ⊕ k̂)` partitions traces into two sets; scored by the peak
//!   absolute difference of the partition means.
//! * **MLPA** (Roche–Tavernier multi-linear combination): one
//!   component per S-box output bit — the four single-bit linear
//!   approximations `⟨2ᵇ, S(p ⊕ k̂)⟩`; scored by the peak over samples
//!   of `Σ_b ρ_b²`, combining all of them instead of betting on a
//!   single model. The combination is deliberately restricted to the
//!   single-bit masks: the fifteen nonzero parities of a bijective
//!   S-box output form a complete orthogonal basis of balanced
//!   functions, so summing `ρ²` over *all* of them yields the same
//!   total explained variance for every key guess — no distinguishing
//!   power at all. Low-weight approximations are exactly where physical
//!   leakage concentrates (the paper's single-bit spectral sources), and
//!   wrong guesses scatter that energy into higher-order parities the
//!   combination ignores.
//!
//! All three extract their statistics from the same
//! [`CoMomentAccumulator`]
//! cells, so they share one streaming fold and inherit its merge
//! invariance.

use crate::LeakageModel;
use leakage_core::comoment::{CellReader, CoMomentAccumulator};
use present_cipher::sbox;

/// Number of key guesses for the 4-bit S-box.
pub const NUM_GUESSES: usize = 16;

/// Number of single-bit linear approximations the MLPA distinguisher
/// combines (one per S-box output bit).
pub const MLPA_MASKS: usize = 4;

/// A streaming key-recovery distinguisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distinguisher {
    /// Correlation power analysis under one leakage model.
    Cpa(LeakageModel),
    /// Difference-of-means DPA on one selection bit (0–3) of the S-box
    /// output.
    Dpa {
        /// Which output bit partitions the traces.
        bit: u8,
    },
    /// Multi-linear power analysis: the four single-bit linear
    /// approximations of the S-box output, combined by summed squared
    /// correlation.
    Mlpa,
}

impl Distinguisher {
    /// Hypothesis components per key guess.
    pub fn components(&self) -> usize {
        match self {
            Distinguisher::Cpa(_) | Distinguisher::Dpa { .. } => 1,
            Distinguisher::Mlpa => MLPA_MASKS,
        }
    }

    /// Total hypothesis channels (`guesses × components`); the channel
    /// of `(guess, component)` is `guess * components + component`.
    pub fn channels(&self) -> usize {
        NUM_GUESSES * self.components()
    }

    /// Stable label for reports and file names.
    pub fn label(&self) -> String {
        match self {
            Distinguisher::Cpa(LeakageModel::HammingWeight) => "cpa-hw".into(),
            Distinguisher::Cpa(LeakageModel::HammingDistance) => "cpa-hd".into(),
            Distinguisher::Cpa(LeakageModel::Lsb) => "cpa-lsb".into(),
            Distinguisher::Cpa(LeakageModel::OutputTransition) => "cpa-transition".into(),
            Distinguisher::Dpa { bit } => format!("dpa-b{bit}"),
            Distinguisher::Mlpa => "mlpa".into(),
        }
    }

    /// The hypothesis value of one component for `(plaintext, guess)`.
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range for this distinguisher.
    pub fn hypothesis(&self, plaintext: u8, guess: u8, component: usize) -> f64 {
        assert!(component < self.components(), "component out of range");
        match self {
            Distinguisher::Cpa(model) => model.predict(plaintext, guess),
            Distinguisher::Dpa { bit } => {
                let out = sbox((plaintext ^ guess) & 0xF);
                f64::from((out >> (bit & 3)) & 1)
            }
            Distinguisher::Mlpa => {
                let out = sbox((plaintext ^ guess) & 0xF);
                f64::from((out >> component) & 1)
            }
        }
    }

    /// The score and peak sample index of one key guess, extracted from
    /// the folded co-moment state. Higher is more likely; ties keep the
    /// earliest sample.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator's channel count does not match
    /// [`channels`](Self::channels) or `guess >= 16`.
    pub fn score(&self, acc: &CoMomentAccumulator, guess: u8) -> (f64, usize) {
        self.score_cells(&acc.cells(), guess)
    }

    /// [`score`](Self::score) through a [`CellReader`], whose marginal
    /// sums were rounded once for the state: scoring all 16 guesses
    /// through one reader reads each marginal once per snapshot, not
    /// once per `(channel, sample)` cell. Same bits as `score`.
    ///
    /// # Panics
    ///
    /// As [`score`](Self::score).
    pub fn score_cells(&self, cells: &CellReader<'_>, guess: u8) -> (f64, usize) {
        assert_eq!(cells.channels(), self.channels(), "channel layout mismatch");
        assert!(usize::from(guess) < NUM_GUESSES, "guess out of range");
        let components = self.components();
        let base = usize::from(guess) * components;
        let mut best = 0.0f64;
        let mut best_t = 0usize;
        for t in 0..cells.samples() {
            let s = match self {
                Distinguisher::Cpa(_) => cells.pearson(base, t).abs(),
                Distinguisher::Dpa { .. } => cells.difference_of_means(base, t).abs(),
                Distinguisher::Mlpa => (0..components)
                    .map(|m| {
                        let rho = cells.pearson(base + m, t);
                        rho * rho
                    })
                    .sum(),
            };
            if s > best {
                best = s;
                best_t = t;
            }
        }
        (best, best_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_counts_match_components() {
        assert_eq!(
            Distinguisher::Cpa(LeakageModel::HammingWeight).channels(),
            16
        );
        assert_eq!(Distinguisher::Dpa { bit: 2 }.channels(), 16);
        assert_eq!(Distinguisher::Mlpa.channels(), 64);
    }

    #[test]
    fn dpa_hypothesis_is_the_selection_bit() {
        for p in 0..16u8 {
            for g in 0..16u8 {
                for bit in 0..4u8 {
                    let h = Distinguisher::Dpa { bit }.hypothesis(p, g, 0);
                    let want = f64::from((sbox(p ^ g) >> bit) & 1);
                    assert_eq!(h, want);
                }
            }
        }
    }

    #[test]
    fn mlpa_components_are_the_output_bits() {
        let d = Distinguisher::Mlpa;
        for comp in 0..MLPA_MASKS {
            let mut seen = [false; 2];
            for p in 0..16u8 {
                let h = d.hypothesis(p, 0, comp);
                assert_eq!(h, f64::from((sbox(p) >> comp) & 1));
                seen[h as usize] = true;
            }
            assert!(seen[0] && seen[1], "bit {comp} is constant");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            Distinguisher::Cpa(LeakageModel::HammingWeight).label(),
            "cpa-hw"
        );
        assert_eq!(Distinguisher::Dpa { bit: 0 }.label(), "dpa-b0");
        assert_eq!(Distinguisher::Mlpa.label(), "mlpa");
    }

    /// The scoring loop before the marginals were hoisted: every cell
    /// reads its own marginal sums.
    fn per_cell_score(d: Distinguisher, acc: &CoMomentAccumulator, guess: u8) -> (f64, usize) {
        let components = d.components();
        let base = usize::from(guess) * components;
        let mut best = 0.0f64;
        let mut best_t = 0usize;
        for t in 0..acc.samples() {
            let s = match d {
                Distinguisher::Cpa(_) => acc.pearson(base, t).abs(),
                Distinguisher::Dpa { .. } => acc.difference_of_means(base, t).abs(),
                Distinguisher::Mlpa => (0..components)
                    .map(|m| {
                        let rho = acc.pearson(base + m, t);
                        rho * rho
                    })
                    .sum(),
            };
            if s > best {
                best = s;
                best_t = t;
            }
        }
        (best, best_t)
    }

    #[test]
    fn hoisted_marginals_score_like_per_cell_reads() {
        const SAMPLES: usize = 5;
        // Channel 5 never selects: an all-zero channel in every layout.
        const SILENT: usize = 5;
        let distinguishers = [
            Distinguisher::Cpa(LeakageModel::HammingWeight),
            Distinguisher::Cpa(LeakageModel::OutputTransition),
            Distinguisher::Dpa { bit: 1 },
            Distinguisher::Mlpa,
        ];
        let mut r = 0x5C0E_u64;
        let mut next = move || {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            r
        };
        for d in distinguishers {
            for n in [0usize, 1, 2, 40] {
                let mut acc = CoMomentAccumulator::new(d.channels(), SAMPLES);
                for _ in 0..n {
                    let p = (next() % 16) as u8;
                    let mut h: Vec<f64> = (0..d.channels())
                        .map(|ch| {
                            let (g, c) = (ch / d.components(), ch % d.components());
                            d.hypothesis(p, g as u8, c)
                        })
                        .collect();
                    h[SILENT] = 0.0;
                    // Sample 0 is constant, sample 1 mostly zero, the
                    // rest signed noise with some leakage of guess 3.
                    let leak = h[3 * d.components()];
                    let trace: Vec<f64> = (0..SAMPLES)
                        .map(|t| match t {
                            0 => 0.75,
                            1 if next() % 4 != 0 => 0.0,
                            _ => leak * 0.25 + ((next() >> 11) as f64 / 2f64.powi(53) - 0.5),
                        })
                        .collect();
                    acc.fold(&h, &trace);
                }
                let cells = acc.cells();
                for guess in 0..NUM_GUESSES as u8 {
                    let want = per_cell_score(d, &acc, guess);
                    for got in [d.score(&acc, guess), d.score_cells(&cells, guess)] {
                        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{d:?} n={n}");
                        assert_eq!(got.1, want.1, "{d:?} n={n}");
                    }
                }
                for c in 0..d.channels() {
                    for t in 0..SAMPLES {
                        let what = format!("{d:?} n={n} cell ({c}, {t})");
                        assert_eq!(
                            cells.pearson(c, t).to_bits(),
                            acc.pearson(c, t).to_bits(),
                            "{what}"
                        );
                        assert_eq!(
                            cells.difference_of_means(c, t).to_bits(),
                            acc.difference_of_means(c, t).to_bits(),
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
