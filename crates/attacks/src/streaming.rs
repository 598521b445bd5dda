//! Streaming attack state: constant-memory, mergeable key-recovery
//! accumulators.
//!
//! [`AttackAccumulator`] folds `(plaintext, trace)` pairs one at a time
//! into per-guess, per-sample co-moment state
//! ([`CoMomentAccumulator`]). It is a [`FoldState`], so the chunk grid
//! of `leakage_core::online` ([`ChunkFold`](leakage_core::online::ChunkFold)
//! sequentially, the campaign executor sharded) folds a schedule to the
//! same bits at any worker count: its exact sums make the extracted
//! scores invariant under *any* regrouping — bit-identical to the
//! batch reference [`attack_batch`].
//!
//! The hypothesis values depend only on the 4-bit plaintext and guess,
//! so each accumulator precomputes the full `16 × channels` hypothesis
//! table once; folding a trace is a table row lookup plus one co-moment
//! update.

use crate::distinguisher::{Distinguisher, NUM_GUESSES};
use crate::CpaResult;
use leakage_core::comoment::CoMomentAccumulator;
use leakage_core::online::{FoldState, SumMode};

/// Streaming per-guess attack state for one distinguisher.
#[derive(Debug, Clone)]
pub struct AttackAccumulator {
    distinguisher: Distinguisher,
    /// Hypothesis table: row `p` holds the channel vector for plaintext
    /// `p` (`16 × channels`, row-major).
    table: Vec<f64>,
    inner: CoMomentAccumulator,
}

impl AttackAccumulator {
    /// Empty accumulator for `samples`-point traces. `_mode` is always
    /// [`SumMode::Exact`].
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(distinguisher: Distinguisher, samples: usize, _mode: SumMode) -> Self {
        let channels = distinguisher.channels();
        let components = distinguisher.components();
        let mut table = Vec::with_capacity(16 * channels);
        for p in 0..16u8 {
            for g in 0..NUM_GUESSES as u8 {
                for c in 0..components {
                    table.push(distinguisher.hypothesis(p, g, c));
                }
            }
        }
        Self {
            distinguisher,
            table,
            inner: CoMomentAccumulator::new(channels, samples),
        }
    }

    /// The distinguisher this accumulator scores.
    pub fn distinguisher(&self) -> Distinguisher {
        self.distinguisher
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.inner.samples()
    }

    /// Traces folded (or merged in) so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Fold one trace captured under plaintext nibble `plaintext`.
    ///
    /// # Panics
    ///
    /// Panics if the trace length differs from `samples`.
    pub fn fold(&mut self, plaintext: u8, trace: &[f64]) {
        let channels = self.inner.channels();
        let row = usize::from(plaintext & 0xF) * channels;
        self.inner.fold(&self.table[row..row + channels], trace);
    }

    /// Merge another shard into this one in place; `self` is the
    /// earlier shard.
    ///
    /// # Panics
    ///
    /// Panics if the distinguishers or shapes differ.
    pub fn merge_from(&mut self, other: &AttackAccumulator) {
        assert_eq!(
            self.distinguisher, other.distinguisher,
            "distinguisher mismatch"
        );
        self.inner.merge_from(&other.inner);
    }

    /// Per-guess scores and peak samples extracted from the folded
    /// state.
    pub fn scores(&self) -> CpaResult {
        let cells = self.inner.cells();
        let mut scores = [0.0f64; NUM_GUESSES];
        let mut peak_samples = [0usize; NUM_GUESSES];
        for g in 0..NUM_GUESSES {
            let (s, t) = self.distinguisher.score_cells(&cells, g as u8);
            scores[g] = s;
            peak_samples[g] = t;
        }
        CpaResult {
            scores,
            peak_samples,
        }
    }

    /// Number of `f64` values currently held (hypothesis table
    /// excluded — it is shape-constant).
    pub fn resident_floats(&self) -> usize {
        self.inner.resident_floats()
    }
}

impl FoldState for AttackAccumulator {
    fn fold(&mut self, label: u16, trace: &[f64]) {
        AttackAccumulator::fold(self, label as u8, trace);
    }

    fn merge(mut self, later: Self) -> Self {
        self.merge_from(&later);
        self
    }
}

/// Batch reference: fold the whole dataset into one accumulator (no
/// chunk grid). Any streamed or sharded fold of the same data extracts
/// bit-identical scores.
///
/// # Panics
///
/// Panics if `plaintexts` and `traces` differ in length, are empty, or
/// the traces are ragged.
pub fn attack_batch(
    plaintexts: &[u8],
    traces: &[Vec<f64>],
    distinguisher: Distinguisher,
) -> AttackAccumulator {
    assert_eq!(plaintexts.len(), traces.len());
    assert!(!traces.is_empty());
    let samples = traces[0].len();
    assert!(traces.iter().all(|t| t.len() == samples), "ragged traces");
    let mut acc = AttackAccumulator::new(distinguisher, samples, SumMode::Exact);
    for (&p, t) in plaintexts.iter().zip(traces) {
        acc.fold(p, t);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeakageModel;
    use leakage_core::online::{ChunkFold, TreeReducer, FOLD_CHUNK};
    use present_cipher::sbox;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Identity leaker: sample 1 leaks the raw S-box output value, the
    /// leak every distinguisher here can uniquely attribute (a pure
    /// Hamming-weight leak ties eight guesses under single-bit DPA).
    fn synthetic(key: u8, n: usize, noise: f64, seed: u64) -> (Vec<u8>, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plaintexts: Vec<u8> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let traces = plaintexts
            .iter()
            .map(|&p| {
                let v = f64::from(sbox(p ^ key));
                vec![rng.gen::<f64>(), v + noise * (rng.gen::<f64>() - 0.5)]
            })
            .collect();
        (plaintexts, traces)
    }

    const ALL: [Distinguisher; 3] = [
        Distinguisher::Cpa(LeakageModel::HammingWeight),
        Distinguisher::Dpa { bit: 3 },
        Distinguisher::Mlpa,
    ];

    /// The pairs folded in order through the chunk grid.
    fn chunk_fold(d: Distinguisher, p: &[u8], t: &[Vec<f64>]) -> AttackAccumulator {
        let mut fold = ChunkFold::new(AttackAccumulator::new(d, 2, SumMode::Exact));
        for (&pt, tr) in p.iter().zip(t) {
            fold.fold(u16::from(pt), tr);
        }
        fold.finish()
    }

    #[test]
    fn every_distinguisher_recovers_the_key() {
        let (p, t) = synthetic(0xA, 256, 1.0, 3);
        for d in ALL {
            let r = attack_batch(&p, &t, d).scores();
            assert_eq!(r.best_guess(), 0xA, "{}", d.label());
            assert_eq!(r.peak_samples[0xA], 1, "{} peak", d.label());
        }
    }

    #[test]
    fn exact_chunk_fold_matches_batch_bitwise() {
        let (p, t) = synthetic(0x6, 3 * FOLD_CHUNK + 5, 2.0, 17);
        for d in ALL {
            let batch = attack_batch(&p, &t, d).scores();
            let streamed = chunk_fold(d, &p, &t).scores();
            for g in 0..16 {
                assert_eq!(
                    batch.scores[g].to_bits(),
                    streamed.scores[g].to_bits(),
                    "{} guess {g}",
                    d.label()
                );
                assert_eq!(batch.peak_samples[g], streamed.peak_samples[g]);
            }
        }
    }

    /// The scores do not depend on how the traces are cut into leaves:
    /// hand-cut leaves of any size reduce to the batch bits.
    #[test]
    fn exact_scores_are_invariant_under_leaf_size() {
        let (p, t) = synthetic(0x9, 5 * FOLD_CHUNK + 3, 1.0, 37);
        for d in ALL {
            let batch = attack_batch(&p, &t, d).scores();
            for leaf_size in [1usize, 3, 7, 64, 1024] {
                let mut reducer = TreeReducer::new();
                for (i, (pc, tc)) in p.chunks(leaf_size).zip(t.chunks(leaf_size)).enumerate() {
                    let mut leaf = AttackAccumulator::new(d, 2, SumMode::Exact);
                    for (&pt, tr) in pc.iter().zip(tc) {
                        leaf.fold(pt, tr);
                    }
                    reducer.push(i as u64, leaf);
                }
                let scores = reducer.finish().unwrap().scores();
                for g in 0..16 {
                    assert_eq!(
                        batch.scores[g].to_bits(),
                        scores.scores[g].to_bits(),
                        "{} leaf size {leaf_size} guess {g}",
                        d.label()
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_fold_counts_every_trace() {
        let (p, t) = synthetic(0x0, 2 * FOLD_CHUNK, 0.5, 29);
        let acc = chunk_fold(Distinguisher::Mlpa, &p, &t);
        assert_eq!(acc.count(), 2 * FOLD_CHUNK as u64);
    }

    #[test]
    fn empty_chunk_fold_finishes_empty() {
        let acc = ChunkFold::new(AttackAccumulator::new(ALL[0], 4, SumMode::Exact)).finish();
        assert!(acc.is_empty());
        assert_eq!(acc.scores().scores, [0.0; 16]);
    }

    #[test]
    fn resident_floats_do_not_grow_with_traces() {
        let (p, t) = synthetic(0x4, 64, 0.5, 31);
        let mut fold = ChunkFold::new(AttackAccumulator::new(ALL[0], 2, SumMode::Exact));
        let resident = |fold: &ChunkFold<'_, AttackAccumulator>| {
            fold.resident_with(AttackAccumulator::resident_floats)
        };
        for (&pt, tr) in p.iter().cycle().zip(t.iter().cycle()).take(FOLD_CHUNK * 8) {
            fold.fold(u16::from(pt), tr);
        }
        let at_8 = resident(&fold);
        for (&pt, tr) in p.iter().cycle().zip(t.iter().cycle()).take(FOLD_CHUNK * 56) {
            fold.fold(u16::from(pt), tr);
        }
        // A partial leaf plus the running state (whose cold side holds
        // a few off-grid squares), at any length.
        let leaf = AttackAccumulator::new(ALL[0], 2, SumMode::Exact).resident_floats();
        assert!(at_8 < 3 * leaf, "{at_8} floats");
        assert_eq!(resident(&fold), at_8);
    }
}
