//! Mergeable online co-moment state: per-channel × per-sample cross
//! statistics between hypothesis values and trace samples.
//!
//! This is the statistical core of the streaming attack engine. A CPA,
//! DPA, or MLPA distinguisher turns each trace's plaintext into a vector
//! of *hypothesis channels* (one per key guess × model component); this
//! accumulator folds each `(hypothesis, trace)` pair once and maintains
//! everything needed to extract Pearson correlations and
//! difference-of-means for every `(channel, sample)` cell afterwards:
//!
//! * marginal trace moments (`Σx`, `Σx²` per sample),
//! * marginal hypothesis moments (`Σh`, `Σh²` per channel),
//! * cross moments (`Σhx` per channel × sample).
//!
//! Every sum is exact — a fixed-point `i128` row with an
//! [`ExactSum`](crate::stats::ExactSum) cold side — so every extracted
//! statistic is invariant under *any* fold order or merge grouping:
//! streamed attack results are bit-identical at any worker count and to
//! the batch reference, whatever shape the merges take. A fold is a
//! shift and an integer add per sum, a merge an integer add.
//!
//! Scoring reads every `(channel, sample)` cell of a state; read them
//! through [`CoMomentAccumulator::cells`], which rounds the marginal
//! sums once for all cells.
//!
//! Memory is `O(channels × samples)` regardless of trace count.
//!
//! # Example
//!
//! ```
//! use leakage_core::comoment::CoMomentAccumulator;
//!
//! // One channel whose hypothesis is perfectly correlated with sample 0.
//! let mut acc = CoMomentAccumulator::new(1, 2);
//! for (h, x) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
//!     acc.fold(&[h], &[x, 7.0]);
//! }
//! assert!((acc.pearson(0, 0) - 1.0).abs() < 1e-12);
//! assert_eq!(acc.pearson(0, 1), 0.0); // constant sample: undefined → 0
//! ```

use crate::stats::ExactRow;

/// Count and exact co-moment sums between `channels` hypothesis streams
/// and `samples` trace points.
///
/// Folding is `O(channels × samples)` per trace; state is
/// `O(channels × samples)`.
#[derive(Debug, Clone)]
pub struct CoMomentAccumulator {
    channels: usize,
    samples: usize,
    count: u64,
    /// Exact `Σx` per sample.
    sum_x: ExactRow,
    /// Exact `Σx²` per sample.
    sumsq_x: ExactRow,
    /// Exact `Σh` per channel.
    sum_h: ExactRow,
    /// Exact `Σh²` per channel.
    sumsq_h: ExactRow,
    /// Exact `Σhx` per sample, one row per channel.
    sum_hx: Vec<ExactRow>,
}

impl CoMomentAccumulator {
    /// Empty accumulator for `channels` hypothesis channels over
    /// `samples`-point traces.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(channels: usize, samples: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        assert!(samples > 0, "samples must be positive");
        Self {
            channels,
            samples,
            count: 0,
            sum_x: ExactRow::values(samples),
            sumsq_x: ExactRow::squares(samples),
            sum_h: ExactRow::values(channels),
            sumsq_h: ExactRow::squares(channels),
            sum_hx: vec![ExactRow::values(samples); channels],
        }
    }

    /// Hypothesis channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Traces folded (or merged in) so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold one trace with its hypothesis vector (one value per
    /// channel).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn fold(&mut self, hypotheses: &[f64], trace: &[f64]) {
        assert_eq!(hypotheses.len(), self.channels, "channel count mismatch");
        assert_eq!(trace.len(), self.samples, "trace length mismatch");
        self.count += 1;
        self.sum_x.add(trace);
        self.sumsq_x.add_squares(trace);
        self.sum_h.add(hypotheses);
        self.sumsq_h.add_squares(hypotheses);
        for (row, &h) in self.sum_hx.iter_mut().zip(hypotheses) {
            row.add_scaled(h, trace);
        }
    }

    /// Merge another shard into this one in place by exact absorption;
    /// `self` is the earlier shard.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge_from(&mut self, other: &CoMomentAccumulator) {
        assert_eq!(self.channels, other.channels, "channel count mismatch");
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        self.sum_x.absorb(&other.sum_x);
        self.sumsq_x.absorb(&other.sumsq_x);
        self.sum_h.absorb(&other.sum_h);
        self.sumsq_h.absorb(&other.sumsq_h);
        for (row, other) in self.sum_hx.iter_mut().zip(&other.sum_hx) {
            row.absorb(other);
        }
        self.count += other.count;
    }

    /// Pearson correlation between channel `c` and sample `t`; 0.0 when
    /// either marginal is degenerate (constant, or fewer than two
    /// traces).
    ///
    /// Reads four marginal sums per call; to score many cells of one
    /// state, read them once through [`cells`](Self::cells).
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is out of range.
    pub fn pearson(&self, c: usize, t: usize) -> f64 {
        assert!(c < self.channels, "channel {c} out of range");
        assert!(t < self.samples, "sample {t} out of range");
        self.pearson_with(c, t, self.h_marginal(c), self.x_marginal(t))
    }

    /// Difference of means of sample `t` between the traces where the
    /// (binary, 0/1-valued) channel `c` selected 1 and those where it
    /// selected 0; 0.0 when either partition is empty.
    ///
    /// Computed from the same co-moments as [`pearson`](Self::pearson):
    /// for a 0/1 channel, `μ₁ − μ₀ = (n·Σhx − Σh·Σx) / (n₁·n₀)` with
    /// `n₁ = Σh`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is out of range.
    pub fn difference_of_means(&self, c: usize, t: usize) -> f64 {
        assert!(c < self.channels, "channel {c} out of range");
        assert!(t < self.samples, "sample {t} out of range");
        self.difference_of_means_with(c, t, self.sum_h.value(c), self.sum_x.value(t))
    }

    /// A reader for many `(channel, sample)` cells of this state: the
    /// marginal sums (`Σx`, `Σx²` per sample, `Σh`, `Σh²` per channel)
    /// are rounded once here instead of once per cell. Its cells equal
    /// [`pearson`](Self::pearson) and
    /// [`difference_of_means`](Self::difference_of_means) bit for bit.
    pub fn cells(&self) -> CellReader<'_> {
        CellReader {
            acc: self,
            x: (0..self.samples).map(|t| self.x_marginal(t)).collect(),
            h: (0..self.channels).map(|c| self.h_marginal(c)).collect(),
        }
    }

    /// Number of `f64`-sized words currently held (memory accounting):
    /// two per fixed-point sum plus whatever the rows keep on their cold
    /// sides.
    pub fn resident_floats(&self) -> usize {
        [&self.sum_x, &self.sumsq_x, &self.sum_h, &self.sumsq_h]
            .into_iter()
            .chain(&self.sum_hx)
            .map(ExactRow::resident_words)
            .sum()
    }

    /// Whether the exact rows of `Σx`, `Σh` and every `Σhx` never used
    /// their cold sides.
    #[cfg(test)]
    pub(crate) fn value_rows_stay_hot(&self) -> bool {
        [&self.sum_x, &self.sum_h]
            .into_iter()
            .chain(&self.sum_hx)
            .all(|row| !row.has_cold())
    }

    /// `(Σx, n·Σx² − (Σx)²)` of sample `t`.
    fn x_marginal(&self, t: usize) -> (f64, f64) {
        marginal(self.count, self.sum_x.value(t), self.sumsq_x.value(t))
    }

    /// `(Σh, n·Σh² − (Σh)²)` of channel `c`.
    fn h_marginal(&self, c: usize) -> (f64, f64) {
        marginal(self.count, self.sum_h.value(c), self.sumsq_h.value(c))
    }

    /// Pearson correlation of cell `(c, t)` from its two marginals.
    fn pearson_with(&self, c: usize, t: usize, (sh, vh): (f64, f64), (sx, vx): (f64, f64)) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let num = self.count as f64 * self.sum_hx[c].value(t) - sh * sx;
        let denom = (vh * vx).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            num / denom
        }
    }

    /// Difference of means of cell `(c, t)` from `Σh` and `Σx`; 0.0
    /// when either partition is empty.
    fn difference_of_means_with(&self, c: usize, t: usize, sh: f64, sx: f64) -> f64 {
        let n = self.count as f64;
        let n0 = n - sh;
        if sh <= 0.0 || n0 <= 0.0 {
            return 0.0;
        }
        (self.sum_hx[c].value(t) - sh * sx / n) * n / (sh * n0)
    }
}

/// One marginal's sum and variance term `n·Σv² − (Σv)²`, clamped at 0.
fn marginal(count: u64, sum: f64, sumsq: f64) -> (f64, f64) {
    (sum, (count as f64 * sumsq - sum * sum).max(0.0))
}

/// Many cells of one [`CoMomentAccumulator`] state, with the marginal
/// sums rounded once; see [`CoMomentAccumulator::cells`].
#[derive(Debug)]
pub struct CellReader<'a> {
    acc: &'a CoMomentAccumulator,
    /// `(Σx, n·Σx² − (Σx)²)` per sample.
    x: Vec<(f64, f64)>,
    /// `(Σh, n·Σh² − (Σh)²)` per channel.
    h: Vec<(f64, f64)>,
}

impl CellReader<'_> {
    /// Hypothesis channels of the state.
    pub fn channels(&self) -> usize {
        self.acc.channels
    }

    /// Samples per trace of the state.
    pub fn samples(&self) -> usize {
        self.acc.samples
    }

    /// [`CoMomentAccumulator::pearson`] of cell `(c, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is out of range.
    pub fn pearson(&self, c: usize, t: usize) -> f64 {
        self.acc.pearson_with(c, t, self.h[c], self.x[t])
    }

    /// [`CoMomentAccumulator::difference_of_means`] of cell `(c, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is out of range.
    pub fn difference_of_means(&self, c: usize, t: usize) -> f64 {
        self.acc
            .difference_of_means_with(c, t, self.h[c].0, self.x[t].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pearson;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn unit(state: &mut u64) -> f64 {
        (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` (hypothesis-vector, trace) pairs with correlated structure.
    fn synth(seed: u64, channels: usize, samples: usize, n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                let h: Vec<f64> = (0..channels)
                    .map(|_| (xorshift(&mut s) % 5) as f64)
                    .collect();
                let x: Vec<f64> = (0..samples)
                    .map(|j| h[j % channels] * 0.5 + unit(&mut s))
                    .collect();
                (h, x)
            })
            .collect()
    }

    #[test]
    fn pearson_matches_batch_reference() {
        let data = synth(0x10, 3, 4, 64);
        let mut acc = CoMomentAccumulator::new(3, 4);
        for (h, x) in &data {
            acc.fold(h, x);
        }
        for c in 0..3 {
            for t in 0..4 {
                let hs: Vec<f64> = data.iter().map(|(h, _)| h[c]).collect();
                let xs: Vec<f64> = data.iter().map(|(_, x)| x[t]).collect();
                let want = pearson(&hs, &xs);
                let got = acc.pearson(c, t);
                assert!((got - want).abs() < 1e-10, "c={c} t={t}");
            }
        }
    }

    #[test]
    fn exact_merge_is_grouping_invariant_bitwise() {
        let data = synth(0x22, 2, 3, 50);
        let mut whole = CoMomentAccumulator::new(2, 3);
        for (h, x) in &data {
            whole.fold(h, x);
        }
        // Uneven split, merged.
        let mut a = CoMomentAccumulator::new(2, 3);
        let mut b = CoMomentAccumulator::new(2, 3);
        for (i, (h, x)) in data.iter().enumerate() {
            if i < 13 {
                a.fold(h, x);
            } else {
                b.fold(h, x);
            }
        }
        let mut merged = a;
        merged.merge_from(&b);
        assert_eq!(merged.count(), 50);
        for c in 0..2 {
            for t in 0..3 {
                assert_eq!(
                    whole.pearson(c, t).to_bits(),
                    merged.pearson(c, t).to_bits()
                );
                assert_eq!(
                    whole.difference_of_means(c, t).to_bits(),
                    merged.difference_of_means(c, t).to_bits()
                );
            }
        }
    }

    #[test]
    fn difference_of_means_matches_partition_means() {
        // Binary channel: traces where h=1 have mean 3.0, h=0 mean 1.0.
        let mut acc = CoMomentAccumulator::new(1, 1);
        let mut s = 7u64;
        let (mut s1, mut n1, mut s0, mut n0) = (0.0, 0, 0.0, 0);
        for _ in 0..60 {
            let h = (xorshift(&mut s) & 1) as f64;
            let x = 1.0 + 2.0 * h + unit(&mut s) * 0.1;
            if h > 0.5 {
                s1 += x;
                n1 += 1;
            } else {
                s0 += x;
                n0 += 1;
            }
            acc.fold(&[h], &[x]);
        }
        let want = s1 / n1 as f64 - s0 / n0 as f64;
        assert!((acc.difference_of_means(0, 0) - want).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cells_yield_zero() {
        let mut acc = CoMomentAccumulator::new(1, 1);
        assert_eq!(acc.pearson(0, 0), 0.0);
        assert_eq!(acc.difference_of_means(0, 0), 0.0);
        // Constant hypothesis and constant sample.
        acc.fold(&[1.0], &[2.0]);
        acc.fold(&[1.0], &[2.0]);
        assert_eq!(acc.pearson(0, 0), 0.0);
        assert_eq!(acc.difference_of_means(0, 0), 0.0, "single-class split");
    }

    #[test]
    fn resident_floats_is_bounded_by_shape() {
        let mut acc = CoMomentAccumulator::new(4, 8);
        let base = acc.resident_floats();
        // Two words per fixed-point sum.
        assert_eq!(base, 2 * (8 + 8 + 4 + 4 + 32));
        for i in 0..1000 {
            let h: Vec<f64> = (0..4).map(|c| ((i + c) % 3) as f64).collect();
            let x: Vec<f64> = (0..8).map(|t| (i * t) as f64 * 1e-3).collect();
            acc.fold(&h, &x);
        }
        assert_eq!(acc.resident_floats(), base, "on-grid sums never go cold");
    }

    #[test]
    fn merging_an_empty_shard_changes_nothing() {
        let mut a = CoMomentAccumulator::new(1, 2);
        a.fold(&[1.0], &[0.5, 2.0]);
        a.fold(&[0.0], &[1.5, 1.0]);
        let mut merged = a.clone();
        merged.merge_from(&CoMomentAccumulator::new(1, 2));
        assert_eq!(merged.count(), 2);
        let (merged, a) = (merged.cells(), a.cells());
        for t in 0..2 {
            assert_eq!(merged.pearson(0, t).to_bits(), a.pearson(0, t).to_bits());
            assert_eq!(
                merged.difference_of_means(0, t).to_bits(),
                a.difference_of_means(0, t).to_bits()
            );
        }
    }
}
