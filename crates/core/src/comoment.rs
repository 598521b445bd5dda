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
//! Both summation modes of the spectral pipeline are supported with the
//! same contracts ([`SumMode`]): `Exact` carries exact sums — fixed-point
//! `i128` rows with an [`ExactSum`](crate::stats::ExactSum) cold side —
//! so every extracted statistic is invariant under *any* fold order or
//! merge grouping, and streaming attack results are bit-identical to the
//! batch reference. A fold is a shift and an integer add per sum, a
//! merge an integer add. `Welford` keeps running means, centered second
//! moments, and centered co-moments (Chan's parallel merge), which
//! vectorizes and is bit-stable across worker counts only via the fixed
//! [`TreeReducer`](crate::online::TreeReducer) shape.
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
//! use leakage_core::online::SumMode;
//!
//! // One channel whose hypothesis is perfectly correlated with sample 0.
//! let mut acc = CoMomentAccumulator::new(1, 2, SumMode::Exact);
//! for (h, x) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
//!     acc.fold(&[h], &[x, 7.0]);
//! }
//! assert!((acc.pearson(0, 0) - 1.0).abs() < 1e-12);
//! assert_eq!(acc.pearson(0, 1), 0.0); // constant sample: undefined → 0
//! ```

use crate::online::{Merge, SumMode};
use crate::stats::ExactRow;

/// Per-mode moment state. Welford cross moments are stored row-major,
/// `channel × samples + sample`; exact ones as one row per channel.
#[derive(Debug, Clone)]
enum CoMoments {
    Welford {
        /// Running mean per sample.
        mean_x: Vec<f64>,
        /// Centered second moment per sample.
        m2_x: Vec<f64>,
        /// Running mean per channel.
        mean_h: Vec<f64>,
        /// Centered second moment per channel.
        m2_h: Vec<f64>,
        /// Centered co-moment `Σ (h−h̄)(x−x̄)` per channel × sample.
        c_hx: Vec<f64>,
    },
    Exact {
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
    },
}

/// Count and co-moments between `channels` hypothesis streams and
/// `samples` trace points.
///
/// Folding is `O(channels × samples)` per trace; state is
/// `O(channels × samples)`.
#[derive(Debug, Clone)]
pub struct CoMomentAccumulator {
    channels: usize,
    samples: usize,
    count: u64,
    depth: usize,
    moments: CoMoments,
}

impl CoMomentAccumulator {
    /// Empty accumulator for `channels` hypothesis channels over
    /// `samples`-point traces.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(channels: usize, samples: usize, mode: SumMode) -> Self {
        assert!(channels > 0, "channels must be positive");
        assert!(samples > 0, "samples must be positive");
        let moments = match mode {
            SumMode::Welford => CoMoments::Welford {
                mean_x: vec![0.0; samples],
                m2_x: vec![0.0; samples],
                mean_h: vec![0.0; channels],
                m2_h: vec![0.0; channels],
                c_hx: vec![0.0; channels * samples],
            },
            SumMode::Exact => CoMoments::Exact {
                sum_x: ExactRow::values(samples),
                sumsq_x: ExactRow::squares(samples),
                sum_h: ExactRow::values(channels),
                sumsq_h: ExactRow::squares(channels),
                sum_hx: vec![ExactRow::values(samples); channels],
            },
        };
        Self {
            channels,
            samples,
            count: 0,
            depth: 0,
            moments,
        }
    }

    /// Summation mode.
    pub fn mode(&self) -> SumMode {
        match self.moments {
            CoMoments::Welford { .. } => SumMode::Welford,
            CoMoments::Exact { .. } => SumMode::Exact,
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

    /// Depth of the merge tree this accumulator roots: 0 for a leaf,
    /// otherwise `1 + max(depth of operands)` per merge.
    pub fn merge_depth(&self) -> usize {
        self.depth
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
        match &mut self.moments {
            CoMoments::Welford {
                mean_x,
                m2_x,
                mean_h,
                m2_h,
                c_hx,
            } => {
                let n = self.count as f64;
                // Trace marginals first, so the cross update below can
                // use the *updated* x means (the standard online
                // covariance recurrence C += (h−h̄_old)(x−x̄_new)).
                for ((m, s), &x) in mean_x.iter_mut().zip(m2_x.iter_mut()).zip(trace) {
                    let delta = x - *m;
                    *m += delta / n;
                    *s += delta * (x - *m);
                }
                for (c, &h) in hypotheses.iter().enumerate() {
                    let dh = h - mean_h[c];
                    mean_h[c] += dh / n;
                    m2_h[c] += dh * (h - mean_h[c]);
                    let row = &mut c_hx[c * self.samples..(c + 1) * self.samples];
                    for ((r, m), &x) in row.iter_mut().zip(mean_x.iter()).zip(trace) {
                        *r += dh * (x - m);
                    }
                }
            }
            CoMoments::Exact {
                sum_x,
                sumsq_x,
                sum_h,
                sumsq_h,
                sum_hx,
            } => {
                sum_x.add(trace);
                sumsq_x.add_squares(trace);
                sum_h.add(hypotheses);
                sumsq_h.add_squares(hypotheses);
                for (row, &h) in sum_hx.iter_mut().zip(hypotheses) {
                    row.add_scaled(h, trace);
                }
            }
        }
    }

    /// Merge another shard into this one in place; `self` is the
    /// earlier shard (Chan's parallel update in Welford mode, exact
    /// absorption in exact mode).
    ///
    /// # Panics
    ///
    /// Panics if shapes or modes differ.
    pub fn merge_from(&mut self, other: &CoMomentAccumulator) {
        assert_eq!(self.channels, other.channels, "channel count mismatch");
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        let n = self.count + other.count;
        match (&mut self.moments, &other.moments) {
            (
                CoMoments::Welford {
                    mean_x,
                    m2_x,
                    mean_h,
                    m2_h,
                    c_hx,
                },
                CoMoments::Welford {
                    mean_x: omean_x,
                    m2_x: om2_x,
                    mean_h: omean_h,
                    m2_h: om2_h,
                    c_hx: oc_hx,
                },
            ) => {
                if other.count == 0 {
                    // Nothing to add, but the merge still counts toward
                    // the tree depth.
                } else if self.count == 0 {
                    mean_x.copy_from_slice(omean_x);
                    m2_x.copy_from_slice(om2_x);
                    mean_h.copy_from_slice(omean_h);
                    m2_h.copy_from_slice(om2_h);
                    c_hx.copy_from_slice(oc_hx);
                } else {
                    let na = self.count as f64;
                    let nb = other.count as f64;
                    let nt = n as f64;
                    let scale = na * nb / nt;
                    for c in 0..self.channels {
                        let dh = omean_h[c] - mean_h[c];
                        let row = &mut c_hx[c * self.samples..(c + 1) * self.samples];
                        let orow = &oc_hx[c * self.samples..(c + 1) * self.samples];
                        for ((r, &o), (m, om)) in row
                            .iter_mut()
                            .zip(orow)
                            .zip(mean_x.iter().zip(omean_x.iter()))
                        {
                            *r += o + dh * (om - m) * scale;
                        }
                        mean_h[c] += dh * (nb / nt);
                        m2_h[c] += om2_h[c] + dh * dh * scale;
                    }
                    for i in 0..self.samples {
                        let dx = omean_x[i] - mean_x[i];
                        mean_x[i] += dx * (nb / nt);
                        m2_x[i] += om2_x[i] + dx * dx * scale;
                    }
                }
            }
            (
                CoMoments::Exact {
                    sum_x,
                    sumsq_x,
                    sum_h,
                    sumsq_h,
                    sum_hx,
                },
                CoMoments::Exact {
                    sum_x: osum_x,
                    sumsq_x: osumsq_x,
                    sum_h: osum_h,
                    sumsq_h: osumsq_h,
                    sum_hx: osum_hx,
                },
            ) => {
                sum_x.absorb(osum_x);
                sumsq_x.absorb(osumsq_x);
                sum_h.absorb(osum_h);
                sumsq_h.absorb(osumsq_h);
                for (row, other) in sum_hx.iter_mut().zip(osum_hx) {
                    row.absorb(other);
                }
            }
            _ => panic!("cannot merge accumulators with different summation modes"),
        }
        self.count = n;
        self.depth = self.depth.max(other.depth) + 1;
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
        if self.count < 2 {
            return 0.0;
        }
        match &self.moments {
            CoMoments::Welford {
                m2_x, m2_h, c_hx, ..
            } => {
                let denom = (m2_h[c] * m2_x[t]).sqrt();
                if denom == 0.0 {
                    0.0
                } else {
                    c_hx[c * self.samples + t] / denom
                }
            }
            CoMoments::Exact {
                sum_x,
                sumsq_x,
                sum_h,
                sumsq_h,
                sum_hx,
            } => {
                let n = self.count as f64;
                exact_pearson(
                    n,
                    sum_hx[c].value(t),
                    marginal(n, sum_h.value(c), sumsq_h.value(c)),
                    marginal(n, sum_x.value(t), sumsq_x.value(t)),
                )
            }
        }
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
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        match &self.moments {
            CoMoments::Welford { mean_h, c_hx, .. } => {
                split_means(c_hx[c * self.samples + t], mean_h[c] * n, n)
            }
            CoMoments::Exact {
                sum_x,
                sum_h,
                sum_hx,
                ..
            } => exact_difference_of_means(n, sum_hx[c].value(t), sum_h.value(c), sum_x.value(t)),
        }
    }

    /// A reader for many `(channel, sample)` cells of this state: the
    /// marginal sums (`Σx`, `Σx²` per sample, `Σh`, `Σh²` per channel)
    /// are rounded once here instead of once per cell. Its cells equal
    /// [`pearson`](Self::pearson) and
    /// [`difference_of_means`](Self::difference_of_means) bit for bit.
    pub fn cells(&self) -> CellReader<'_> {
        let n = self.count as f64;
        let (x, h) = match &self.moments {
            CoMoments::Welford { .. } => (Vec::new(), Vec::new()),
            CoMoments::Exact {
                sum_x,
                sumsq_x,
                sum_h,
                sumsq_h,
                ..
            } => (
                (0..self.samples)
                    .map(|t| marginal(n, sum_x.value(t), sumsq_x.value(t)))
                    .collect(),
                (0..self.channels)
                    .map(|c| marginal(n, sum_h.value(c), sumsq_h.value(c)))
                    .collect(),
            ),
        };
        CellReader { acc: self, x, h }
    }

    /// Mean hypothesis value of channel `c` (0.0 when empty) — for
    /// binary channels this is the fraction of traces selecting 1.
    pub fn channel_mean(&self, c: usize) -> f64 {
        assert!(c < self.channels, "channel {c} out of range");
        if self.count == 0 {
            return 0.0;
        }
        match &self.moments {
            CoMoments::Welford { mean_h, .. } => mean_h[c],
            CoMoments::Exact { sum_h, .. } => sum_h.value(c) / self.count as f64,
        }
    }

    /// Number of `f64`-sized words currently held (memory accounting);
    /// in exact mode, two per fixed-point sum plus whatever the rows
    /// keep on their cold sides.
    pub fn resident_floats(&self) -> usize {
        match &self.moments {
            CoMoments::Welford {
                mean_x,
                m2_x,
                mean_h,
                m2_h,
                c_hx,
            } => mean_x.len() + m2_x.len() + mean_h.len() + m2_h.len() + c_hx.len(),
            CoMoments::Exact {
                sum_x,
                sumsq_x,
                sum_h,
                sumsq_h,
                sum_hx,
            } => [sum_x, sumsq_x, sum_h, sumsq_h]
                .into_iter()
                .chain(sum_hx)
                .map(ExactRow::resident_words)
                .sum(),
        }
    }

    /// Whether the exact rows of `Σx`, `Σh` and every `Σhx` never used
    /// their cold sides.
    #[cfg(test)]
    pub(crate) fn value_rows_stay_hot(&self) -> bool {
        match &self.moments {
            CoMoments::Exact {
                sum_x,
                sum_h,
                sum_hx,
                ..
            } => [sum_x, sum_h]
                .into_iter()
                .chain(sum_hx)
                .all(|row| !row.has_cold()),
            CoMoments::Welford { .. } => true,
        }
    }
}

/// One marginal's sum and variance term `n·Σv² − (Σv)²`, clamped at 0.
fn marginal(n: f64, sum: f64, sumsq: f64) -> (f64, f64) {
    (sum, (n * sumsq - sum * sum).max(0.0))
}

/// Exact-mode Pearson correlation from `Σhx` and the two marginals.
fn exact_pearson(n: f64, sum_hx: f64, (sh, vh): (f64, f64), (sx, vx): (f64, f64)) -> f64 {
    let num = n * sum_hx - sh * sx;
    let denom = (vh * vx).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        num / denom
    }
}

/// Exact-mode difference of means from `Σhx`, `Σh` and `Σx`.
fn exact_difference_of_means(n: f64, sum_hx: f64, sh: f64, sx: f64) -> f64 {
    split_means(sum_hx - sh * sx / n, sh, n)
}

/// `μ₁ − μ₀` from the centered co-moment and the 1-partition's size
/// `n1`; 0.0 when either partition is empty.
fn split_means(centered: f64, n1: f64, n: f64) -> f64 {
    let n0 = n - n1;
    if n1 <= 0.0 || n0 <= 0.0 {
        return 0.0;
    }
    centered * n / (n1 * n0)
}

/// Many cells of one [`CoMomentAccumulator`] state, with the marginal
/// sums rounded once; see [`CoMomentAccumulator::cells`].
#[derive(Debug)]
pub struct CellReader<'a> {
    acc: &'a CoMomentAccumulator,
    /// Exact mode: `(Σx, n·Σx² − (Σx)²)` per sample; empty in Welford
    /// mode, whose marginals need no rounding.
    x: Vec<(f64, f64)>,
    /// Exact mode: `(Σh, n·Σh² − (Σh)²)` per channel.
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
        let acc = self.acc;
        match &acc.moments {
            CoMoments::Exact { sum_hx, .. } if acc.count >= 2 => {
                exact_pearson(acc.count as f64, sum_hx[c].value(t), self.h[c], self.x[t])
            }
            _ => acc.pearson(c, t),
        }
    }

    /// [`CoMomentAccumulator::difference_of_means`] of cell `(c, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `t` is out of range.
    pub fn difference_of_means(&self, c: usize, t: usize) -> f64 {
        let acc = self.acc;
        match &acc.moments {
            CoMoments::Exact { sum_hx, .. } if acc.count > 0 => exact_difference_of_means(
                acc.count as f64,
                sum_hx[c].value(t),
                self.h[c].0,
                self.x[t].0,
            ),
            _ => acc.difference_of_means(c, t),
        }
    }
}

impl Merge for CoMomentAccumulator {
    fn merge(mut self, later: Self) -> Self {
        self.merge_from(&later);
        self
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
        for mode in [SumMode::Welford, SumMode::Exact] {
            let mut acc = CoMomentAccumulator::new(3, 4, mode);
            for (h, x) in &data {
                acc.fold(h, x);
            }
            for c in 0..3 {
                for t in 0..4 {
                    let hs: Vec<f64> = data.iter().map(|(h, _)| h[c]).collect();
                    let xs: Vec<f64> = data.iter().map(|(_, x)| x[t]).collect();
                    let want = pearson(&hs, &xs);
                    let got = acc.pearson(c, t);
                    assert!((got - want).abs() < 1e-10, "mode {mode:?} c={c} t={t}");
                }
            }
        }
    }

    #[test]
    fn exact_merge_is_grouping_invariant_bitwise() {
        let data = synth(0x22, 2, 3, 50);
        let mut whole = CoMomentAccumulator::new(2, 3, SumMode::Exact);
        for (h, x) in &data {
            whole.fold(h, x);
        }
        // Uneven split, merged.
        let mut a = CoMomentAccumulator::new(2, 3, SumMode::Exact);
        let mut b = CoMomentAccumulator::new(2, 3, SumMode::Exact);
        for (i, (h, x)) in data.iter().enumerate() {
            if i < 13 {
                a.fold(h, x);
            } else {
                b.fold(h, x);
            }
        }
        let merged = a.merge(b);
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
    fn welford_merge_matches_sequential_within_tolerance() {
        let data = synth(0x33, 2, 3, 80);
        let mut whole = CoMomentAccumulator::new(2, 3, SumMode::Welford);
        for (h, x) in &data {
            whole.fold(h, x);
        }
        let mut a = CoMomentAccumulator::new(2, 3, SumMode::Welford);
        let mut b = CoMomentAccumulator::new(2, 3, SumMode::Welford);
        for (i, (h, x)) in data.iter().enumerate() {
            if i < 37 {
                a.fold(h, x);
            } else {
                b.fold(h, x);
            }
        }
        let merged = a.merge(b);
        assert_eq!(merged.count(), 80);
        assert_eq!(merged.merge_depth(), 1);
        for c in 0..2 {
            for t in 0..3 {
                assert!((whole.pearson(c, t) - merged.pearson(c, t)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn difference_of_means_matches_partition_means() {
        // Binary channel: traces where h=1 have mean 3.0, h=0 mean 1.0.
        for mode in [SumMode::Welford, SumMode::Exact] {
            let mut acc = CoMomentAccumulator::new(1, 1, mode);
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
            assert!(
                (acc.difference_of_means(0, 0) - want).abs() < 1e-9,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn degenerate_cells_yield_zero() {
        for mode in [SumMode::Welford, SumMode::Exact] {
            let mut acc = CoMomentAccumulator::new(1, 1, mode);
            assert_eq!(acc.pearson(0, 0), 0.0);
            assert_eq!(acc.difference_of_means(0, 0), 0.0);
            // Constant hypothesis and constant sample.
            acc.fold(&[1.0], &[2.0]);
            acc.fold(&[1.0], &[2.0]);
            assert_eq!(acc.pearson(0, 0), 0.0);
            assert_eq!(acc.difference_of_means(0, 0), 0.0, "single-class split");
        }
    }

    #[test]
    fn resident_floats_is_bounded_by_shape() {
        let mut acc = CoMomentAccumulator::new(4, 8, SumMode::Welford);
        let base = acc.resident_floats();
        assert_eq!(base, 8 + 8 + 4 + 4 + 32);
        for i in 0..1000 {
            let h: Vec<f64> = (0..4).map(|c| ((i + c) % 3) as f64).collect();
            let x: Vec<f64> = (0..8).map(|t| (i * t) as f64 * 1e-3).collect();
            acc.fold(&h, &x);
        }
        assert_eq!(acc.resident_floats(), base, "Welford state is fixed-size");
    }

    #[test]
    fn merging_an_empty_shard_still_counts_toward_depth() {
        for mode in [SumMode::Exact, SumMode::Welford] {
            let mut a = CoMomentAccumulator::new(1, 2, mode);
            a.fold(&[1.0], &[0.5, 2.0]);
            let merged = a.clone().merge(CoMomentAccumulator::new(1, 2, mode));
            assert_eq!(merged.merge_depth(), 1, "{mode:?}");
            assert_eq!(merged.count(), 1);
            assert_eq!(merged.channel_mean(0), a.channel_mean(0));
        }
    }

    #[test]
    #[should_panic(expected = "different summation modes")]
    fn merge_rejects_mixed_modes() {
        let a = CoMomentAccumulator::new(1, 1, SumMode::Exact);
        let b = CoMomentAccumulator::new(1, 1, SumMode::Welford);
        let _ = a.merge(b);
    }
}
