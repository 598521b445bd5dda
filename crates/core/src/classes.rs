//! Class-labelled trace storage and mean estimation.

use crate::online::FoldState;
use crate::stats::ExactRow;

/// Power traces grouped by the unmasked final value ("class") they were
/// captured under, following the paper's protocol of 16 balanced classes.
///
/// It is also the [`FoldState`] of a batch acquisition: `fold` appends
/// a copy of the trace, and `merge` appends the later set after the
/// earlier one, so a fold chain that merges leaves in schedule order
/// yields the traces in schedule order.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedTraces {
    num_classes: usize,
    samples: usize,
    traces: Vec<(usize, Vec<f64>)>,
}

impl ClassifiedTraces {
    /// Create an empty set for traces of `samples` points in
    /// `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_classes: usize, samples: usize) -> Self {
        assert!(num_classes > 0 && samples > 0);
        Self {
            num_classes,
            samples,
            traces: Vec::new(),
        }
    }

    /// Add one trace under its class label, keeping acquisition order
    /// (convergence studies slice prefixes of that order).
    ///
    /// # Panics
    ///
    /// Panics if the class is out of range or the trace has the wrong
    /// length.
    pub fn push(&mut self, class: usize, trace: Vec<f64>) {
        assert!(class < self.num_classes, "class {class} out of range");
        assert_eq!(trace.len(), self.samples, "trace length mismatch");
        self.traces.push((class, trace));
    }

    /// Number of traces stored.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Traces in acquisition order as `(class, trace)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.traces.iter().map(|(c, t)| (*c, t.as_slice()))
    }

    /// How many traces each class holds.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for (c, _) in &self.traces {
            counts[*c] += 1;
        }
        counts
    }

    /// Per-class mean traces (`num_classes × samples`), using all stored
    /// traces. Classes with no traces yield all-zero means.
    pub fn class_means(&self) -> Vec<Vec<f64>> {
        self.class_means_of_first(self.traces.len())
    }

    /// Per-class mean traces computed from only the first `n` traces in
    /// acquisition order — the estimator the paper's Fig. 3 sweeps.
    ///
    /// Sums are accumulated exactly (the fixed-point rows of
    /// [`crate::stats`]) and rounded once, so each mean is the correctly
    /// rounded quotient of the true sum — the same value the streaming
    /// accumulators in [`crate::online`] produce, regardless of fold
    /// order or sharding. That shared rounding is what lets the
    /// conformance suite compare batch and streaming spectra
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn class_means_of_first(&self, n: usize) -> Vec<Vec<f64>> {
        assert!(n <= self.traces.len());
        let mut sums = vec![ExactRow::values(self.samples); self.num_classes];
        let mut counts = vec![0usize; self.num_classes];
        for (c, t) in &self.traces[..n] {
            counts[*c] += 1;
            sums[*c].add(t);
        }
        sums.iter()
            .zip(&counts)
            .map(|(row, &count)| {
                (0..self.samples)
                    .map(|i| {
                        if count > 0 {
                            row.value(i) / count as f64
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The grand mean trace over every stored trace (exact summation,
    /// like [`class_means`](Self::class_means)).
    pub fn grand_mean(&self) -> Vec<f64> {
        if self.traces.is_empty() {
            return vec![0.0f64; self.samples];
        }
        let mut sums = ExactRow::values(self.samples);
        for (_, t) in &self.traces {
            sums.add(t);
        }
        let n = self.traces.len() as f64;
        (0..self.samples).map(|i| sums.value(i) / n).collect()
    }
}

impl IntoIterator for ClassifiedTraces {
    type Item = (usize, Vec<f64>);
    type IntoIter = std::vec::IntoIter<(usize, Vec<f64>)>;

    /// The traces in acquisition order as owned `(class, trace)` pairs.
    fn into_iter(self) -> Self::IntoIter {
        self.traces.into_iter()
    }
}

impl FoldState for ClassifiedTraces {
    fn fold(&mut self, label: u16, trace: &[f64]) {
        self.push(usize::from(label), trace.to_vec());
    }

    /// Append `later`'s traces after `self`'s.
    ///
    /// # Panics
    ///
    /// Panics if the class or sample counts differ.
    fn merge(mut self, later: Self) -> Self {
        assert_eq!(self.num_classes, later.num_classes, "class count mismatch");
        assert_eq!(self.samples, later.samples, "sample count mismatch");
        self.traces.extend(later.traces);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_average_per_class() {
        let mut set = ClassifiedTraces::new(2, 3);
        set.push(0, vec![1.0, 0.0, 2.0]);
        set.push(0, vec![3.0, 0.0, 4.0]);
        set.push(1, vec![10.0, 10.0, 10.0]);
        let means = set.class_means();
        assert_eq!(means[0], vec![2.0, 0.0, 3.0]);
        assert_eq!(means[1], vec![10.0, 10.0, 10.0]);
        assert_eq!(set.class_counts(), vec![2, 1]);
    }

    #[test]
    fn prefix_means_use_only_early_traces() {
        let mut set = ClassifiedTraces::new(1, 1);
        set.push(0, vec![1.0]);
        set.push(0, vec![100.0]);
        assert_eq!(set.class_means_of_first(1)[0], vec![1.0]);
        assert_eq!(set.class_means_of_first(2)[0], vec![50.5]);
    }

    #[test]
    fn empty_class_is_zero() {
        let mut set = ClassifiedTraces::new(3, 2);
        set.push(1, vec![4.0, 4.0]);
        let means = set.class_means();
        assert_eq!(means[0], vec![0.0, 0.0]);
        assert_eq!(means[2], vec![0.0, 0.0]);
    }

    #[test]
    fn grand_mean_pools_everything() {
        let mut set = ClassifiedTraces::new(2, 1);
        set.push(0, vec![2.0]);
        set.push(1, vec![4.0]);
        assert_eq!(set.grand_mean(), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "class")]
    fn rejects_out_of_range_class() {
        let mut set = ClassifiedTraces::new(2, 1);
        set.push(2, vec![0.0]);
    }

    #[test]
    fn means_survive_adversarial_ordering() {
        // Large/small cancellation that naive left-to-right summation
        // gets wrong: 1e16 + 1 collapses to 1e16, so the two unit
        // contributions vanish and the naive mean is 0.25 instead of 0.5.
        let mut set = ClassifiedTraces::new(1, 1);
        for v in [1e16, 1.0, -1e16, 1.0] {
            set.push(0, vec![v]);
        }
        assert_eq!(set.class_means()[0], vec![0.5]);
        assert_eq!(set.grand_mean(), vec![0.5]);
    }

    #[test]
    fn fold_and_merge_keep_schedule_order() {
        let mut early = ClassifiedTraces::new(4, 1);
        early.fold(3, &[0.0]);
        early.fold(1, &[1.0]);
        let mut later = ClassifiedTraces::new(4, 1);
        later.fold(0, &[2.0]);
        later.fold(3, &[3.0]);
        let order = |set: &ClassifiedTraces| -> Vec<(usize, f64)> {
            set.iter().map(|(c, t)| (c, t[0])).collect()
        };
        let want = vec![(3, 0.0), (1, 1.0), (0, 2.0), (3, 3.0)];
        assert_eq!(order(&early.clone().merge(later.clone())), want);
        // The fold chain restores schedule order from any arrival order.
        let mut chain = crate::online::TreeReducer::new();
        chain.push(1, later);
        chain.push(0, early);
        assert_eq!(order(&chain.finish().expect("two leaves")), want);
    }

    #[test]
    #[should_panic(expected = "sample count mismatch")]
    fn merge_rejects_a_shape_mismatch() {
        let _ = ClassifiedTraces::new(4, 2).merge(ClassifiedTraces::new(4, 3));
    }
}
