//! Streaming (online, mergeable) spectral analysis.
//!
//! The batch pipeline materializes every trace in a
//! [`ClassifiedTraces`](crate::ClassifiedTraces) set before
//! [`LeakageSpectrum::from_class_means`] runs, so memory scales with
//! trace count. This module folds traces **one at a time** into
//! constant-size per-class accumulators and produces the same
//! [`LeakageSpectrum`] — memory is `O(classes × samples)` regardless of
//! how many traces are analysed.
//!
//! Three layers:
//!
//! * [`ClassAccumulator`] — count and exact per-sample sums of values
//!   and squares for a single class;
//! * [`SpectrumAccumulator`] — one accumulator per class plus
//!   [`merge`](SpectrumAccumulator::merge), so shard-local accumulators
//!   combine into the whole-campaign result;
//! * the **chunk grid** — [`FOLD_CHUNK`]-trace leaves reduced by a
//!   [`TreeReducer`], generic over any [`FoldState`]. This module is its
//!   one owner: the campaign executor pushes its workers' leaves into a
//!   (possibly observed) [`TreeReducer`], and [`ChunkFold`] walks the
//!   same grid sequentially for cached stores, tests and benches.
//!
//! # Determinism contract
//!
//! Each class carries exact per-sample sums of values and squares:
//! fixed-point `i128` rows with an [`ExactSum`](crate::stats::ExactSum)
//! cold side for what their window cannot hold. Means are the correctly
//! rounded quotient of the true sum, which is invariant under *any*
//! regrouping of the fold — so streamed results are bit-identical at
//! any worker count and to the batch path (whose
//! [`class_means`](crate::ClassifiedTraces::class_means) sums the same
//! way), whatever shape the merges take. A fold is a shift and an
//! integer add per sample, a merge an integer add per sum.
//!
//! The chunk grid is therefore not what makes results reproducible. It
//! orders what observers see — a [`TreeReducer`] hands its leaves to a
//! [`ChunkObserver`] in schedule order, whichever worker finished first
//! — and bounds buffered memory to `O(log chunks)` subtrees. See
//! DESIGN.md §"Streaming spectral analysis".
//!
//! # Example
//!
//! ```
//! use leakage_core::online::{ChunkFold, SpectrumAccumulator, SumMode};
//! use leakage_core::{ClassifiedTraces, LeakageSpectrum};
//!
//! let mut set = ClassifiedTraces::new(4, 2);
//! let mut fold = ChunkFold::new(SpectrumAccumulator::new(4, 2, SumMode::Exact));
//! for class in 0..4u16 {
//!     set.push(usize::from(class), vec![1.0, f64::from(class)]);
//!     fold.fold(class, &[1.0, f64::from(class)]);
//! }
//! let batch = LeakageSpectrum::from_class_means(&set.class_means());
//! let streamed = fold.finish().spectrum();
//! assert_eq!(batch, streamed); // bit-identical
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::stats::ExactRow;
use crate::LeakageSpectrum;

/// Chunk size (in schedule indices) of the merge tree.
///
/// The campaign executor folds every run of this many consecutive
/// schedule indices into one accumulator leaf, and [`ChunkFold`] cuts
/// the same leaves, so an observer sees the same leaf sequence from
/// either.
pub const FOLD_CHUNK: usize = 16;

/// How accumulators sum samples. Exact summation is the only mode; the
/// type remains so existing callers that name it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumMode {
    /// Exact per-sample sums, making means (and the spectra derived from
    /// them) invariant under any fold order or merge shape —
    /// bit-identical to the batch path.
    Exact,
}

/// Count and exact per-sample sums of values and squares for one class
/// of traces.
///
/// Folding is `O(samples)` per trace; state is `O(samples)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAccumulator {
    samples: usize,
    count: u64,
    /// Exact sum of values per sample.
    sum: ExactRow,
    /// Exact sum of squared values per sample.
    sumsq: ExactRow,
}

impl ClassAccumulator {
    /// Empty accumulator for traces of `samples` points.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(samples: usize) -> Self {
        assert!(samples > 0, "samples must be positive");
        Self {
            samples,
            count: 0,
            sum: ExactRow::values(samples),
            sumsq: ExactRow::squares(samples),
        }
    }

    /// Traces folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Fold one trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace length differs from `samples`.
    pub fn fold(&mut self, trace: &[f64]) {
        assert_eq!(trace.len(), self.samples, "trace length mismatch");
        self.count += 1;
        self.sum.add(trace);
        self.sumsq.add_squares(trace);
    }

    /// Merge another accumulator into this one by exact absorption.
    ///
    /// # Panics
    ///
    /// Panics if the sample counts differ.
    pub fn merge(&mut self, other: &ClassAccumulator) {
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        self.sum.absorb(&other.sum);
        self.sumsq.absorb(&other.sumsq);
        self.count += other.count;
    }

    /// Mean trace; all zeros when no traces were folded.
    pub fn mean(&self) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; self.samples];
        }
        let n = self.count as f64;
        (0..self.samples).map(|i| self.sum.value(i) / n).collect()
    }

    /// Population variance per sample; all zeros for fewer than two
    /// traces.
    pub fn variance(&self) -> Vec<f64> {
        if self.count < 2 {
            return vec![0.0; self.samples];
        }
        let n = self.count as f64;
        (0..self.samples)
            .map(|i| {
                let mean = self.sum.value(i) / n;
                (self.sumsq.value(i) / n - mean * mean).max(0.0)
            })
            .collect()
    }

    /// Number of `f64`-sized words currently held (memory accounting):
    /// two per fixed-point sum plus whatever the rows keep on their cold
    /// sides.
    pub fn resident_floats(&self) -> usize {
        self.sum.resident_words() + self.sumsq.resident_words()
    }
}

/// Mergeable online estimator of the full leakage spectrum: one
/// [`ClassAccumulator`] per class.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAccumulator {
    classes: Vec<ClassAccumulator>,
    samples: usize,
    depth: usize,
}

impl SpectrumAccumulator {
    /// Empty accumulator for `num_classes` classes of `samples`-point
    /// traces. `_mode` is always [`SumMode::Exact`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_classes: usize, samples: usize, _mode: SumMode) -> Self {
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            classes: (0..num_classes)
                .map(|_| ClassAccumulator::new(samples))
                .collect(),
            samples,
            depth: 0,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Total traces folded (or merged in) so far.
    pub fn len(&self) -> u64 {
        self.classes.iter().map(|c| c.count()).sum()
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the merge tree this accumulator is the root of: 0 for a
    /// leaf that only ever folded traces directly, otherwise
    /// `1 + max(depth of operands)` per merge.
    pub fn merge_depth(&self) -> usize {
        self.depth
    }

    /// Fold one trace under its class label.
    ///
    /// # Panics
    ///
    /// Panics if the class is out of range or the trace has the wrong
    /// length.
    pub fn fold(&mut self, class: usize, trace: &[f64]) {
        assert!(class < self.classes.len(), "class {class} out of range");
        self.classes[class].fold(trace);
    }

    /// Merge another shard into this one in place; `self` is the
    /// earlier shard.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge_from(&mut self, other: &SpectrumAccumulator) {
        assert_eq!(
            self.classes.len(),
            other.classes.len(),
            "class count mismatch"
        );
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
        self.depth = self.depth.max(other.depth) + 1;
    }

    /// Merge two shard accumulators by value; see
    /// [`merge_from`](Self::merge_from).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(mut self, other: SpectrumAccumulator) -> SpectrumAccumulator {
        self.merge_from(&other);
        self
    }

    /// Traces folded per class.
    pub fn class_counts(&self) -> Vec<usize> {
        self.classes.iter().map(|c| c.count() as usize).collect()
    }

    /// Per-class mean traces (`num_classes × samples`), matching
    /// [`ClassifiedTraces::class_means`](crate::ClassifiedTraces::class_means).
    pub fn class_means(&self) -> Vec<Vec<f64>> {
        self.classes.iter().map(|c| c.mean()).collect()
    }

    /// Per-class population variances per sample.
    pub fn class_variances(&self) -> Vec<Vec<f64>> {
        self.classes.iter().map(|c| c.variance()).collect()
    }

    /// The leakage spectrum of the folded traces.
    ///
    /// # Panics
    ///
    /// Panics (in [`LeakageSpectrum::from_class_means`]) unless the
    /// class count is a power of two greater than one.
    pub fn spectrum(&self) -> LeakageSpectrum {
        LeakageSpectrum::from_class_means(&self.class_means())
    }

    /// Number of `f64` values currently held — the memory footprint the
    /// bounded-memory tests assert on.
    pub fn resident_floats(&self) -> usize {
        self.classes.iter().map(|c| c.resident_floats()).sum()
    }

    /// Whether no class's exact row of values ever used its cold side.
    #[cfg(test)]
    pub(crate) fn value_rows_stay_hot(&self) -> bool {
        self.classes.iter().all(|c| !c.sum.has_cold())
    }
}

/// A shard state that [`TreeReducer`] can pairwise-combine.
///
/// `merge` consumes `self` as the **earlier** operand (in schedule
/// order) and `later` as the later one. Implementations must be
/// associative and commutative in their results: the exact-sum states
/// of this crate yield identical bits under any grouping, which is what
/// makes a fold worker-count invariant. [`TreeReducer`] fixes the
/// grouping anyway, but only to order observer snapshots and bound
/// buffered memory.
pub trait Merge: Sized {
    /// Combine the earlier shard `self` with the `later` shard.
    fn merge(self, later: Self) -> Self;
}

impl Merge for SpectrumAccumulator {
    fn merge(self, later: Self) -> Self {
        SpectrumAccumulator::merge(self, later)
    }
}

impl Merge for ClassAccumulator {
    fn merge(mut self, later: Self) -> Self {
        ClassAccumulator::merge(&mut self, &later);
        self
    }
}

/// Any per-run analysis state the chunk grid can accumulate: fold one
/// labelled trace at a time, merge leaf states pairwise.
///
/// The spectral pipeline's [`SpectrumAccumulator`] is one
/// implementation; the attack engine folds per-key-guess co-moment
/// state through the same grid, and composite states fold both in a
/// single pass over the traces. Worker-count invariance comes from the
/// state's exact sums (see [`Merge`]): the same schedule folds to the
/// same bits however its chunks are grouped. The grid itself only
/// orders what a [`ChunkObserver`] sees and bounds buffered memory.
pub trait FoldState: Merge + Send {
    /// Fold one captured trace under its stimulus label.
    fn fold(&mut self, label: u16, trace: &[f64]);

    /// Depth of the merge tree this state roots (for reporting).
    fn merge_depth(&self) -> usize {
        0
    }
}

impl FoldState for SpectrumAccumulator {
    fn fold(&mut self, label: u16, trace: &[f64]) {
        SpectrumAccumulator::fold(self, usize::from(label), trace);
    }

    fn merge_depth(&self) -> usize {
        SpectrumAccumulator::merge_depth(self)
    }
}

/// A callback that sees every leaf of a [`TreeReducer`] in sequence
/// order, just before the leaf enters the tree. Used to track prefix
/// trajectories — e.g. the attack engine's key rank as a function of
/// traces seen — without a second pass.
pub type ChunkObserver<'o, T> = &'o mut dyn FnMut(u64, &T);

/// Deterministic pairwise reduction of a sequence of shard accumulators.
///
/// Accumulators are pushed with their position in the chunk sequence
/// (`seq`); out-of-order arrivals are buffered and applied in order, so
/// the reduction consumes leaves `0, 1, 2, …` no matter which worker
/// finished first. Internally a binary counter of partial subtrees (the
/// classic binomial-heap shape): leaf `2k` and `2k+1` merge into a
/// 2-chunk node, two of those merge into a 4-chunk node, and so on.
/// The tree shape depends only on how many leaves were pushed.
///
/// The folded result does not depend on that shape: the exact-sum
/// states are worker-count invariant by themselves (see [`Merge`]).
/// The tree exists to hand an optional [`ChunkObserver`]
/// ([`observed`](Self::observed)) each leaf in sequence order — the
/// attack engine's rank snapshots — and to keep buffered memory at
/// `O(log n)` subtrees. It is generic over the shard state: the
/// spectral pipeline reduces [`SpectrumAccumulator`]s, the attack
/// engine its co-moment state, and joint (spectral + attack) folds a
/// composite.
///
/// Memory: `O(log n)` buffered subtrees plus at most
/// (in-flight workers) buffered out-of-order leaves.
pub struct TreeReducer<'o, T = SpectrumAccumulator> {
    /// `levels[k]` holds a pending subtree of 2^k leaves, all earlier
    /// in sequence order than anything at levels < k.
    levels: Vec<Option<T>>,
    /// Next sequence number the counter will accept.
    next: u64,
    /// Out-of-order leaves waiting for their turn.
    pending: BTreeMap<u64, T>,
    /// Sees each leaf as the counter consumes it, in sequence order.
    observer: Option<ChunkObserver<'o, T>>,
}

impl<T> Default for TreeReducer<'_, T> {
    fn default() -> Self {
        Self {
            levels: Vec::new(),
            next: 0,
            pending: BTreeMap::new(),
            observer: None,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for TreeReducer<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeReducer")
            .field("levels", &self.levels)
            .field("next", &self.next)
            .field("pending", &self.pending)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<'o, T: Merge> TreeReducer<'o, T> {
    /// Empty reducer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty reducer whose `observer` (if any) sees every leaf in
    /// sequence order, just before the leaf enters the tree.
    pub fn observed(observer: Option<ChunkObserver<'o, T>>) -> Self {
        Self {
            observer,
            ..Self::default()
        }
    }

    /// Push the shard accumulator for chunk `seq` (0-based position in
    /// the chunk sequence). Chunks may arrive in any order; each `seq`
    /// must be pushed exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already consumed or pushed.
    pub fn push(&mut self, seq: u64, acc: T) {
        assert!(seq >= self.next, "chunk {seq} already consumed");
        let prev = self.pending.insert(seq, acc);
        assert!(prev.is_none(), "chunk {seq} pushed twice");
        while let Some(acc) = self.pending.remove(&self.next) {
            if let Some(observe) = self.observer.as_mut() {
                observe(self.next, &acc);
            }
            self.next += 1;
            self.carry(acc);
        }
    }

    fn carry(&mut self, acc: T) {
        let mut carry = acc;
        for slot in self.levels.iter_mut() {
            match slot.take() {
                // The resident subtree covers earlier chunks, so it is
                // the left operand.
                Some(left) => carry = left.merge(carry),
                None => {
                    *slot = Some(carry);
                    return;
                }
            }
        }
        self.levels.push(Some(carry));
    }

    /// Leaves consumed so far (buffered out-of-order leaves excluded).
    pub fn consumed(&self) -> u64 {
        self.next
    }

    /// Memory accounting over all buffered subtrees and out-of-order
    /// leaves, with a caller-supplied per-state size function.
    pub fn resident_with<F>(&self, size: F) -> usize
    where
        F: Fn(&T) -> usize,
    {
        self.levels
            .iter()
            .flatten()
            .chain(self.pending.values())
            .map(size)
            .sum()
    }

    /// Merge the remaining partial subtrees (earliest first) into the
    /// final accumulator; `None` if nothing was pushed.
    ///
    /// # Panics
    ///
    /// Panics if out-of-order leaves are still buffered (a gap in the
    /// sequence — some chunk was never pushed).
    pub fn finish(self) -> Option<T> {
        assert!(
            self.pending.is_empty(),
            "gap in chunk sequence: chunk {} never pushed",
            self.next
        );
        // Higher levels hold earlier chunks; walk low→high keeping the
        // running subtree as the *later* (right) operand.
        let mut total: Option<T> = None;
        for slot in self.levels.into_iter().flatten() {
            total = Some(match total {
                None => slot,
                Some(later) => slot.merge(later),
            });
        }
        total
    }
}

/// Sequential fold of a labelled trace stream through the chunk grid:
/// every [`FOLD_CHUNK`] consecutive traces fold into one leaf, and the
/// leaves reduce through a [`TreeReducer`] (optionally observed). A
/// schedule folded in order through this type yields bit-for-bit the
/// state the sharded campaign executor produces for it at any worker
/// count — it is how cached stores, tests and benches walk the grid.
#[derive(Debug)]
pub struct ChunkFold<'o, S> {
    reducer: TreeReducer<'o, S>,
    /// Empty state every new leaf starts from.
    empty: S,
    leaf: S,
    in_leaf: usize,
}

impl<'o, S: FoldState + Clone> ChunkFold<'o, S> {
    /// A fold whose leaves start from `empty`.
    pub fn new(empty: S) -> Self {
        Self::observed(empty, None)
    }

    /// A fold whose `observer` (if any) sees every leaf in order; see
    /// [`TreeReducer::observed`].
    pub fn observed(empty: S, observer: Option<ChunkObserver<'o, S>>) -> Self {
        Self {
            reducer: TreeReducer::observed(observer),
            leaf: empty.clone(),
            empty,
            in_leaf: 0,
        }
    }

    /// Fold one trace under its label.
    pub fn fold(&mut self, label: u16, trace: &[f64]) {
        self.leaf.fold(label, trace);
        self.in_leaf += 1;
        if self.in_leaf == FOLD_CHUNK {
            self.push_leaf();
        }
    }

    fn push_leaf(&mut self) {
        let leaf = std::mem::replace(&mut self.leaf, self.empty.clone());
        self.reducer.push(self.reducer.consumed(), leaf);
        self.in_leaf = 0;
    }

    /// Memory accounting over the partial leaf and the reducer's
    /// buffered subtrees, with a caller-supplied per-state size.
    pub fn resident_with<F: Fn(&S) -> usize>(&self, size: F) -> usize {
        size(&self.leaf) + self.reducer.resident_with(size)
    }

    /// Close the fold: the trailing partial chunk (if any) becomes the
    /// final leaf, and the reduction completes. Returns the empty state
    /// if nothing was folded.
    pub fn finish(mut self) -> S {
        if self.in_leaf > 0 {
            self.push_leaf();
        }
        self.reducer.finish().unwrap_or(self.empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedTraces;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Deterministic synthetic trace set: `n` traces of `samples`
    /// points over `classes` classes, values in roughly [-1, 1] with a
    /// class-dependent offset so spectra are non-trivial.
    fn synth(seed: u64, classes: usize, samples: usize, n: usize) -> Vec<(usize, Vec<f64>)> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                let class = (xorshift(&mut s) as usize) % classes;
                let trace = (0..samples)
                    .map(|j| {
                        let noise = (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
                        class as f64 * 0.125 + j as f64 * 0.01 + noise
                    })
                    .collect();
                (class, trace)
            })
            .collect()
    }

    /// The traces folded in order through the chunk grid.
    fn chunk_fold(
        traces: &[(usize, Vec<f64>)],
        classes: usize,
        samples: usize,
    ) -> SpectrumAccumulator {
        let mut fold = ChunkFold::new(SpectrumAccumulator::new(classes, samples, SumMode::Exact));
        for (c, t) in traces {
            fold.fold(*c as u16, t);
        }
        fold.finish()
    }

    fn batch_spectrum(
        traces: &[(usize, Vec<f64>)],
        classes: usize,
        samples: usize,
    ) -> LeakageSpectrum {
        let mut set = ClassifiedTraces::new(classes, samples);
        for (c, t) in traces {
            set.push(*c, t.clone());
        }
        LeakageSpectrum::from_class_means(&set.class_means())
    }

    #[test]
    fn exact_stream_matches_batch_bitwise() {
        let traces = synth(0x5EED, 4, 6, 101);
        let batch = batch_spectrum(&traces, 4, 6);
        let acc = chunk_fold(&traces, 4, 6);
        assert_eq!(acc.len(), 101);
        assert_eq!(acc.spectrum(), batch);
    }

    #[test]
    fn class_moments_are_exact() {
        let mut acc = ClassAccumulator::new(1);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.fold(&[x]);
        }
        assert_eq!(acc.mean()[0], 5.0);
        assert_eq!(acc.variance()[0], 4.0);
    }

    #[test]
    fn merge_tracks_depth_and_counts() {
        let traces = synth(0xD00F, 4, 3, 40);
        let mut a = SpectrumAccumulator::new(4, 3, SumMode::Exact);
        let mut b = SpectrumAccumulator::new(4, 3, SumMode::Exact);
        for (i, (c, t)) in traces.iter().enumerate() {
            if i < 20 {
                a.fold(*c, t);
            } else {
                b.fold(*c, t);
            }
        }
        assert_eq!(a.merge_depth(), 0);
        let m = a.merge(b);
        assert_eq!(m.merge_depth(), 1);
        assert_eq!(m.len(), 40);
        assert_eq!(m.class_counts().iter().sum::<usize>(), 40);
    }

    #[test]
    fn reducer_is_arrival_order_invariant() {
        let traces = synth(0xCAFE, 4, 5, 7 * FOLD_CHUNK + 3);
        let leaves: Vec<SpectrumAccumulator> = traces
            .chunks(FOLD_CHUNK)
            .map(|chunk| chunk_fold(chunk, 4, 5))
            .collect();
        let mut in_order = TreeReducer::new();
        for (i, leaf) in leaves.iter().enumerate() {
            in_order.push(i as u64, leaf.clone());
        }
        let reference = in_order.finish().unwrap();
        // Reversed arrival and an interleaved arrival build the same
        // tree, merge depth included.
        let mut reversed = TreeReducer::new();
        for (i, leaf) in leaves.iter().enumerate().rev() {
            reversed.push(i as u64, leaf.clone());
        }
        assert_eq!(reversed.finish().unwrap(), reference);
        let mut odd_even = TreeReducer::new();
        for (i, leaf) in leaves.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            odd_even.push(i as u64, leaf.clone());
        }
        for (i, leaf) in leaves.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            odd_even.push(i as u64, leaf.clone());
        }
        assert_eq!(odd_even.finish().unwrap(), reference);
    }

    #[test]
    fn chunk_fold_reproduces_reducer_tree() {
        // ChunkFold must build the same tree as hand-chunked leaves
        // pushed into a TreeReducer.
        let traces = synth(0xBEEF, 4, 4, 5 * FOLD_CHUNK + 9);
        let folded = chunk_fold(&traces, 4, 4);
        let mut reducer = TreeReducer::new();
        for (i, chunk) in traces.chunks(FOLD_CHUNK).enumerate() {
            let mut leaf = SpectrumAccumulator::new(4, 4, SumMode::Exact);
            for (c, t) in chunk {
                leaf.fold(*c, t);
            }
            reducer.push(i as u64, leaf);
        }
        assert_eq!(folded, reducer.finish().unwrap());
    }

    #[test]
    fn resident_floats_grow_logarithmically() {
        let samples = 4;
        let classes = 4;
        let empty = SpectrumAccumulator::new(classes, samples, SumMode::Exact);
        let leaf = empty.resident_floats();
        let mut fold = ChunkFold::new(empty);
        let resident = |fold: &ChunkFold<'_, SpectrumAccumulator>| {
            fold.resident_with(SpectrumAccumulator::resident_floats)
        };
        let trace: Vec<f64> = (0..samples).map(|i| i as f64 * 0.25).collect();
        let mut small = 0;
        for i in 0..20_000usize {
            fold.fold((i % classes) as u16, &trace);
            if i + 1 == 1_250 {
                small = resident(&fold);
            }
        }
        let large = resident(&fold);
        // 16x the traces may add at most 4 counter levels: the resident
        // set is O(classes × samples × log chunks), not O(traces).
        assert!(small > 0);
        assert!(
            large <= small + 4 * leaf,
            "resident floats grew from {small} to {large}"
        );
        assert!(large < 20_000, "resident floats scale with traces");
    }

    #[test]
    fn empty_chunk_fold_finishes_to_empty_accumulator() {
        let acc = ChunkFold::new(SpectrumAccumulator::new(4, 3, SumMode::Exact)).finish();
        assert!(acc.is_empty());
        assert_eq!(acc.class_means(), vec![vec![0.0; 3]; 4]);
    }

    #[test]
    fn observer_sees_every_leaf_once_in_sequence_order() {
        let traces = synth(0x0B5E, 4, 3, 4 * FOLD_CHUNK + 5);
        let leaves: Vec<SpectrumAccumulator> = traces
            .chunks(FOLD_CHUNK)
            .map(|chunk| chunk_fold(chunk, 4, 3))
            .collect();
        // Out-of-order arrival still reaches the observer in order.
        let mut seen = Vec::new();
        let mut observe = |seq: u64, leaf: &SpectrumAccumulator| seen.push((seq, leaf.len()));
        let mut reducer = TreeReducer::observed(Some(&mut observe));
        for i in [2usize, 0, 4, 3, 1] {
            reducer.push(i as u64, leaves[i].clone());
        }
        assert!(format!("{reducer:?}").contains("observed: true"));
        let reduced = reducer.finish().unwrap();
        let want: Vec<(u64, u64)> = leaves
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u64, l.len()))
            .collect();
        assert_eq!(seen, want);
        // ChunkFold cuts the same leaves and shows them the same way.
        let mut seen = Vec::new();
        let mut observe = |seq: u64, leaf: &SpectrumAccumulator| seen.push((seq, leaf.len()));
        let empty = SpectrumAccumulator::new(4, 3, SumMode::Exact);
        let mut fold = ChunkFold::observed(empty, Some(&mut observe));
        for (c, t) in &traces {
            fold.fold(*c as u16, t);
        }
        assert_eq!(fold.finish(), reduced);
        assert_eq!(seen, want);
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn reducer_rejects_duplicate_chunks() {
        let mut r = TreeReducer::new();
        r.push(1, SpectrumAccumulator::new(2, 1, SumMode::Exact));
        r.push(1, SpectrumAccumulator::new(2, 1, SumMode::Exact));
    }
}
