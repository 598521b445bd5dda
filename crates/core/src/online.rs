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
//! * the **chunk grid** — [`FOLD_CHUNK`]-trace leaves merged in
//!   schedule order into one running state by a [`TreeReducer`],
//!   generic over any [`FoldState`]. This module is its one owner: the
//!   campaign executor pushes its workers' leaves into a (possibly
//!   observed) [`TreeReducer`], and [`ChunkFold`] walks the same grid
//!   sequentially for cached stores, tests and benches.
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
//! The chunk grid is therefore not what makes accumulator results
//! reproducible; it is what keeps a
//! [`ClassifiedTraces`](crate::ClassifiedTraces) fold, a trace list
//! whose merge appends, in schedule order. It is one in-order chain: a
//! [`TreeReducer`] parks leaves that arrive early, merges each leaf into
//! its running state once its turn comes, and hands that *prefix* state
//! to a [`ChunkObserver`] in schedule order, whichever worker finished
//! first. Buffered state is the running state plus the parked leaves.
//! See DESIGN.md §"Streaming spectral analysis".
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

/// Chunk size (in schedule indices) of the fold chain.
///
/// The campaign executor folds every run of this many consecutive
/// schedule indices into one accumulator leaf, and [`ChunkFold`] cuts
/// the same leaves, so an observer sees the same prefix sequence from
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

/// Any per-run analysis state the chunk grid can accumulate: fold one
/// labelled trace at a time, merge leaf states in schedule order.
///
/// The spectral pipeline's [`SpectrumAccumulator`] is one
/// implementation; the attack engine folds per-key-guess co-moment
/// state through the same grid, composite states fold both in a single
/// pass over the traces, and a [`ClassifiedTraces`](crate::ClassifiedTraces)
/// set keeps the traces themselves.
///
/// `merge` consumes `self` as the **earlier** operand (in schedule
/// order) and `later` as the later one, and must be associative. That
/// is all a [`TreeReducer`] needs: it merges each leaf once, into the
/// running prefix of everything before it, so the result is the
/// schedule-order fold whichever worker finished first. The exact-sum
/// states of this crate are moreover grouping invariant (any order of
/// merges gives the same bits); a trace list is not, and relies on the
/// chain's order.
pub trait FoldState: Sized + Send {
    /// Fold one captured trace under its stimulus label.
    fn fold(&mut self, label: u16, trace: &[f64]);

    /// Combine the earlier shard `self` with the `later` shard.
    fn merge(self, later: Self) -> Self;
}

impl FoldState for SpectrumAccumulator {
    fn fold(&mut self, label: u16, trace: &[f64]) {
        SpectrumAccumulator::fold(self, usize::from(label), trace);
    }

    fn merge(self, later: Self) -> Self {
        SpectrumAccumulator::merge(self, later)
    }
}

/// A callback that sees, after each leaf of a [`TreeReducer`] is merged
/// in, the leaf's sequence number and the running *prefix* state: every
/// leaf `0..=seq` merged. Used to track prefix trajectories — e.g. the
/// attack engine's key rank as a function of traces seen — without a
/// second pass or a second running state.
pub type ChunkObserver<'o, T> = &'o mut dyn FnMut(u64, &T);

/// In-order reduction of a sequence of shard accumulators into one
/// running state.
///
/// Accumulators are pushed with their position in the chunk sequence
/// (`seq`). Out-of-order arrivals wait in a reorder buffer; each leaf is
/// merged into the running state once every earlier leaf has been, so
/// the chain consumes leaves `0, 1, 2, …` no matter which worker
/// finished first, and merges each leaf exactly once (`leaves − 1`
/// merges in all). After each merge an optional [`ChunkObserver`]
/// ([`observed`](Self::observed)) sees the prefix state — the attack
/// engine's rank snapshots. Because every merge takes the prefix as its
/// earlier operand, the result is the schedule-order fold whatever the
/// arrival order (see [`FoldState`]). It is generic over the shard
/// state: the spectral pipeline reduces [`SpectrumAccumulator`]s, the
/// attack engine its co-moment state, joint (spectral + attack) folds a
/// composite, and batch acquisitions a
/// [`ClassifiedTraces`](crate::ClassifiedTraces) set.
///
/// Memory: one running state plus every leaf that arrived ahead of a
/// leaf still missing. The buffer itself is unbounded; its producer
/// bounds it. The campaign executor lets no worker start a claim more
/// than `workers` lane batches (`workers × LANES` traces) past the
/// claim holding the next leaf, so fewer than `workers × LANES /
/// FOLD_CHUNK` leaves wait here.
pub struct TreeReducer<'o, T = SpectrumAccumulator> {
    /// Next sequence number the chain will accept.
    next: u64,
    /// Out-of-order leaves waiting for their turn.
    pending: BTreeMap<u64, T>,
    /// Every leaf before `next`, merged in order.
    running: Option<T>,
    /// Sees the running state after each leaf is merged in.
    observer: Option<ChunkObserver<'o, T>>,
}

impl<T> Default for TreeReducer<'_, T> {
    fn default() -> Self {
        Self {
            next: 0,
            pending: BTreeMap::new(),
            running: None,
            observer: None,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for TreeReducer<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeReducer")
            .field("next", &self.next)
            .field("pending", &self.pending)
            .field("running", &self.running)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<'o, T: FoldState> TreeReducer<'o, T> {
    /// Empty reducer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty reducer whose `observer` (if any) sees the running prefix
    /// state after each leaf is merged in, in sequence order.
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
        while let Some(leaf) = self.pending.remove(&self.next) {
            // The running state covers earlier chunks, so it is the left
            // operand.
            let running = match self.running.take() {
                Some(prefix) => prefix.merge(leaf),
                None => leaf,
            };
            if let Some(observe) = self.observer.as_mut() {
                observe(self.next, &running);
            }
            self.running = Some(running);
            self.next += 1;
        }
    }

    /// Leaves consumed so far (buffered out-of-order leaves excluded).
    pub fn consumed(&self) -> u64 {
        self.next
    }

    /// Memory accounting over the running state and the buffered
    /// out-of-order leaves, with a caller-supplied per-state size
    /// function.
    pub fn resident_with<F>(&self, size: F) -> usize
    where
        F: Fn(&T) -> usize,
    {
        self.running
            .iter()
            .chain(self.pending.values())
            .map(size)
            .sum()
    }

    /// The running state: every pushed leaf, merged in order; `None` if
    /// nothing was pushed.
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
        self.running
    }
}

/// Sequential fold of a labelled trace stream through the chunk grid:
/// every [`FOLD_CHUNK`] consecutive traces fold into a fresh leaf, and
/// each leaf merges into the running state of a [`TreeReducer`]
/// (optionally observed, so the observer sees the same prefix states).
/// A schedule folded in order through this type yields bit-for-bit the
/// state the sharded campaign executor produces for it at any worker
/// count — it is how cached stores, tests and benches walk the grid.
/// Cutting leaves, rather than folding into the running state directly,
/// keeps its per-leaf cost the executor's.
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

    /// A fold whose `observer` (if any) sees the prefix state after
    /// every leaf, in order; see [`TreeReducer::observed`].
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
    /// running state, with a caller-supplied per-state size.
    pub fn resident_with<F: Fn(&S) -> usize>(&self, size: F) -> usize {
        size(&self.leaf) + self.reducer.resident_with(size)
    }

    /// Leaves cut so far, a partial trailing leaf included: the chain's
    /// length once [`finish`](Self::finish) has run.
    pub fn leaves(&self) -> u64 {
        self.reducer.consumed() + u64::from(self.in_leaf > 0)
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
    fn merge_tracks_counts() {
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
        let m = a.merge(b);
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
        // Reversed arrival and an interleaved arrival reduce to the same
        // state.
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
    fn chunk_fold_reproduces_reducer_chain() {
        // ChunkFold must reduce to the same state as hand-chunked leaves
        // pushed into a TreeReducer, over the same number of leaves.
        let traces = synth(0xBEEF, 4, 4, 5 * FOLD_CHUNK + 9);
        let mut fold = ChunkFold::new(SpectrumAccumulator::new(4, 4, SumMode::Exact));
        for (c, t) in &traces {
            fold.fold(*c as u16, t);
        }
        assert_eq!(fold.leaves(), 6);
        let folded = fold.finish();
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
    fn resident_floats_are_one_leaf_plus_one_running_state() {
        let samples = 4;
        let classes = 4;
        let empty = SpectrumAccumulator::new(classes, samples, SumMode::Exact);
        let leaf = empty.resident_floats();
        let mut fold = ChunkFold::new(empty);
        let resident = |fold: &ChunkFold<'_, SpectrumAccumulator>| {
            fold.resident_with(SpectrumAccumulator::resident_floats)
        };
        let trace: Vec<f64> = (0..samples).map(|i| i as f64 * 0.25).collect();
        for i in 0..20_000usize {
            fold.fold((i % classes) as u16, &trace);
            if i + 1 == 1_250 || i + 1 == 20_000 {
                // The partial leaf plus the running state, at any length.
                assert_eq!(resident(&fold), 2 * leaf, "after {} traces", i + 1);
            }
        }
    }

    #[test]
    fn reorder_buffer_holds_early_leaves_until_the_gap_closes() {
        // A bit-sliced claim delivers 64 leaves at once; a later claim
        // that finishes first parks all of them.
        let leaf = || {
            let mut acc = SpectrumAccumulator::new(4, 2, SumMode::Exact);
            acc.fold(1, &[0.5, 0.25]);
            acc
        };
        let size = leaf().resident_floats();
        let mut reducer = TreeReducer::new();
        for seq in 1..=64 {
            reducer.push(seq, leaf());
        }
        assert_eq!(reducer.consumed(), 0);
        let resident = reducer.resident_with(SpectrumAccumulator::resident_floats);
        assert_eq!(resident, 64 * size, "64 pending leaves");
        reducer.push(0, leaf());
        assert_eq!(reducer.consumed(), 65);
        let resident = reducer.resident_with(SpectrumAccumulator::resident_floats);
        assert_eq!(resident, size, "one running state");
        assert_eq!(reducer.finish().map(|acc| acc.len()), Some(65));
    }

    #[test]
    fn empty_chunk_fold_finishes_to_empty_accumulator() {
        let acc = ChunkFold::new(SpectrumAccumulator::new(4, 3, SumMode::Exact)).finish();
        assert!(acc.is_empty());
        assert_eq!(acc.class_means(), vec![vec![0.0; 3]; 4]);
    }

    #[test]
    fn observer_sees_every_prefix_once_in_sequence_order() {
        let traces = synth(0x0B5E, 4, 3, 4 * FOLD_CHUNK + 5);
        let leaves: Vec<SpectrumAccumulator> = traces
            .chunks(FOLD_CHUNK)
            .map(|chunk| chunk_fold(chunk, 4, 3))
            .collect();
        // Out-of-order arrival still reaches the observer in order, each
        // time as the merge of every leaf so far.
        let prefixes: Vec<SpectrumAccumulator> = (1..=leaves.len())
            .map(|n| chunk_fold(&traces[..(n * FOLD_CHUNK).min(traces.len())], 4, 3))
            .collect();
        let mut seen = Vec::new();
        let mut observe = |seq: u64, prefix: &SpectrumAccumulator| {
            assert_eq!(prefix, &prefixes[seq as usize], "prefix {seq}");
            seen.push((seq, prefix.len()));
        };
        let mut reducer = TreeReducer::observed(Some(&mut observe));
        for i in [2usize, 0, 4, 3, 1] {
            reducer.push(i as u64, leaves[i].clone());
        }
        assert!(format!("{reducer:?}").contains("observed: true"));
        let reduced = reducer.finish().unwrap();
        let want: Vec<(u64, u64)> = [16, 32, 48, 64, 69]
            .into_iter()
            .enumerate()
            .map(|(i, n)| (i as u64, n))
            .collect();
        assert_eq!(seen, want);
        // ChunkFold cuts the same leaves and shows the same prefixes.
        let mut seen = Vec::new();
        let mut observe = |seq: u64, prefix: &SpectrumAccumulator| seen.push((seq, prefix.len()));
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
