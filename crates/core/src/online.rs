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
//! * [`ClassAccumulator`] — count, running mean, and per-sample second
//!   moment for a single class (Welford's update, Chan's parallel merge);
//! * [`SpectrumAccumulator`] — one accumulator per class plus
//!   [`merge`](SpectrumAccumulator::merge), so shard-local accumulators
//!   combine into the whole-campaign result;
//! * [`SpectrumStream`] — folds a linear trace stream through the
//!   deterministic chunk tree (below), producing bit-for-bit the same
//!   accumulator the sharded campaign executor produces at any worker
//!   count.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so "merge shard results"
//! naively yields different bits at different worker counts. Two
//! mechanisms restore the campaign's bit-identity contract:
//!
//! 1. **Fixed merge tree.** Traces are grouped into chunks of
//!    [`FOLD_CHUNK`] consecutive *schedule indices* (the same unit the
//!    campaign executor hands to workers). Chunk accumulators are
//!    combined by [`TreeReducer`] in a binary-counter pairwise tree whose
//!    shape depends only on the number of chunks — never on which worker
//!    produced a chunk or in which order chunks finished. The same
//!    schedule therefore folds to the same bits at any worker count, in
//!    either summation mode.
//! 2. **Exact summation mode.** In [`SumMode::Exact`] each class
//!    additionally carries exact per-sample sums
//!    ([`ExactSum`]); means are the correctly
//!    rounded quotient of the true sum, which is invariant under *any*
//!    regrouping — so exact-mode streaming results are bit-identical to
//!    the batch path (whose
//!    [`class_means`](crate::ClassifiedTraces::class_means) uses the same
//!    helper), not merely to other streaming runs.
//!
//! [`SumMode::Welford`] drops the exact sums for a cheaper fold
//! (`BENCH_capture.json` measures the exact streaming fold at about
//! 0.6× raw single-threaded capture throughput, the Welford fold at
//! about 0.9×); its means agree with the batch path only to rounding
//! error (observed ≤ 1e-12 relative on protocol-sized sets; the
//! documented tolerance is 1e-9). See DESIGN.md §"Streaming spectral
//! analysis".
//!
//! # Example
//!
//! ```
//! use leakage_core::online::{SpectrumStream, SumMode};
//! use leakage_core::{ClassifiedTraces, LeakageSpectrum};
//!
//! let mut set = ClassifiedTraces::new(4, 2);
//! let mut stream = SpectrumStream::new(4, 2, SumMode::Exact);
//! for class in 0..4usize {
//!     set.push(class, vec![1.0, class as f64]);
//!     stream.fold(class, &[1.0, class as f64]);
//! }
//! let batch = LeakageSpectrum::from_class_means(&set.class_means());
//! let streamed = stream.finish().spectrum();
//! assert_eq!(batch, streamed); // bit-identical in exact mode
//! ```

use std::collections::BTreeMap;

use crate::stats::ExactSum;
use crate::LeakageSpectrum;

/// Chunk size (in schedule indices) of the deterministic merge tree.
///
/// The campaign executor claims work in chunks of exactly this many
/// schedule indices and folds each chunk into one accumulator leaf, so
/// any sequential fold that uses the same chunking (e.g.
/// [`SpectrumStream`]) reproduces the campaign's merge tree bit-for-bit.
pub const FOLD_CHUNK: usize = 16;

/// How accumulators sum samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumMode {
    /// Running mean/M2 only (Welford + Chan merge). Cheapest; agrees
    /// with the batch path to rounding error, and is bit-stable across
    /// worker counts only via the fixed merge tree.
    Welford,
    /// Additionally keep exact per-sample sums, making means (and the
    /// spectra derived from them) invariant under any fold order or
    /// merge shape — bit-identical to the batch path.
    Exact,
}

/// Per-sample moment state, by mode.
#[derive(Debug, Clone, PartialEq)]
enum Moments {
    Welford {
        /// Running mean per sample.
        mean: Vec<f64>,
        /// Sum of squared deviations from the running mean, per sample.
        m2: Vec<f64>,
    },
    Exact {
        /// Exact sum of values per sample.
        sum: Vec<ExactSum>,
        /// Exact sum of squared values per sample.
        sumsq: Vec<ExactSum>,
    },
}

/// Count, mean, and second moment for one class of traces.
///
/// Folding is `O(samples)` per trace; state is `O(samples)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAccumulator {
    samples: usize,
    count: u64,
    moments: Moments,
}

impl ClassAccumulator {
    /// Empty accumulator for traces of `samples` points.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(samples: usize, mode: SumMode) -> Self {
        assert!(samples > 0, "samples must be positive");
        let moments = match mode {
            SumMode::Welford => Moments::Welford {
                mean: vec![0.0; samples],
                m2: vec![0.0; samples],
            },
            SumMode::Exact => Moments::Exact {
                sum: vec![ExactSum::new(); samples],
                sumsq: vec![ExactSum::new(); samples],
            },
        };
        Self {
            samples,
            count: 0,
            moments,
        }
    }

    /// Summation mode.
    pub fn mode(&self) -> SumMode {
        match self.moments {
            Moments::Welford { .. } => SumMode::Welford,
            Moments::Exact { .. } => SumMode::Exact,
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
        match &mut self.moments {
            Moments::Welford { mean, m2 } => {
                let n = self.count as f64;
                for ((m, s), &x) in mean.iter_mut().zip(m2.iter_mut()).zip(trace) {
                    let delta = x - *m;
                    *m += delta / n;
                    *s += delta * (x - *m);
                }
            }
            Moments::Exact { sum, sumsq } => {
                for ((s, q), &x) in sum.iter_mut().zip(sumsq.iter_mut()).zip(trace) {
                    s.add(x);
                    q.add(x * x);
                }
            }
        }
    }

    /// Fold a batch of traces in one pass, bit-identical to folding
    /// each trace in order with [`fold`](Self::fold).
    ///
    /// The loops are interchanged relative to the sequential fold:
    /// the sample index is the outer loop, so each per-sample state
    /// (an [`ExactSum`] pair in exact mode, a mean/M2 pair in Welford
    /// mode) stays hot across the whole batch instead of being
    /// streamed through cache once per trace. Each per-sample state
    /// still receives exactly the sequence of updates the sequential
    /// fold would apply — trace order within a sample, with Welford's
    /// divisor recomputed per trace — so the result is bitwise
    /// identical, not merely close.
    ///
    /// # Panics
    ///
    /// Panics if any trace length differs from `samples`.
    pub fn fold_batch(&mut self, traces: &[&[f64]]) {
        for trace in traces {
            assert_eq!(trace.len(), self.samples, "trace length mismatch");
        }
        let before = self.count;
        match &mut self.moments {
            Moments::Welford { mean, m2 } => {
                for (j, (m, s)) in mean.iter_mut().zip(m2.iter_mut()).enumerate() {
                    for (k, trace) in traces.iter().enumerate() {
                        // Same divisor sequence as the sequential fold.
                        let n = (before + k as u64 + 1) as f64;
                        let x = trace[j];
                        let delta = x - *m;
                        *m += delta / n;
                        *s += delta * (x - *m);
                    }
                }
            }
            Moments::Exact { sum, sumsq } => {
                for (j, (s, q)) in sum.iter_mut().zip(sumsq.iter_mut()).enumerate() {
                    for trace in traces {
                        let x = trace[j];
                        s.add(x);
                        q.add(x * x);
                    }
                }
            }
        }
        self.count = before + traces.len() as u64;
    }

    /// Merge another accumulator into this one (Chan's parallel update
    /// in Welford mode; exact absorption in exact mode).
    ///
    /// # Panics
    ///
    /// Panics if samples or modes differ.
    pub fn merge(&mut self, other: &ClassAccumulator) {
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        let n = self.count + other.count;
        match (&mut self.moments, &other.moments) {
            (
                Moments::Welford { mean, m2 },
                Moments::Welford {
                    mean: omean,
                    m2: om2,
                },
            ) => {
                if other.count == 0 {
                    return;
                }
                if self.count == 0 {
                    mean.copy_from_slice(omean);
                    m2.copy_from_slice(om2);
                } else {
                    let na = self.count as f64;
                    let nb = other.count as f64;
                    let nt = n as f64;
                    for i in 0..self.samples {
                        let delta = omean[i] - mean[i];
                        mean[i] += delta * (nb / nt);
                        m2[i] += om2[i] + delta * delta * (na * nb / nt);
                    }
                }
            }
            (
                Moments::Exact { sum, sumsq },
                Moments::Exact {
                    sum: osum,
                    sumsq: osumsq,
                },
            ) => {
                for (s, o) in sum.iter_mut().zip(osum) {
                    s.absorb(o);
                }
                for (q, o) in sumsq.iter_mut().zip(osumsq) {
                    q.absorb(o);
                }
            }
            _ => panic!("cannot merge accumulators with different summation modes"),
        }
        self.count = n;
    }

    /// Mean trace; all zeros when no traces were folded.
    pub fn mean(&self) -> Vec<f64> {
        match &self.moments {
            Moments::Welford { mean, .. } => {
                if self.count == 0 {
                    vec![0.0; self.samples]
                } else {
                    mean.clone()
                }
            }
            Moments::Exact { sum, .. } => {
                if self.count == 0 {
                    vec![0.0; self.samples]
                } else {
                    let n = self.count as f64;
                    sum.iter().map(|s| s.value() / n).collect()
                }
            }
        }
    }

    /// Population variance per sample; all zeros for fewer than two
    /// traces.
    pub fn variance(&self) -> Vec<f64> {
        if self.count < 2 {
            return vec![0.0; self.samples];
        }
        let n = self.count as f64;
        match &self.moments {
            Moments::Welford { m2, .. } => m2.iter().map(|s| s / n).collect(),
            Moments::Exact { sum, sumsq } => sum
                .iter()
                .zip(sumsq)
                .map(|(s, q)| {
                    let mean = s.value() / n;
                    (q.value() / n - mean * mean).max(0.0)
                })
                .collect(),
        }
    }

    /// Number of `f64` values currently held (memory accounting); in
    /// exact mode, the live partials of every sum, not their reserved
    /// inline capacity.
    pub fn resident_floats(&self) -> usize {
        match &self.moments {
            Moments::Welford { mean, m2 } => mean.len() + m2.len(),
            Moments::Exact { sum, sumsq } => sum
                .iter()
                .chain(sumsq)
                .map(|s| s.partials_len())
                .sum::<usize>(),
        }
    }
}

/// Mergeable online estimator of the full leakage spectrum: one
/// [`ClassAccumulator`] per class.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAccumulator {
    classes: Vec<ClassAccumulator>,
    samples: usize,
    mode: SumMode,
    depth: usize,
}

impl SpectrumAccumulator {
    /// Empty accumulator for `num_classes` classes of `samples`-point
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_classes: usize, samples: usize, mode: SumMode) -> Self {
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            classes: (0..num_classes)
                .map(|_| ClassAccumulator::new(samples, mode))
                .collect(),
            samples,
            mode,
            depth: 0,
        }
    }

    /// Summation mode.
    pub fn mode(&self) -> SumMode {
        self.mode
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

    /// Fold a batch of traces of one class in a single cache-friendly
    /// pass — bit-identical to folding each trace in order (see
    /// [`ClassAccumulator::fold_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the class is out of range or any trace has the wrong
    /// length.
    pub fn fold_batch(&mut self, class: usize, traces: &[&[f64]]) {
        assert!(class < self.classes.len(), "class {class} out of range");
        self.classes[class].fold_batch(traces);
    }

    /// Merge another shard into this one in place; `self` is the
    /// earlier shard (merge order matters for bit-identity in Welford
    /// mode — see [`TreeReducer`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes or modes differ.
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
    /// Panics if shapes or modes differ.
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
}

/// A shard state that [`TreeReducer`] can pairwise-combine.
///
/// `merge` consumes `self` as the **earlier** operand (in schedule
/// order) and `later` as the later one. Implementations must be
/// associative up to their documented determinism contract: under
/// [`SumMode::Exact`] state, any grouping yields identical bits; under
/// [`SumMode::Welford`] state, bit-identity holds only for a fixed
/// merge-tree shape (which [`TreeReducer`] provides).
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

/// Deterministic pairwise reduction of a sequence of shard accumulators.
///
/// Accumulators are pushed with their position in the chunk sequence
/// (`seq`); out-of-order arrivals are buffered and applied in order, so
/// the reduction consumes leaves `0, 1, 2, …` no matter which worker
/// finished first. Internally a binary counter of partial subtrees (the
/// classic binomial-heap shape): leaf `2k` and `2k+1` merge into a
/// 2-chunk node, two of those merge into a 4-chunk node, and so on.
/// The tree shape — and therefore every intermediate rounding in
/// Welford mode — depends only on how many leaves were pushed.
///
/// Generic over the shard state: the spectral pipeline reduces
/// [`SpectrumAccumulator`]s, the attack engine reduces its co-moment
/// state, and joint (spectral + attack) folds reduce a composite — all
/// through the same tree, so every streamed consumer inherits the same
/// worker-count invariance.
///
/// Memory: `O(log n)` buffered subtrees plus at most
/// (in-flight workers) buffered out-of-order leaves.
#[derive(Debug)]
pub struct TreeReducer<T = SpectrumAccumulator> {
    /// `levels[k]` holds a pending subtree of 2^k leaves, all earlier
    /// in sequence order than anything at levels < k.
    levels: Vec<Option<T>>,
    /// Next sequence number the counter will accept.
    next: u64,
    /// Out-of-order leaves waiting for their turn.
    pending: BTreeMap<u64, T>,
}

impl<T> Default for TreeReducer<T> {
    fn default() -> Self {
        Self {
            levels: Vec::new(),
            next: 0,
            pending: BTreeMap::new(),
        }
    }
}

impl<T: Merge> TreeReducer<T> {
    /// Empty reducer.
    pub fn new() -> Self {
        Self::default()
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

impl TreeReducer<SpectrumAccumulator> {
    /// Number of `f64` values currently held across all buffered
    /// subtrees and out-of-order leaves.
    pub fn resident_floats(&self) -> usize {
        self.resident_with(SpectrumAccumulator::resident_floats)
    }
}

/// Sequential fold of a trace stream through the deterministic chunk
/// tree: every [`FOLD_CHUNK`] consecutive folds become one leaf of a
/// [`TreeReducer`]. Folding a schedule in order through this type yields
/// bit-for-bit the accumulator the sharded campaign executor produces
/// for the same schedule at any worker count.
///
/// Internally each leaf's traces are buffered and folded in one
/// batched, loop-interchanged pass per class
/// ([`ClassAccumulator::fold_batch`]) when the chunk boundary is
/// reached. A class's traces reach its accumulator in arrival order and
/// no other class touches that state, so the leaf — and everything
/// reduced from it — is bitwise identical to the trace-at-a-time fold.
/// The buffer holds at most one chunk of raw traces, so residency stays
/// bounded; [`resident_floats`](Self::resident_floats) accounts for it.
#[derive(Debug)]
pub struct SpectrumStream {
    reducer: TreeReducer,
    /// The current leaf's traces, in arrival order, waiting to be
    /// batch-folded at the chunk boundary. Never exceeds `chunk` items.
    buffer: Vec<(usize, Vec<f64>)>,
    chunk: usize,
    seq: u64,
    folded: u64,
    num_classes: usize,
    samples: usize,
    mode: SumMode,
}

impl SpectrumStream {
    /// Stream with the campaign's chunk size ([`FOLD_CHUNK`]).
    pub fn new(num_classes: usize, samples: usize, mode: SumMode) -> Self {
        Self::with_chunk(num_classes, samples, mode, FOLD_CHUNK)
    }

    /// Stream with a custom chunk size (property tests exercise odd
    /// sizes; production code should use [`new`](Self::new) so chunk
    /// boundaries match the campaign executor).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(num_classes: usize, samples: usize, mode: SumMode, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        Self {
            reducer: TreeReducer::new(),
            buffer: Vec::with_capacity(chunk),
            chunk,
            seq: 0,
            folded: 0,
            num_classes,
            samples,
            mode,
        }
    }

    /// Fold one trace under its class label.
    ///
    /// # Panics
    ///
    /// Panics if the class is out of range or the trace has the wrong
    /// length (eagerly, even though the fold itself is deferred to the
    /// chunk boundary).
    pub fn fold(&mut self, class: usize, trace: &[f64]) {
        assert!(class < self.num_classes, "class {class} out of range");
        assert_eq!(trace.len(), self.samples, "trace length mismatch");
        self.buffer.push((class, trace.to_vec()));
        self.folded += 1;
        if self.buffer.len() == self.chunk {
            self.flush_leaf();
        }
    }

    /// Batch-fold the buffered traces into a fresh leaf accumulator and
    /// push it into the reduction tree.
    fn flush_leaf(&mut self) {
        let mut leaf = SpectrumAccumulator::new(self.num_classes, self.samples, self.mode);
        let mut scratch: Vec<&[f64]> = Vec::with_capacity(self.buffer.len());
        for class in 0..self.num_classes {
            scratch.clear();
            scratch.extend(
                self.buffer
                    .iter()
                    .filter(|(c, _)| *c == class)
                    .map(|(_, t)| t.as_slice()),
            );
            if !scratch.is_empty() {
                leaf.fold_batch(class, &scratch);
            }
        }
        drop(scratch);
        self.buffer.clear();
        self.reducer.push(self.seq, leaf);
        self.seq += 1;
    }

    /// Traces folded so far.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Number of `f64` values currently held (the partial leaf's
    /// buffered traces plus the reducer's buffered subtrees) —
    /// `O(chunk × samples + classes × samples × log chunks)`,
    /// independent of trace count.
    pub fn resident_floats(&self) -> usize {
        self.buffer.iter().map(|(_, t)| t.len()).sum::<usize>() + self.reducer.resident_floats()
    }

    /// Close the stream: the trailing partial chunk (if any) becomes the
    /// final leaf, and the reduction completes. Returns an empty
    /// accumulator if nothing was folded.
    pub fn finish(mut self) -> SpectrumAccumulator {
        if !self.buffer.is_empty() {
            self.flush_leaf();
        }
        self.reducer
            .finish()
            .unwrap_or_else(|| SpectrumAccumulator::new(self.num_classes, self.samples, self.mode))
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
        let mut stream = SpectrumStream::new(4, 6, SumMode::Exact);
        for (c, t) in &traces {
            stream.fold(*c, t);
        }
        let acc = stream.finish();
        assert_eq!(acc.len(), 101);
        assert_eq!(acc.spectrum(), batch);
    }

    #[test]
    fn welford_stream_matches_batch_within_tolerance() {
        let traces = synth(0xF00D, 4, 6, 101);
        let batch = batch_spectrum(&traces, 4, 6);
        let mut stream = SpectrumStream::new(4, 6, SumMode::Welford);
        for (c, t) in &traces {
            stream.fold(*c, t);
        }
        let got = stream.finish().spectrum();
        let scale = batch.total_leakage_power().abs().max(1.0);
        assert!((got.total_leakage_power() - batch.total_leakage_power()).abs() < 1e-9 * scale);
    }

    #[test]
    fn welford_variance_is_sane() {
        let mut acc = ClassAccumulator::new(1, SumMode::Welford);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.fold(&[x]);
        }
        assert!((acc.mean()[0] - 5.0).abs() < 1e-12);
        assert!((acc.variance()[0] - 4.0).abs() < 1e-12);
        // Exact mode computes the same moments.
        let mut e = ClassAccumulator::new(1, SumMode::Exact);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            e.fold(&[x]);
        }
        assert_eq!(e.mean()[0], 5.0);
        assert_eq!(e.variance()[0], 4.0);
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
        for mode in [SumMode::Welford, SumMode::Exact] {
            let traces = synth(0xCAFE, 4, 5, 7 * FOLD_CHUNK + 3);
            let leaves: Vec<SpectrumAccumulator> = traces
                .chunks(FOLD_CHUNK)
                .map(|chunk| {
                    let mut leaf = SpectrumAccumulator::new(4, 5, mode);
                    for (c, t) in chunk {
                        leaf.fold(*c, t);
                    }
                    leaf
                })
                .collect();
            let mut in_order = TreeReducer::new();
            for (i, leaf) in leaves.iter().enumerate() {
                in_order.push(i as u64, leaf.clone());
            }
            let reference = in_order.finish().unwrap();
            // Reversed arrival and an interleaved arrival must agree
            // bitwise, even in Welford mode.
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
    }

    #[test]
    fn stream_reproduces_reducer_tree() {
        // SpectrumStream must build the same tree as hand-chunked
        // leaves pushed into a TreeReducer.
        let traces = synth(0xBEEF, 4, 4, 5 * FOLD_CHUNK + 9);
        for mode in [SumMode::Welford, SumMode::Exact] {
            let mut stream = SpectrumStream::new(4, 4, mode);
            for (c, t) in &traces {
                stream.fold(*c, t);
            }
            let mut reducer = TreeReducer::new();
            for (i, chunk) in traces.chunks(FOLD_CHUNK).enumerate() {
                let mut leaf = SpectrumAccumulator::new(4, 4, mode);
                for (c, t) in chunk {
                    leaf.fold(*c, t);
                }
                reducer.push(i as u64, leaf);
            }
            assert_eq!(stream.finish(), reducer.finish().unwrap());
        }
    }

    #[test]
    fn fold_batch_is_bit_identical_to_sequential_folds() {
        // The loop-interchanged batch fold must leave the accumulator
        // in exactly the state the trace-at-a-time fold produces —
        // including the ExactSum partials (exact mode) and the rounding
        // of every Welford divisor — even when the batch continues from
        // a non-empty accumulator.
        let traces = synth(0xABBA, 3, 7, 53);
        let slices: Vec<&[f64]> = traces.iter().map(|(_, t)| t.as_slice()).collect();
        for mode in [SumMode::Welford, SumMode::Exact] {
            for split in [0usize, 1, 16, 52, 53] {
                let mut sequential = ClassAccumulator::new(7, mode);
                for s in &slices {
                    sequential.fold(s);
                }
                let mut batched = ClassAccumulator::new(7, mode);
                for s in &slices[..split] {
                    batched.fold(s);
                }
                batched.fold_batch(&slices[split..]);
                assert_eq!(batched, sequential, "{mode:?} split at {split}");
            }
        }
        // Per-class dispatch through the spectrum accumulator.
        let mut sequential = SpectrumAccumulator::new(3, 7, SumMode::Exact);
        for (c, t) in &traces {
            sequential.fold(*c, t);
        }
        let mut batched = SpectrumAccumulator::new(3, 7, SumMode::Exact);
        for class in 0..3usize {
            let of_class: Vec<&[f64]> = traces
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, t)| t.as_slice())
                .collect();
            batched.fold_batch(class, &of_class);
        }
        assert_eq!(batched, sequential);
    }

    #[test]
    fn resident_floats_grow_logarithmically() {
        let samples = 4;
        let classes = 4;
        let mut stream = SpectrumStream::new(classes, samples, SumMode::Welford);
        let trace: Vec<f64> = (0..samples).map(|i| i as f64 * 0.25).collect();
        let mut small = 0;
        for i in 0..20_000usize {
            stream.fold(i % classes, &trace);
            if i + 1 == 1_250 {
                small = stream.resident_floats();
            }
        }
        let large = stream.resident_floats();
        // 16x the traces may add at most 4 counter levels: the resident
        // set is O(classes × samples × log chunks), not O(traces).
        assert!(small > 0);
        assert!(
            large <= small + 4 * classes * samples * 2,
            "resident floats grew from {small} to {large}"
        );
        assert!(large < 20_000, "resident floats scale with traces");
    }

    #[test]
    fn empty_stream_finishes_to_empty_accumulator() {
        let acc = SpectrumStream::new(4, 3, SumMode::Exact).finish();
        assert!(acc.is_empty());
        assert_eq!(acc.class_means(), vec![vec![0.0; 3]; 4]);
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn reducer_rejects_duplicate_chunks() {
        let mut r = TreeReducer::new();
        r.push(1, SpectrumAccumulator::new(2, 1, SumMode::Exact));
        r.push(1, SpectrumAccumulator::new(2, 1, SumMode::Exact));
    }

    #[test]
    #[should_panic(expected = "different summation modes")]
    fn merge_rejects_mixed_modes() {
        let a = SpectrumAccumulator::new(2, 1, SumMode::Exact);
        let b = SpectrumAccumulator::new(2, 1, SumMode::Welford);
        let _ = a.merge(b);
    }
}
