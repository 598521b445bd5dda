//! Small statistics helpers shared across the analysis and attack crates.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for fewer than two points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance; 0.0 for fewer than two points.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Pearson correlation coefficient of two equally long series; 0.0 when
/// either side has no variance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use leakage_core::stats::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series lengths differ");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Midrank transform: each value's 1-based rank, with tied values
/// sharing the mean of the ranks they span (the standard treatment for
/// Spearman with ties).
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = mid;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of two equally long series: the Pearson
/// correlation of their midranks, so ties are handled exactly. 0.0 when
/// either side is constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use leakage_core::stats::spearman;
///
/// // Monotone but nonlinear association is still a perfect rank fit.
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [1.0, 8.0, 27.0, 64.0];
/// assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series lengths differ");
    if xs.len() < 2 {
        return 0.0;
    }
    pearson(&midranks(xs), &midranks(ys))
}

/// Partials an [`ExactSum`] keeps inline before it spills to the heap.
///
/// Chosen on the pipeline benchmark: with three, thousands of
/// power-trace sums per run spill (about a hundred thousand on the
/// attack workload); with four, at most a few hundred per spectral run
/// and a few thousand per attack run, out of millions of sums. See DESIGN.md
/// §"Accumulator math".
const INLINE_PARTIALS: usize = 4;

/// Exact floating-point summation (Shewchuk expansion, fsum-style
/// rounding).
///
/// Maintains the running sum as a list of non-overlapping partials whose
/// (exact) sum equals the exact real sum of everything added so far.
/// [`value`](ExactSum::value) rounds that exact sum to the nearest `f64`
/// (ties to even), so the result is **independent of the order** in which
/// values were added and of how partial sums were
/// [`absorb`](ExactSum::absorb)ed together. That order-invariance is the
/// contract the streaming accumulators in [`crate::online`] build their
/// bit-identity guarantee on.
///
/// The partials live in a small inline array; a sum spills them to a
/// heap `Vec` only when it needs more (inputs spread over hundreds of
/// binary orders of magnitude, up to ~40 partials for finite `f64`).
/// Creating, cloning and folding a typical sum therefore never
/// allocates. Both representations run the same algorithm on the same
/// partial sequence, so which one a sum uses never changes a bit of its
/// [`value`](ExactSum::value), and equality compares the live partials
/// only.
///
/// Inputs must be finite; NaN or infinite inputs poison the sum (the
/// partials stop being an expansion) and intermediate overflow is not
/// handled. Power traces are bounded, so neither arises in this codebase.
///
/// # Example
///
/// ```
/// use leakage_core::stats::ExactSum;
///
/// let mut forward = ExactSum::new();
/// let mut backward = ExactSum::new();
/// let xs = [1e16, 1.0, -1e16, 1.0];
/// for &x in &xs {
///     forward.add(x);
/// }
/// for &x in xs.iter().rev() {
///     backward.add(x);
/// }
/// assert_eq!(forward.value(), 2.0); // naive summation yields 1.0
/// assert_eq!(forward.value().to_bits(), backward.value().to_bits());
/// ```
#[derive(Clone)]
pub struct ExactSum {
    /// Non-overlapping partials in increasing magnitude order.
    store: Partials,
}

/// Storage of an [`ExactSum`]'s partials.
#[derive(Clone)]
enum Partials {
    /// The first `len` entries of `buf` are live.
    Inline {
        len: u8,
        buf: [f64; INLINE_PARTIALS],
    },
    /// Outgrew the inline array; never moves back.
    Spilled(Vec<f64>),
}

impl Default for ExactSum {
    fn default() -> Self {
        Self {
            store: Partials::Inline {
                len: 0,
                buf: [0.0; INLINE_PARTIALS],
            },
        }
    }
}

impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        self.partials() == other.partials()
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSum")
            .field("partials", &self.partials())
            .finish()
    }
}

/// One Shewchuk step: adds `x` into the expansion `partials`, compacting
/// the non-zero round-off terms to the front. Returns how many were kept
/// and the new top partial, which belongs right after them.
#[inline]
fn grow_expansion(partials: &mut [f64], mut x: f64) -> (usize, f64) {
    let mut kept = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        // Two-sum: hi + lo == x + y exactly, |lo| <= ulp(hi)/2.
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[kept] = lo;
            kept += 1;
        }
        x = hi;
    }
    (kept, x)
}

impl ExactSum {
    /// An empty sum (value 0.0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The live partials, in increasing magnitude order.
    fn partials(&self) -> &[f64] {
        match &self.store {
            Partials::Inline { len, buf } => &buf[..usize::from(*len)],
            Partials::Spilled(v) => v,
        }
    }

    /// Add one value to the sum, exactly.
    pub fn add(&mut self, x: f64) {
        match &mut self.store {
            Partials::Inline { len, buf } => {
                let (kept, top) = grow_expansion(&mut buf[..usize::from(*len)], x);
                if kept < INLINE_PARTIALS {
                    buf[kept] = top;
                    *len = kept as u8 + 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_PARTIALS);
                    spilled.extend_from_slice(&buf[..kept]);
                    spilled.push(top);
                    self.store = Partials::Spilled(spilled);
                }
            }
            Partials::Spilled(v) => {
                let (kept, top) = grow_expansion(v, x);
                v.truncate(kept);
                v.push(top);
            }
        }
    }

    /// Fold another exact sum into this one; the combined sum is still
    /// exact, so `a.absorb(&b)` equals adding every input of `b` to `a`
    /// in any order.
    pub fn absorb(&mut self, other: &ExactSum) {
        for &p in other.partials() {
            self.add(p);
        }
    }

    /// The exact sum, correctly rounded to the nearest `f64` (ties to
    /// even).
    pub fn value(&self) -> f64 {
        let partials = self.partials();
        // Round the expansion high-to-low, tracking the first non-zero
        // remainder so half-ulp ties break to even on the *exact* value
        // rather than on the top partial alone (CPython's fsum rounding).
        let mut n = partials.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = partials[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = partials[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    /// Number of live partials (memory accounting; at most ~40 for
    /// finite `f64` inputs, typically a handful). Counts the partials
    /// the sum holds, not the inline capacity reserved for them.
    pub fn partials_len(&self) -> usize {
        self.partials().len()
    }
}

/// Neumaier compensated running sum: one float of error compensation,
/// sequential order.
///
/// Cheaper than [`ExactSum`] (two floats of state, no expansion) but the
/// result depends on input order; use it where the iteration order is
/// fixed and only robustness against cancellation is needed (e.g. the
/// single-pass moment sums in [`crate::metrics`]).
///
/// # Example
///
/// ```
/// use leakage_core::stats::CompensatedSum;
///
/// let mut s = CompensatedSum::new();
/// for &x in &[1e16, 1.0, -1e16, 1.0] {
///     s.add(x);
/// }
/// assert_eq!(s.value(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompensatedSum {
    sum: f64,
    comp: f64,
}

impl CompensatedSum {
    /// An empty sum (value 0.0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value to the sum.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated sum.
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(variance(&xs), 1.25);
        assert!((sample_variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[7.0]), 0.0);
    }

    #[test]
    fn pearson_signs_and_degeneracy() {
        let x = [1.0, 2.0, 3.0];
        assert!((pearson(&x, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn pearson_is_scale_invariant() {
        let x = [0.1, 0.9, 0.4, 0.7, 0.2];
        let y: Vec<f64> = x.iter().map(|v| 100.0 - 3.0 * v).collect();
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_sees_monotone_association() {
        let x = [0.1, 0.5, 0.2, 0.9, 0.7];
        let cubed: Vec<f64> = x.iter().map(|v| v * v * v).collect();
        assert!((spearman(&x, &cubed) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v.exp()).collect();
        assert!((spearman(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_with_midranks() {
        // Half the gates silent on both sides, half monotone: positive
        // but below 1 because the tied block carries no ordering info.
        let x = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 0.0, 0.0, 2.0, 5.0, 9.0];
        let rho = spearman(&x, &y);
        assert!((rho - 1.0).abs() < 1e-12, "tied blocks agree: {rho}");
        let y_mixed = [0.0, 0.0, 0.0, 9.0, 5.0, 2.0];
        let rho = spearman(&x, &y_mixed);
        assert!(rho > 0.0 && rho < 1.0, "partial agreement: {rho}");
        assert_eq!(spearman(&x, &[1.0; 6]), 0.0);
    }

    #[test]
    fn midranks_average_over_ties() {
        assert_eq!(
            midranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    /// Deterministic xorshift for test data; avoids depending on `rand`
    /// inside the core crate's unit tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn mixed_magnitudes(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                let r = xorshift(&mut s);
                let mag = [(1e-16), 1e-8, 1.0, 1e8, 1e16][(r % 5) as usize];
                let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                sign * frac * mag
            })
            .collect()
    }

    #[test]
    fn exact_sum_cancellation() {
        let mut s = ExactSum::new();
        for &x in &[1e16, 1.0, -1e16, 1.0] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
        assert_eq!(ExactSum::new().value(), 0.0);
    }

    #[test]
    fn exact_sum_is_order_invariant() {
        let xs = mixed_magnitudes(0xE5A7, 257);
        let mut forward = ExactSum::new();
        for &x in &xs {
            forward.add(x);
        }
        let reference = forward.value().to_bits();
        // Several deterministic reorderings, including reversal and
        // stride permutations, must round to the same bits.
        let mut reversed = ExactSum::new();
        for &x in xs.iter().rev() {
            reversed.add(x);
        }
        assert_eq!(reversed.value().to_bits(), reference);
        for stride in [3usize, 31, 97] {
            let mut s = ExactSum::new();
            let mut i = 0;
            for _ in 0..xs.len() {
                s.add(xs[i]);
                i = (i + stride) % xs.len();
            }
            assert_eq!(s.value().to_bits(), reference, "stride {stride}");
        }
    }

    #[test]
    fn exact_sum_absorb_matches_flat_sum() {
        let xs = mixed_magnitudes(0xAB5, 100);
        let mut flat = ExactSum::new();
        for &x in &xs {
            flat.add(x);
        }
        for split in [1usize, 17, 50, 99] {
            let (a, b) = xs.split_at(split);
            let mut left = ExactSum::new();
            let mut right = ExactSum::new();
            for &x in a {
                left.add(x);
            }
            for &x in b {
                right.add(x);
            }
            left.absorb(&right);
            assert_eq!(left.value().to_bits(), flat.value().to_bits());
        }
    }

    #[test]
    fn exact_sum_matches_naive_on_well_conditioned_data() {
        let xs: Vec<f64> = (1..=64).map(|i| i as f64 / 8.0).collect();
        let naive: f64 = xs.iter().sum();
        let mut s = ExactSum::new();
        for &x in &xs {
            s.add(x);
        }
        assert_eq!(s.value(), naive);
        assert!(s.partials_len() <= 4);
    }

    /// The heap-backed `ExactSum` the inline representation replaced,
    /// kept verbatim as the differential oracle: the two must hold the
    /// same partial sequence after every operation and round it to the
    /// same bits.
    #[derive(Debug, Clone, Default)]
    struct OracleSum {
        partials: Vec<f64>,
    }

    impl OracleSum {
        fn add(&mut self, x: f64) {
            let mut x = x;
            let mut kept = 0;
            for j in 0..self.partials.len() {
                let mut y = self.partials[j];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    self.partials[kept] = lo;
                    kept += 1;
                }
                x = hi;
            }
            self.partials.truncate(kept);
            self.partials.push(x);
        }

        fn absorb(&mut self, other: &OracleSum) {
            for &p in &other.partials {
                self.add(p);
            }
        }

        fn value(&self) -> f64 {
            let mut n = self.partials.len();
            if n == 0 {
                return 0.0;
            }
            n -= 1;
            let mut hi = self.partials[n];
            let mut lo = 0.0;
            while n > 0 {
                let x = hi;
                n -= 1;
                let y = self.partials[n];
                hi = x + y;
                let yr = hi - x;
                lo = y - yr;
                if lo != 0.0 {
                    break;
                }
            }
            if n > 0
                && ((lo < 0.0 && self.partials[n - 1] < 0.0)
                    || (lo > 0.0 && self.partials[n - 1] > 0.0))
            {
                let y = lo * 2.0;
                let x = hi + y;
                if y == x - hi {
                    hi = x;
                }
            }
            hi
        }
    }

    fn is_spilled(s: &ExactSum) -> bool {
        matches!(s.store, Partials::Spilled(_))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_oracle(s: &ExactSum, o: &OracleSum, what: &dyn std::fmt::Display) {
        assert_eq!(bits(s.partials()), bits(&o.partials), "{what}: partials");
        assert_eq!(s.value().to_bits(), o.value().to_bits(), "{what}: value");
        assert_eq!(s.partials_len(), o.partials.len(), "{what}: length");
    }

    /// One adversarial input: wide exponent spreads that force spills,
    /// exact negations of earlier inputs (catastrophic cancellation),
    /// signed zeros, and ordinary trace-sized values.
    fn adversarial(r: &mut u64, history: &[f64]) -> f64 {
        let pick = xorshift(r);
        let frac = 1.0 + (xorshift(r) >> 11) as f64 / (1u64 << 53) as f64;
        let sign = if pick & 0x100 == 0 { 1.0 } else { -1.0 };
        match pick % 8 {
            0 => sign * frac * 1e300,
            1 => sign * frac * 1e-300,
            2 => sign * frac * 10f64.powi((xorshift(r) % 601) as i32 - 300),
            3 if !history.is_empty() => -history[(xorshift(r) as usize) % history.len()],
            4 => sign * 0.0,
            5 => sign,
            _ => sign * frac * 1e-3,
        }
    }

    #[test]
    fn exact_sum_matches_vec_oracle_on_adversarial_sequences() {
        const POOL: usize = 4;
        let mut spilled_into_inline = 0;
        let mut inline_into_spilled = 0;
        let mut max_partials = 0;
        for seed in 1..=64u64 {
            let mut r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut sums = vec![ExactSum::new(); POOL];
            let mut oracles = vec![OracleSum::default(); POOL];
            let mut history = Vec::new();
            for step in 0..300 {
                let i = (xorshift(&mut r) as usize) % POOL;
                let x = adversarial(&mut r, &history);
                history.push(x);
                if xorshift(&mut r) & 3 != 0 {
                    sums[i].add(x);
                    oracles[i].add(x);
                } else {
                    // A short fragment absorbed in either direction. Pool
                    // sums never absorb each other, so magnitudes grow
                    // linearly and stay finite.
                    let mut frag = ExactSum::new();
                    let mut frag_oracle = OracleSum::default();
                    for _ in 0..=xorshift(&mut r) % 8 {
                        let y = adversarial(&mut r, &history);
                        frag.add(y);
                        frag_oracle.add(y);
                    }
                    let into_pool = xorshift(&mut r) & 1 == 0;
                    let (dst, src) = if into_pool {
                        (&sums[i], &frag)
                    } else {
                        (&frag, &sums[i])
                    };
                    match (is_spilled(dst), is_spilled(src)) {
                        (false, true) => spilled_into_inline += 1,
                        (true, false) => inline_into_spilled += 1,
                        _ => {}
                    }
                    if into_pool {
                        sums[i].absorb(&frag);
                        oracles[i].absorb(&frag_oracle);
                    } else {
                        frag.absorb(&sums[i]);
                        frag_oracle.absorb(&oracles[i]);
                        assert_matches_oracle(
                            &frag,
                            &frag_oracle,
                            &format_args!("seed {seed} step {step} fragment"),
                        );
                    }
                }
                max_partials = max_partials.max(sums[i].partials_len());
                assert_matches_oracle(
                    &sums[i],
                    &oracles[i],
                    &format_args!("seed {seed} step {step}"),
                );
            }
        }
        assert!(max_partials > INLINE_PARTIALS, "spill path never taken");
        assert!(
            spilled_into_inline > 0,
            "no spilled sum absorbed into an inline one"
        );
        assert!(
            inline_into_spilled > 0,
            "no inline sum absorbed into a spilled one"
        );
    }

    #[test]
    fn exact_sum_cancels_back_through_a_spill() {
        let wide = [1e300, 1e150, 1.0, 1e-150, 1e-300];
        let mut s = ExactSum::new();
        let mut o = OracleSum::default();
        for &x in &wide {
            s.add(x);
            o.add(x);
        }
        assert!(
            is_spilled(&s),
            "five disjoint magnitudes exceed the inline array"
        );
        assert_eq!(s.partials_len(), wide.len());
        for &x in wide.iter().rev() {
            s.add(-x);
            o.add(-x);
            assert_matches_oracle(&s, &o, &"cancellation");
        }
        assert_eq!(s.value(), 0.0);
        assert!(is_spilled(&s), "a spilled sum never moves back inline");
    }

    #[test]
    fn exact_sum_signed_zeros_round_like_the_oracle() {
        for xs in [
            &[][..],
            &[-0.0],
            &[0.0],
            &[-0.0, -0.0],
            &[-0.0, 0.0],
            &[1.0, -1.0],
            &[-1.0, 1.0, -0.0],
        ] {
            let mut s = ExactSum::new();
            let mut o = OracleSum::default();
            for &x in xs {
                s.add(x);
                o.add(x);
            }
            assert_matches_oracle(&s, &o, &format_args!("{xs:?}"));
        }
        let mut neg = ExactSum::new();
        neg.add(-0.0);
        assert_eq!(neg.value().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn exact_sum_clone_and_eq_ignore_the_representation() {
        let mut spilled = ExactSum::new();
        for &x in &[1e300, 1e150, 1.0, 1e-150, 1e-300] {
            spilled.add(x);
        }
        let copy = spilled.clone();
        assert!(is_spilled(&copy));
        assert_eq!(copy, spilled);
        assert_eq!(format!("{copy:?}"), format!("{spilled:?}"));

        // The same live partials compare equal whichever array holds
        // them; stale slots past the inline length do not count.
        let mut small = ExactSum::new();
        small.add(3.0);
        small.add(1e-20);
        let as_spilled = ExactSum {
            store: Partials::Spilled(small.partials().to_vec()),
        };
        assert_eq!(small, as_spilled);
        assert_eq!(as_spilled, small);
        let mut buf = [7.0; INLINE_PARTIALS];
        buf[..2].copy_from_slice(small.partials());
        let stale = ExactSum {
            store: Partials::Inline { len: 2, buf },
        };
        assert_eq!(stale, small);
        assert_ne!(small, spilled);
        assert_ne!(ExactSum::new(), small);
        assert_eq!(ExactSum::new(), ExactSum::default());
    }

    #[test]
    fn compensated_sum_recovers_cancelled_tail() {
        let mut s = CompensatedSum::new();
        for &x in &[1e16, 1.0, -1e16, 1.0] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
        let naive: f64 = [1e16, 1.0, -1e16, 1.0].iter().sum();
        assert_eq!(naive, 1.0); // the failure mode the helper exists for
    }
}
