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
/// Chosen on the pipeline benchmark when every power-trace sum was an
/// `ExactSum`: with three, thousands of sums per run spilled; with four,
/// a few hundred per spectral run. The accumulators now sum in
/// fixed-point rows and reach `ExactSum` only as their cold side, a
/// handful of times per run. See DESIGN.md §"Accumulator math".
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
/// The accumulators do not fold into `ExactSum`s directly: they keep
/// dense fixed-point `i128` rows, which give the same correctly rounded
/// value for far less work, and an `ExactSum` per entry only as the cold
/// side for inputs outside the rows' window (subnormals, values off
/// their grid or too large, non-finite values) and for overflowing
/// fixed-point sums. `ExactSum` is also the oracle those rows are tested
/// against.
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

/// Least significant bit, as a power of two, of a row of values,
/// hypotheses or `h·x` products. Picked by measurement on the default
/// protocol (DESIGN.md §"Accumulator math"): the last significand place
/// of every nonzero trace sample and product of all seven schemes, fresh
/// or aged, is at least 2^-89.
const VALUE_LSB: i32 = -100;

/// Least significant bit of a row of squares: the lowest that keeps
/// every square sum of the pipeline benchmark below 2^127 units (from
/// 2^-108 down, sums of the largest squares overflow). Squares of the
/// smallest samples fall below it and take the cold side, a handful
/// per run.
const SQUARE_LSB: i32 = -104;

/// Largest left shift of a 53-bit significand the fold takes: every
/// in-window input stays below 2^127, so it fits an `i128` on its own
/// and only running sums can overflow.
const MAX_SHIFT: i32 = 74;

const FRACTION_MASK: u64 = (1 << 52) - 1;

/// `2^k` for `k` in the normal exponent range.
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `x` as a whole number of `2^lsb` units when `x` is a normal number
/// whose significand's last place is at least `2^lsb` and which stays
/// below 2^127 units; `None` for zeros, subnormals, non-finite values
/// and normals too small or too large for that.
#[inline(always)]
fn to_fixed(x: f64, lsb: i32) -> Option<i128> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let significand = (bits & FRACTION_MASK) | (1 << 52);
    // Zeros and subnormals have biased exponent 0, far below any window.
    let shift = biased - 1075 - lsb;
    if !(0..=MAX_SHIFT).contains(&shift) {
        return None;
    }
    let magnitude = i128::from(significand) << shift;
    let negative = (bits >> 63) as i128;
    Some((magnitude ^ -negative) + negative)
}

/// `v · 2^lsb` correctly rounded to the nearest `f64` (ties to even),
/// the same value as `v as f64 * 2^lsb` without the `i128 → f64`
/// library call: the top 63 bits plus a sticky bit for everything below
/// them convert exactly through `i64`, so the one hardware rounding
/// sees every bit that decides it.
fn fixed_to_f64(v: i128, lsb: i32) -> f64 {
    if let Ok(small) = i64::try_from(v) {
        return small as f64 * pow2(lsb);
    }
    let magnitude = v.unsigned_abs();
    // |v| >= 2^63, so 1 <= shift <= 65 and the top bit lands on bit 62.
    let shift = 65 - magnitude.leading_zeros();
    let sticky = u64::from(magnitude & ((1u128 << shift) - 1) != 0);
    let top = ((magnitude >> shift) as u64 | sticky) as i64 as f64;
    let rounded = if v < 0 { -top } else { top };
    rounded * pow2(lsb + shift as i32)
}

/// Add `v · 2^lsb` to an exact sum, exactly: three 43-bit pieces, each
/// an exact `f64`.
fn absorb_fixed(sum: &mut ExactSum, v: i128, lsb: i32) {
    let magnitude = v.unsigned_abs();
    for k in 0..3 {
        let piece = ((magnitude >> (43 * k)) & ((1 << 43) - 1)) as u64;
        if piece != 0 {
            let piece = piece as f64 * pow2(lsb + 43 * k);
            sum.add(if v < 0 { -piece } else { piece });
        }
    }
}

/// A dense row of exact sums: entry `i` accumulates the `i`-th element
/// of every vector added, and [`value`](Self::value) is the exact sum
/// correctly rounded — the same bits [`ExactSum::value`] gives for the
/// same inputs in any order or grouping.
///
/// Each entry is an `i128` fixed-point sum with a fixed least
/// significant bit (2^-100 for values and products, 2^-104 for
/// squares), so a fold is a shift and an integer add and a merge is a
/// loop of integer adds. Whatever that window does not take —
/// subnormals, values too small or too large, non-finite values, and
/// any running sum whose `checked_add` overflows — goes to a lazily
/// allocated cold side of [`ExactSum`]s, and reads combine both.
///
/// Signed zeros follow [`ExactSum`]: a zero sum reads as `-0.0` only if
/// every input to that entry was `-0.0`. `+0.0` is an ordinary
/// in-window input; `-0.0` is counted per entry, in a count allocated
/// on the first one, and the sign is decided on read.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExactRow {
    /// Per entry, the in-window sum in units of `2^lsb`.
    fixed: Vec<i128>,
    lsb: i32,
    /// Vectors added, including those of absorbed rows: the number of
    /// inputs every entry has seen.
    adds: u64,
    /// Per entry, how many inputs were `-0.0`.
    neg_zeros: Option<Box<[u64]>>,
    /// Per entry, the exact sum of everything outside the window.
    cold: Option<Box<[ExactSum]>>,
}

impl ExactRow {
    fn with_lsb(len: usize, lsb: i32) -> Self {
        Self {
            fixed: vec![0; len],
            lsb,
            adds: 0,
            neg_zeros: None,
            cold: None,
        }
    }

    /// A row of `len` zero sums of values, hypotheses or products.
    pub(crate) fn values(len: usize) -> Self {
        Self::with_lsb(len, VALUE_LSB)
    }

    /// A row of `len` zero sums of squares.
    pub(crate) fn squares(len: usize) -> Self {
        Self::with_lsb(len, SQUARE_LSB)
    }

    /// Entry `i` += `xs[i]`, for every entry.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not as long as the row.
    pub(crate) fn add(&mut self, xs: &[f64]) {
        self.add_with(xs, |x| x);
    }

    /// Entry `i` += `xs[i] * xs[i]` (the rounded `f64` square).
    pub(crate) fn add_squares(&mut self, xs: &[f64]) {
        self.add_with(xs, |x| x * x);
    }

    /// Entry `i` += `h * xs[i]` (the rounded `f64` product).
    pub(crate) fn add_scaled(&mut self, h: f64, xs: &[f64]) {
        self.add_with(xs, |x| h * x);
    }

    #[inline(always)]
    fn add_with(&mut self, xs: &[f64], f: impl Fn(f64) -> f64) {
        assert_eq!(xs.len(), self.fixed.len(), "row length mismatch");
        self.adds += 1;
        let lsb = self.lsb;
        for (i, &x) in xs.iter().enumerate() {
            let x = f(x);
            // +0.0 adds nothing. Power traces are mostly zero, in runs,
            // so this branch predicts well and skips most of the work.
            if x.to_bits() == 0 {
                continue;
            }
            match to_fixed(x, lsb).and_then(|v| self.fixed[i].checked_add(v)) {
                Some(sum) => self.fixed[i] = sum,
                None => self.add_slow(i, x),
            }
        }
    }

    /// Everything the fast path leaves: `-0.0`, off-window values and
    /// overflowing sums.
    #[cold]
    #[inline(never)]
    fn add_slow(&mut self, i: usize, x: f64) {
        if x == 0.0 {
            // -0.0 changes only the sign of a zero sum.
            let len = self.fixed.len();
            self.neg_zeros.get_or_insert_with(|| vec![0; len].into())[i] += 1;
            return;
        }
        match to_fixed(x, self.lsb) {
            Some(v) => self.add_fixed(i, v),
            None => self.cold_mut()[i].add(x),
        }
    }

    /// Entry `i` += `v` units, spilling the running sum to the cold side
    /// when the two overflow an `i128`.
    fn add_fixed(&mut self, i: usize, v: i128) {
        match self.fixed[i].checked_add(v) {
            Some(sum) => self.fixed[i] = sum,
            None => {
                let spilled = std::mem::replace(&mut self.fixed[i], v);
                let lsb = self.lsb;
                absorb_fixed(&mut self.cold_mut()[i], spilled, lsb);
            }
        }
    }

    fn cold_mut(&mut self) -> &mut [ExactSum] {
        let len = self.fixed.len();
        self.cold
            .get_or_insert_with(|| vec![ExactSum::new(); len].into())
    }

    /// Add every entry of `other` to the matching entry of this row;
    /// the sums stay exact, so this equals adding all of `other`'s
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length or window.
    pub(crate) fn absorb(&mut self, other: &ExactRow) {
        assert_eq!(self.fixed.len(), other.fixed.len(), "row length mismatch");
        assert_eq!(self.lsb, other.lsb, "row window mismatch");
        self.adds += other.adds;
        for (i, &v) in other.fixed.iter().enumerate() {
            self.add_fixed(i, v);
        }
        if let Some(theirs) = &other.neg_zeros {
            let len = self.fixed.len();
            let mine = self.neg_zeros.get_or_insert_with(|| vec![0; len].into());
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
        if let Some(theirs) = &other.cold {
            for (i, t) in theirs.iter().enumerate() {
                if t.partials_len() > 0 {
                    self.cold_mut()[i].absorb(t);
                }
            }
        }
    }

    /// The exact sum of entry `i`, correctly rounded to the nearest
    /// `f64` (ties to even).
    pub(crate) fn value(&self, i: usize) -> f64 {
        let sum = match &self.cold {
            Some(cold) if cold[i].partials_len() > 0 => {
                let mut sum = cold[i].clone();
                absorb_fixed(&mut sum, self.fixed[i], self.lsb);
                sum.value()
            }
            _ => fixed_to_f64(self.fixed[i], self.lsb),
        };
        if sum != 0.0 {
            return sum;
        }
        let all_neg_zero =
            self.adds > 0 && self.neg_zeros.as_ref().is_some_and(|n| n[i] == self.adds);
        if all_neg_zero {
            -0.0
        } else {
            0.0
        }
    }

    /// Memory held, in `f64`-sized words: two per `i128`, plus the zero
    /// counts and the live cold partials where allocated.
    pub(crate) fn resident_words(&self) -> usize {
        2 * self.fixed.len()
            + self.neg_zeros.as_ref().map_or(0, |n| n.len())
            + self
                .cold
                .as_ref()
                .map_or(0, |c| c.iter().map(ExactSum::partials_len).sum())
    }

    /// Whether any input or overflow ever went to the cold side.
    #[cfg(test)]
    pub(crate) fn has_cold(&self) -> bool {
        self.cold.is_some()
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
    fn fixed_rounding_matches_the_library_conversion() {
        let two63 = 1i128 << 63;
        let mut cases = vec![
            0,
            1,
            i128::from(i64::MAX),
            two63 - 1,
            two63,
            two63 + 1,
            // 2^64 has an ulp of 2^12: exact ties round to even, one
            // unit past a tie rounds up.
            (1 << 64) + (1 << 11),
            (1 << 64) + (3 << 11),
            (1 << 64) + (1 << 11) + 1,
            (1 << 64) + (1 << 11) - 1,
            // Ties decided only by a bit below the top 63: the sticky
            // bit must carry it.
            (1 << 100) + (1 << 47),
            (1 << 100) + (1 << 47) + 1,
            (1 << 100) + (3 << 47),
            (1 << 126) + (1 << 73) + 1,
            i128::MAX,
            i128::MIN,
            i128::MIN + 1,
        ];
        let mut r = 0x5EED_F1C5u64;
        for _ in 0..2000 {
            let wide = (u128::from(xorshift(&mut r)) << 64) | u128::from(xorshift(&mut r));
            cases.push((wide >> (xorshift(&mut r) % 128)) as i128);
        }
        for v in cases.clone() {
            cases.extend(v.checked_neg());
        }
        for v in cases {
            assert_eq!(fixed_to_f64(v, 0).to_bits(), (v as f64).to_bits(), "{v:#x}");
        }
        // Scaling by the window's power of two is exact.
        assert_eq!(fixed_to_f64(3 << 100, VALUE_LSB), 3.0);
        assert_eq!(fixed_to_f64(-(5 << -SQUARE_LSB), SQUARE_LSB), -5.0);
    }

    /// One input for a row property test: on and off the fixed window,
    /// subnormals, near-top values whose sums overflow the `i128`,
    /// exact negations of earlier inputs, and signed zeros.
    fn row_input(r: &mut u64, history: &[f64], top: i32) -> f64 {
        let pick = xorshift(r);
        let frac = 1.0 + (xorshift(r) >> 11) as f64 / (1u64 << 53) as f64;
        let sign = if pick & 0x100 == 0 { 1.0 } else { -1.0 };
        let k = (xorshift(r) % 48) as i32;
        match pick % 11 {
            // Trace-sized, on the grid.
            0 | 1 => sign * frac * pow2(k - 40),
            // Small enough that the significand reaches below the grid:
            // the cold side, even for a power of two on the grid.
            2 => sign * frac * pow2(-60 - k),
            3 => sign * pow2(-60 - k),
            4 => sign * f64::from_bits(xorshift(r) & FRACTION_MASK),
            // Within a few bits of the largest in-window input; a few
            // of these overflow a running sum.
            5 => sign * frac * pow2(top - (k % 3)),
            6 => sign * frac * 1e30,
            7 if !history.is_empty() => -history[(xorshift(r) as usize) % history.len()],
            8 => 0.0,
            9 => -0.0,
            _ => sign * (k % 5) as f64,
        }
    }

    /// Per-entry `ExactSum` and `OracleSum` references for a row.
    #[derive(Clone)]
    struct RowOracle {
        row: ExactRow,
        sums: Vec<ExactSum>,
        oracles: Vec<OracleSum>,
    }

    impl RowOracle {
        fn new(row: ExactRow) -> Self {
            let len = row.fixed.len();
            Self {
                row,
                sums: vec![ExactSum::new(); len],
                oracles: vec![OracleSum::default(); len],
            }
        }

        /// Add `xs` through the row's own product, and its `f64`
        /// results to the references.
        fn add(&mut self, how: usize, h: f64, xs: &[f64]) {
            let inputs: Vec<f64> = match how {
                0 => {
                    self.row.add(xs);
                    xs.to_vec()
                }
                1 => {
                    self.row.add_squares(xs);
                    xs.iter().map(|x| x * x).collect()
                }
                _ => {
                    self.row.add_scaled(h, xs);
                    xs.iter().map(|x| h * x).collect()
                }
            };
            for ((s, o), &x) in self.sums.iter_mut().zip(&mut self.oracles).zip(&inputs) {
                s.add(x);
                o.add(x);
            }
        }

        fn absorb(&mut self, other: &RowOracle) {
            self.row.absorb(&other.row);
            for i in 0..self.sums.len() {
                self.sums[i].absorb(&other.sums[i]);
                self.oracles[i].absorb(&other.oracles[i]);
            }
        }

        fn check(&self, what: &dyn std::fmt::Display) {
            for i in 0..self.sums.len() {
                let got = self.row.value(i).to_bits();
                assert_eq!(got, self.sums[i].value().to_bits(), "{what}: entry {i}");
                assert_eq!(got, self.oracles[i].value().to_bits(), "{what}: entry {i}");
            }
        }
    }

    #[test]
    fn exact_row_matches_exact_sum_bit_for_bit() {
        const LEN: usize = 3;
        let mut absorbed = [[0usize; 2]; 2];
        let mut spills = 0;
        for seed in 1..=48u64 {
            for squares in [false, true] {
                let mut r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let (empty, top) = if squares {
                    (ExactRow::squares(LEN), SQUARE_LSB + 126)
                } else {
                    (ExactRow::values(LEN), VALUE_LSB + 126)
                };
                // Squares rows square their inputs; feed them square roots
                // of the same spread.
                let input_top = if squares { top / 2 } else { top };
                let mut pool = vec![RowOracle::new(empty.clone()); 3];
                let mut history = Vec::new();
                for step in 0..200 {
                    let p = (xorshift(&mut r) as usize) % pool.len();
                    let xs: Vec<f64> = (0..LEN)
                        .map(|_| row_input(&mut r, &history, input_top))
                        .collect();
                    history.extend_from_slice(&xs);
                    let how = if squares {
                        1
                    } else {
                        [0, 2][(xorshift(&mut r) & 1) as usize]
                    };
                    let h = [0.0, 1.0, 2.0, 3.0, -2.0][(xorshift(&mut r) % 5) as usize];
                    if !xorshift(&mut r).is_multiple_of(4) {
                        let before = pool[p].row.cold.is_some();
                        pool[p].add(how, h, &xs);
                        spills += usize::from(!before && pool[p].row.cold.is_some());
                    } else {
                        // A short fragment absorbed in either direction.
                        let mut frag = RowOracle::new(empty.clone());
                        for _ in 0..=xorshift(&mut r) % 4 {
                            let ys: Vec<f64> = (0..LEN)
                                .map(|_| row_input(&mut r, &history, input_top))
                                .collect();
                            frag.add(how, h, &ys);
                        }
                        if xorshift(&mut r) & 1 == 0 {
                            absorbed[usize::from(pool[p].row.has_cold())]
                                [usize::from(frag.row.has_cold())] += 1;
                            pool[p].absorb(&frag);
                        } else {
                            absorbed[usize::from(frag.row.has_cold())]
                                [usize::from(pool[p].row.has_cold())] += 1;
                            frag.absorb(&pool[p]);
                            frag.check(&format_args!("seed {seed} step {step} fragment"));
                        }
                    }
                    pool[p].check(&format_args!("seed {seed} squares {squares} step {step}"));
                }
            }
        }
        assert!(spills > 0, "no row ever went cold");
        for (dst, row) in absorbed.iter().enumerate() {
            for (src, &n) in row.iter().enumerate() {
                assert!(n > 0, "no absorb of a cold={src} row into a cold={dst} row");
            }
        }
    }

    #[test]
    fn exact_row_overflow_spills_and_stays_exact() {
        // 2^26 is the largest power of two in the value window; its sum
        // overflows the i128 on the second add.
        let big = pow2(VALUE_LSB + 126);
        let mut row = RowOracle::new(ExactRow::values(1));
        for _ in 0..5 {
            row.add(0, 0.0, &[big]);
            row.add(0, 0.0, &[pow2(-90)]);
        }
        assert!(row.row.has_cold(), "overflow never spilled");
        row.check(&"after overflow");
        for _ in 0..5 {
            row.add(0, 0.0, &[-big]);
        }
        row.check(&"cancelled back");
        assert_eq!(row.row.value(0), 5.0 * pow2(-90));
        // Two rows near the top overflow on absorb too.
        let mut a = RowOracle::new(ExactRow::values(1));
        let mut b = RowOracle::new(ExactRow::values(1));
        a.add(0, 0.0, &[big * 1.5]);
        b.add(0, 0.0, &[big * 1.5]);
        assert!(!a.row.has_cold() && !b.row.has_cold());
        a.absorb(&b);
        assert!(a.row.has_cold(), "absorb overflow never spilled");
        a.check(&"absorb overflow");
    }

    #[test]
    fn exact_row_signed_zeros_follow_exact_sum() {
        let cases: [&[f64]; 11] = [
            &[],
            &[-0.0],
            &[0.0],
            &[-0.0, -0.0],
            &[-0.0, 0.0],
            &[0.0, -0.0],
            &[1.0, -1.0],
            &[1.0, -1.0, -0.0],
            &[-0.0, 1.0, -1.0],
            &[-0.0, 1e-300, -1e-300, -0.0],
            &[1e30, -0.0, -1e30],
        ];
        for xs in cases {
            let mut row = RowOracle::new(ExactRow::values(1));
            for &x in xs {
                row.add(0, 0.0, &[x]);
            }
            row.check(&format_args!("{xs:?}"));
            // The same inputs split across two absorbed rows, both ways.
            for split in 0..=xs.len() {
                let (a, b) = xs.split_at(split);
                let mut left = RowOracle::new(ExactRow::values(1));
                let mut right = RowOracle::new(ExactRow::values(1));
                for &x in a {
                    left.add(0, 0.0, &[x]);
                }
                for &x in b {
                    right.add(0, 0.0, &[x]);
                }
                let mut ab = left.clone();
                ab.absorb(&right);
                ab.check(&format_args!("{a:?} + {b:?}"));
                right.absorb(&left);
                right.check(&format_args!("{b:?} + {a:?}"));
            }
        }
        // h = 0 against a negative sample is a -0.0 product: it stays
        // off the cold side and only decides the sign of a zero sum.
        let mut row = RowOracle::new(ExactRow::values(2));
        row.add(2, 0.0, &[-3.0, 3.0]);
        row.add(2, 0.0, &[-1.0, 2.0]);
        row.check(&"h = 0 products");
        assert_eq!(row.row.value(0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(row.row.value(1).to_bits(), 0.0f64.to_bits());
        assert!(!row.row.has_cold());
    }

    #[test]
    fn exact_row_non_finite_inputs_poison_like_exact_sum() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut row = RowOracle::new(ExactRow::values(1));
            row.add(0, 0.0, &[1.5]);
            row.add(0, 0.0, &[bad]);
            assert!(row.row.has_cold());
            assert!(!row.row.value(0).is_finite(), "{bad}");
            assert!(!row.sums[0].value().is_finite(), "{bad}");
        }
    }

    #[test]
    fn exact_row_memory_counts_words() {
        let mut row = ExactRow::values(4);
        assert_eq!(row.resident_words(), 8);
        row.add(&[1.0, -0.0, 1e-300, 0.0]);
        // Four zero counts and one cold partial join the eight words.
        assert_eq!(row.resident_words(), 8 + 4 + 1);
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
