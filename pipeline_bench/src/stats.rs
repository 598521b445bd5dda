//! Minimum, median and quartiles, the latter computed the way Python's
//! `statistics` module computes them, so spreads quoted from either
//! agree.

/// Minimum, median, quartiles and sample count of a set of
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of measurements.
    pub n: usize,
    /// The smallest measurement.
    pub min: f64,
    /// `statistics.median`.
    pub median: f64,
    /// First quartile, `statistics.quantiles(n=4)[0]`.
    pub q1: f64,
    /// Third quartile, `statistics.quantiles(n=4)[2]`.
    pub q3: f64,
}

/// Summarize `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "nothing to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            n,
            min: v[0],
            median,
            q1: median,
            q3: median,
        };
    }
    // The 'exclusive' method: positions i·(n+1)/4, clamped to 1..n-1.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.n, s.min, s.median, s.q1, s.q3),
            (10, 1.0, 5.5, 2.75, 8.25)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.0, 1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3), (1.5, 0.75, 2.25));
        let s = summarize(&[4.0]);
        assert_eq!((s.median, s.q1, s.q3), (4.0, 4.0, 4.0));
    }
}
