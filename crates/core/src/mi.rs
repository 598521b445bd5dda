//! Histogram-based mutual information between trace samples and the
//! class label — the information-theoretic upper bound on what any
//! first-order attack can extract from one sample.

use crate::ClassifiedTraces;

/// Per-sample mutual information `I(X_T; class)` in bits, estimated with
/// an equal-width histogram of `bins` cells per sample.
///
/// # Panics
///
/// Panics if `set` is empty or `bins < 2`.
///
/// # Example
///
/// ```
/// use leakage_core::{mi::mutual_information, ClassifiedTraces};
///
/// let mut set = ClassifiedTraces::new(2, 1);
/// for _ in 0..64 {
///     set.push(0, vec![0.0]);
///     set.push(1, vec![1.0]);
/// }
/// let mi = mutual_information(&set, 4);
/// assert!((mi[0] - 1.0).abs() < 1e-9); // one full bit
/// ```
pub fn mutual_information(set: &ClassifiedTraces, bins: usize) -> Vec<f64> {
    assert!(!set.is_empty());
    assert!(bins >= 2);
    let samples = set.samples();
    let num_classes = set.num_classes();
    let n = set.len() as f64;
    (0..samples)
        .map(|s| {
            let values: Vec<(usize, f64)> = set.iter().map(|(c, t)| (c, t[s])).collect();
            let lo = values.iter().map(|&(_, x)| x).fold(f64::INFINITY, f64::min);
            let hi = values
                .iter()
                .map(|&(_, x)| x)
                .fold(f64::NEG_INFINITY, f64::max);
            if hi <= lo {
                return 0.0; // constant sample carries no information
            }
            let width = (hi - lo) / bins as f64;
            let mut joint = vec![vec![0f64; bins]; num_classes];
            for &(c, x) in &values {
                let b = (((x - lo) / width) as usize).min(bins - 1);
                joint[c][b] += 1.0;
            }
            let mut mi = 0.0;
            for (c, row) in joint.iter().enumerate() {
                let p_c: f64 = set.class_counts()[c] as f64 / n;
                for (b, &count) in row.iter().enumerate() {
                    if count == 0.0 {
                        continue;
                    }
                    let p_xc = count / n;
                    let p_x: f64 = joint.iter().map(|r| r[b]).sum::<f64>() / n;
                    mi += p_xc * (p_xc / (p_x * p_c)).log2();
                }
            }
            mi.max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_class_sample_carries_log2_classes_bits() {
        let mut set = ClassifiedTraces::new(4, 1);
        for c in 0..4usize {
            for _ in 0..32 {
                set.push(c, vec![c as f64]);
            }
        }
        let mi = mutual_information(&set, 8);
        assert!((mi[0] - 2.0).abs() < 1e-9, "mi {}", mi[0]);
    }

    #[test]
    fn independent_sample_carries_nothing() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut set = ClassifiedTraces::new(4, 1);
        for i in 0..4096usize {
            set.push(i % 4, vec![rng.gen::<f64>()]);
        }
        let mi = mutual_information(&set, 4);
        assert!(mi[0] < 0.01, "mi {}", mi[0]);
    }

    #[test]
    fn constant_sample_is_zero() {
        let mut set = ClassifiedTraces::new(2, 2);
        set.push(0, vec![5.0, 0.0]);
        set.push(1, vec![5.0, 1.0]);
        let mi = mutual_information(&set, 4);
        assert_eq!(mi[0], 0.0);
        assert!(mi[1] > 0.9);
    }

    #[test]
    fn partial_leakage_sits_between_zero_and_full() {
        // Class bit + strong noise → 0 < MI < 1.
        let mut rng = SmallRng::seed_from_u64(13);
        let mut set = ClassifiedTraces::new(2, 1);
        for i in 0..8192usize {
            let c = i % 2;
            set.push(c, vec![c as f64 + 3.0 * rng.gen::<f64>()]);
        }
        let mi = mutual_information(&set, 16);
        assert!(mi[0] > 0.02 && mi[0] < 0.9, "mi {}", mi[0]);
    }
}
