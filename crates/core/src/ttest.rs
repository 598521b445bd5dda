//! Welch's t-test (TVLA) — the conventional leakage-assessment tool the
//! paper's spectral method complements.
//!
//! The fixed-vs-random Test Vector Leakage Assessment computes, per sample,
//! `t = (μ_A − μ_B) / √(s²_A/n_A + s²_B/n_B)`; |t| > 4.5 is the usual
//! "leaks" threshold.

use crate::stats::{mean, sample_variance};

/// The customary TVLA pass/fail threshold on |t|.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Per-sample Welch t statistics between two groups of traces.
///
/// Returns 0.0 at samples where both groups have zero variance (nothing to
/// distinguish).
///
/// # Panics
///
/// Panics if either group is empty or trace lengths are inconsistent.
///
/// # Example
///
/// ```
/// use leakage_core::ttest::{welch_t, TVLA_THRESHOLD};
///
/// let fixed: Vec<Vec<f64>> = (0..50).map(|i| vec![1.0 + 0.001 * i as f64]).collect();
/// let random: Vec<Vec<f64>> = (0..50).map(|i| vec![3.0 - 0.001 * i as f64]).collect();
/// let t = welch_t(&fixed, &random);
/// assert!(t[0].abs() > TVLA_THRESHOLD);
/// ```
pub fn welch_t(group_a: &[Vec<f64>], group_b: &[Vec<f64>]) -> Vec<f64> {
    assert!(!group_a.is_empty() && !group_b.is_empty());
    let samples = group_a[0].len();
    assert!(
        group_a.iter().chain(group_b).all(|t| t.len() == samples),
        "inconsistent trace lengths"
    );
    let na = group_a.len() as f64;
    let nb = group_b.len() as f64;
    (0..samples)
        .map(|s| {
            let xa: Vec<f64> = group_a.iter().map(|t| t[s]).collect();
            let xb: Vec<f64> = group_b.iter().map(|t| t[s]).collect();
            let denom = (sample_variance(&xa) / na + sample_variance(&xb) / nb).sqrt();
            if denom == 0.0 {
                0.0
            } else {
                (mean(&xa) - mean(&xb)) / denom
            }
        })
        .collect()
}

/// Per-sample Welch t statistics from two streaming accumulators
/// instead of materialized trace groups.
///
/// This is the online counterpart of [`welch_t`]: fold each group into a
/// [`ClassAccumulator`](crate::online::ClassAccumulator) (one trace at a
/// time, constant memory) and compute the identical statistic from the
/// accumulated moments. Uses the unbiased sample variance
/// `M2 / (n − 1)`, matching the batch path.
///
/// # Panics
///
/// Panics if either group holds fewer than two traces or the sample
/// counts differ.
pub fn welch_t_from_moments(
    group_a: &crate::online::ClassAccumulator,
    group_b: &crate::online::ClassAccumulator,
) -> Vec<f64> {
    assert!(
        group_a.count() >= 2 && group_b.count() >= 2,
        "each group needs at least two traces"
    );
    assert_eq!(
        group_a.samples(),
        group_b.samples(),
        "inconsistent trace lengths"
    );
    let na = group_a.count() as f64;
    let nb = group_b.count() as f64;
    // ClassAccumulator::variance is the population variance (M2 / n);
    // rescale to the unbiased estimator the batch path uses.
    let (ma, va) = (group_a.mean(), group_a.variance());
    let (mb, vb) = (group_b.mean(), group_b.variance());
    ma.iter()
        .zip(&va)
        .zip(mb.iter().zip(&vb))
        .map(|((&mean_a, &var_a), (&mean_b, &var_b))| {
            let sa = var_a * na / (na - 1.0);
            let sb = var_b * nb / (nb - 1.0);
            let denom = (sa / na + sb / nb).sqrt();
            if denom == 0.0 {
                0.0
            } else {
                (mean_a - mean_b) / denom
            }
        })
        .collect()
}

/// The largest |t| across samples — the single TVLA verdict number.
pub fn max_abs_t(t_series: &[f64]) -> f64 {
    t_series.iter().fold(0.0, |m, t| m.max(t.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn noisy_group(rng: &mut SmallRng, n: usize, mean: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| vec![mean + rng.gen::<f64>() - 0.5])
            .collect()
    }

    #[test]
    fn identical_distributions_pass() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = noisy_group(&mut rng, 200, 1.0);
        let b = noisy_group(&mut rng, 200, 1.0);
        let t = welch_t(&a, &b);
        assert!(max_abs_t(&t) < TVLA_THRESHOLD, "t = {:?}", t);
    }

    #[test]
    fn shifted_distributions_fail() {
        let mut rng = SmallRng::seed_from_u64(4);
        let a = noisy_group(&mut rng, 200, 1.0);
        let b = noisy_group(&mut rng, 200, 1.5);
        assert!(max_abs_t(&welch_t(&a, &b)) > TVLA_THRESHOLD);
    }

    #[test]
    fn zero_variance_yields_zero_t() {
        let a = vec![vec![2.0]; 10];
        let b = vec![vec![2.0]; 10];
        assert_eq!(welch_t(&a, &b), vec![0.0]);
    }

    #[test]
    fn moments_path_matches_batch() {
        use crate::online::ClassAccumulator;
        let mut rng = SmallRng::seed_from_u64(6);
        let a = noisy_group(&mut rng, 80, 0.0);
        let b = noisy_group(&mut rng, 120, 0.4);
        let batch = welch_t(&a, &b);
        let mut acc_a = ClassAccumulator::new(1);
        let mut acc_b = ClassAccumulator::new(1);
        for t in &a {
            acc_a.fold(t);
        }
        for t in &b {
            acc_b.fold(t);
        }
        let online = welch_t_from_moments(&acc_a, &acc_b);
        assert_eq!(online.len(), batch.len());
        assert!((online[0] - batch[0]).abs() < 1e-9);
    }

    #[test]
    fn t_is_antisymmetric() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = noisy_group(&mut rng, 50, 0.0);
        let b = noisy_group(&mut rng, 50, 1.0);
        let tab = welch_t(&a, &b);
        let tba = welch_t(&b, &a);
        assert!((tab[0] + tba[0]).abs() < 1e-12);
    }
}
