//! Classical side-channel evaluation metrics that complement the
//! Walsh–Hadamard decomposition: SNR, NICV, and the confusion coefficient
//! of Fei et al. (the paper's citation \[18\]) that makes the S-box "the
//! most leaking function in symmetric cryptography".

use crate::stats::CompensatedSum;
use crate::ClassifiedTraces;

/// Per-sample signal-to-noise ratio: variance of the class means over the
/// mean of the within-class variances (Mangard's SNR).
///
/// Class means come from the exact batch estimator
/// ([`ClassifiedTraces::class_means`]) and the within-class squared
/// deviations are accumulated with compensated summation, so a handful
/// of large-magnitude samples cannot silently cancel the contribution of
/// the small ones (see the `metrics_survive_adversarial_ordering` test).
///
/// Samples where no trace varies at all yield an SNR of 0.
///
/// # Panics
///
/// Panics if `set` is empty.
pub fn snr(set: &ClassifiedTraces) -> Vec<f64> {
    assert!(!set.is_empty());
    let samples = set.samples();
    let num_classes = set.num_classes();
    let means = set.class_means();
    let counts = set.class_counts();
    let mut within = vec![vec![CompensatedSum::new(); samples]; num_classes];
    for (class, trace) in set.iter() {
        for (s, &x) in trace.iter().enumerate() {
            let d = x - means[class][s];
            within[class][s].add(d * d);
        }
    }
    (0..samples)
        .map(|s| {
            let mut grand = CompensatedSum::new();
            for c in 0..num_classes {
                grand.add(means[c][s] * counts[c] as f64);
            }
            let grand = grand.value() / set.len() as f64;
            let mut signal = CompensatedSum::new();
            for c in 0..num_classes {
                let d = means[c][s] - grand;
                signal.add(counts[c] as f64 * d * d);
            }
            let signal = signal.value() / set.len() as f64;
            let mut noise = CompensatedSum::new();
            for class in within.iter().take(num_classes) {
                noise.add(class[s].value());
            }
            let noise = noise.value() / set.len() as f64;
            if noise == 0.0 {
                // Noise-free: either a constant sample (no signal) or a
                // perfectly class-determined one (infinite SNR).
                if signal == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                signal / noise
            }
        })
        .collect()
}

/// Per-sample Normalized Inter-Class Variance:
/// `Var(E[X|class]) / Var(X)` ∈ [0, 1]. NICV = 1 means the sample is fully
/// explained by the class; 0 means it carries no class information.
///
/// Like [`snr`], all single-pass sums run through the shared compensated
/// helper so adversarial sample orderings do not corrupt the variances.
///
/// # Panics
///
/// Panics if `set` is empty.
pub fn nicv(set: &ClassifiedTraces) -> Vec<f64> {
    assert!(!set.is_empty());
    let samples = set.samples();
    let means = set.class_means();
    let counts = set.class_counts();
    let grand_means = set.grand_mean();
    let n = set.len() as f64;
    (0..samples)
        .map(|s| {
            let grand = grand_means[s];
            let mut total = CompensatedSum::new();
            for (_, t) in set.iter() {
                let d = t[s] - grand;
                total.add(d * d);
            }
            let total_var = total.value() / n;
            if total_var == 0.0 {
                return 0.0;
            }
            let mut between = CompensatedSum::new();
            for (m, &c) in means.iter().zip(&counts) {
                let d = m[s] - grand;
                between.add(c as f64 * d * d);
            }
            between.value() / n / total_var
        })
        .collect()
}

/// The confusion coefficient `κ(k_a, k_b)` of Fei–Ding–Lao–Zhang for a
/// single-bit leakage of an S-box: the probability, over uniform
/// plaintexts, that the predicted bit differs between two key guesses.
///
/// A contrasted confusion-coefficient spectrum is what makes an S-box a
/// rewarding CPA target (paper §IV).
///
/// # Panics
///
/// Panics if a key is not a nibble or `bit >= 4`.
pub fn confusion_coefficient(sbox: &[u8; 16], key_a: u8, key_b: u8, bit: usize) -> f64 {
    assert!(key_a < 16 && key_b < 16 && bit < 4);
    let differing = (0..16u8)
        .filter(|&p| {
            let va = (sbox[usize::from(p ^ key_a)] >> bit) & 1;
            let vb = (sbox[usize::from(p ^ key_b)] >> bit) & 1;
            va != vb
        })
        .count();
    differing as f64 / 16.0
}

/// The full confusion matrix for one output bit (16 × 16, symmetric,
/// zero diagonal).
pub fn confusion_matrix(sbox: &[u8; 16], bit: usize) -> Vec<Vec<f64>> {
    (0..16u8)
        .map(|a| {
            (0..16u8)
                .map(|b| confusion_coefficient(sbox, a, b, bit))
                .collect()
        })
        .collect()
}

/// Mean and variance of the off-diagonal confusion coefficients — the
/// "contrast" statistic: higher variance ⇒ easier key distinguishing.
pub fn confusion_contrast(sbox: &[u8; 16], bit: usize) -> (f64, f64) {
    let matrix = confusion_matrix(sbox, bit);
    let off: Vec<f64> = (0..16)
        .flat_map(|a| (0..16).filter(move |&b| a != b).map(move |b| (a, b)))
        .map(|(a, b)| matrix[a][b])
        .collect();
    let mean = off.iter().sum::<f64>() / off.len() as f64;
    let var = off.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / off.len() as f64;
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRESENT_SBOX: [u8; 16] = [
        0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
    ];

    fn toy_set() -> ClassifiedTraces {
        // Sample 0: class-determined; sample 1: pure noise-like alternation.
        let mut set = ClassifiedTraces::new(4, 2);
        for class in 0..4usize {
            for rep in 0..4usize {
                set.push(class, vec![class as f64, (rep % 2) as f64]);
            }
        }
        set
    }

    #[test]
    fn snr_separates_signal_from_noise_samples() {
        let s = snr(&toy_set());
        assert!(s[0] > 100.0, "deterministic class sample: SNR {}", s[0]);
        assert!(s[1] < 1e-9, "class-independent sample: SNR {}", s[1]);
    }

    #[test]
    fn nicv_is_bounded_and_ordered_like_snr() {
        let v = nicv(&toy_set());
        assert!(v.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        assert!(v[0] > 0.99);
        assert!(v[1] < 1e-9);
    }

    #[test]
    fn metrics_survive_adversarial_ordering() {
        // Two classes, one sample. Class 0 hides its unit-scale signal
        // behind ±1e16 pairs ordered so a naive running sum absorbs and
        // loses the unit-scale values; class 1 is unit-scale only. Naive
        // class means/variances get class 0 wrong, dragging SNR and NICV
        // with them. The compensated pipeline must match an exact
        // two-pass reference computed with ExactSum.
        let mut set = ClassifiedTraces::new(2, 1);
        let class0 = [1e16, 3.0, -1e16, -1.0, 1e16, 1.0, -1e16, -1.0];
        let class1 = [2.0, -2.0, 4.0, 0.0, 3.0, -1.0, 2.0, 0.0];
        for v in class0 {
            set.push(0, vec![v]);
        }
        for v in class1 {
            set.push(1, vec![v]);
        }

        // Exact two-pass reference, entirely in ExactSum arithmetic.
        let exact_mean = |xs: &[f64]| {
            let mut s = crate::stats::ExactSum::new();
            for &x in xs {
                s.add(x);
            }
            s.value() / xs.len() as f64
        };
        let m0 = exact_mean(&class0);
        let m1 = exact_mean(&class1);
        assert_eq!(m0, 0.25); // 2.0 / 8 — naive order-sensitive sum gives 0.125
        let exact_sq = |xs: &[f64], m: f64| {
            let mut s = crate::stats::ExactSum::new();
            for &x in xs {
                s.add((x - m) * (x - m));
            }
            s.value()
        };
        let n = (class0.len() + class1.len()) as f64;
        let grand = (m0 * class0.len() as f64 + m1 * class1.len() as f64) / n;
        let noise = (exact_sq(&class0, m0) + exact_sq(&class1, m1)) / n;
        let signal = (class0.len() as f64 * (m0 - grand) * (m0 - grand)
            + class1.len() as f64 * (m1 - grand) * (m1 - grand))
            / n;

        let got_snr = snr(&set)[0];
        let want_snr = signal / noise;
        assert!(
            (got_snr - want_snr).abs() <= 1e-12 * want_snr.abs(),
            "snr {got_snr} vs exact {want_snr}"
        );

        let got_nicv = nicv(&set)[0];
        let total = {
            let all: Vec<f64> = class0.iter().chain(&class1).copied().collect();
            exact_sq(&all, grand) / n
        };
        let want_nicv = signal / total;
        assert!(
            (got_nicv - want_nicv).abs() <= 1e-12 * want_nicv.abs(),
            "nicv {got_nicv} vs exact {want_nicv}"
        );
        assert!((0.0..=1.0).contains(&got_nicv));
    }

    #[test]
    fn confusion_is_symmetric_with_zero_diagonal() {
        for bit in 0..4 {
            let m = confusion_matrix(&PRESENT_SBOX, bit);
            for (a, row) in m.iter().enumerate() {
                assert_eq!(row[a], 0.0);
                for (b, &v) in row.iter().enumerate() {
                    assert_eq!(v, m[b][a]);
                }
            }
        }
    }

    #[test]
    fn present_sbox_has_contrasted_confusion() {
        // The paper calls the PRESENT S-box's confusion "contrasted":
        // nonzero variance of the off-diagonal coefficients around ~0.5.
        for bit in 0..4 {
            let (mean, var) = confusion_contrast(&PRESENT_SBOX, bit);
            assert!((0.3..0.7).contains(&mean), "bit {bit}: mean {mean}");
            assert!(var > 0.0, "bit {bit}: flat confusion");
        }
    }

    #[test]
    fn identity_sbox_is_less_contrasted_than_present() {
        let identity: [u8; 16] = std::array::from_fn(|i| i as u8);
        let (_, var_id) = confusion_contrast(&identity, 0);
        let (_, var_present) = confusion_contrast(&PRESENT_SBOX, 0);
        assert!(var_present <= var_id,
            "a cryptographically strong S-box flattens the worst-case confusion: {var_present} vs {var_id}");
    }
}
