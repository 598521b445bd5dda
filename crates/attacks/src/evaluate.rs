//! Attack evaluation metrics: success rate, guessing entropy, and
//! measurements-to-disclosure, computed incrementally.
//!
//! All three metrics ask the same question at many trace budgets —
//! "what does the attack know after the first `n` traces?" — so they
//! share one engine, [`PrefixEvaluator`]: per trial, *one* streaming
//! [`AttackAccumulator`] folds the (rotated) trace sequence and the key
//! rank is snapshotted at each requested prefix length. Evaluating `P`
//! prefixes over `T` trials costs `T × max(counts)` folds total,
//! instead of the `P × T` full re-attacks (`O(prefixes × N)` rework)
//! the batch implementation performed.
//!
//! Trials are contiguous windows rotated through the dataset (trial `i`
//! of `T` starts at `⌊i·N/T⌋`), which keeps the evaluation
//! deterministic — the same subsets the previous batch implementation
//! used, so the metrics' semantics are unchanged.

use crate::distinguisher::Distinguisher;
use crate::streaming::AttackAccumulator;
use crate::LeakageModel;
use leakage_core::online::SumMode;

/// Incremental prefix evaluation of one distinguisher over rotated
/// trials: per-trial key ranks at every requested prefix length from a
/// single streaming pass per trial.
#[derive(Debug)]
pub struct PrefixEvaluator {
    /// Snapshot points, ascending and deduplicated.
    counts: Vec<usize>,
    /// `ranks[ci][trial]` = rank of the true key after `counts[ci]`
    /// traces of that trial.
    ranks: Vec<Vec<usize>>,
}

impl PrefixEvaluator {
    /// Evaluate `distinguisher` on rotated windows of the dataset,
    /// snapshotting the true key's rank at every count in `counts`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, `counts` is empty, any count is zero or
    /// exceeds the dataset size, or the dataset is empty/ragged.
    pub fn run(
        plaintexts: &[u8],
        traces: &[Vec<f64>],
        true_key: u8,
        distinguisher: Distinguisher,
        counts: &[usize],
        trials: usize,
    ) -> Self {
        assert!(trials > 0, "trials must be positive");
        assert!(!counts.is_empty(), "no snapshot counts");
        assert_eq!(plaintexts.len(), traces.len());
        assert!(!traces.is_empty());
        let samples = traces[0].len();
        assert!(traces.iter().all(|t| t.len() == samples), "ragged traces");
        let mut sorted: Vec<usize> = counts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted[0] > 0, "zero-length prefix");
        let max = *sorted.last().expect("non-empty");
        assert!(max <= traces.len(), "subset larger than dataset");

        let n = traces.len();
        let mut ranks = vec![vec![0usize; trials]; sorted.len()];
        // `trial` both derives the rotated window start and addresses the
        // snapshot-major rank matrix, so an iterator fits neither use.
        #[allow(clippy::needless_range_loop)]
        for trial in 0..trials {
            let start = (trial * n) / trials;
            let mut acc = AttackAccumulator::new(distinguisher, samples, SumMode::Exact);
            let mut next = 0usize; // index into `sorted`
            for i in 0..max {
                let idx = (start + i) % n;
                acc.fold(plaintexts[idx], &traces[idx]);
                while next < sorted.len() && sorted[next] == i + 1 {
                    ranks[next][trial] = acc.scores().key_rank(true_key);
                    next += 1;
                }
            }
        }
        Self {
            counts: sorted,
            ranks,
        }
    }

    /// The snapshot points, ascending.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Per-trial ranks at snapshot `counts()[i]`.
    pub fn ranks_at(&self, i: usize) -> &[usize] {
        &self.ranks[i]
    }

    /// Success-rate curve: fraction of trials with the true key ranked
    /// first at each snapshot.
    pub fn success_rate(&self) -> Vec<(usize, f64)> {
        self.counts
            .iter()
            .zip(&self.ranks)
            .map(|(&n, ranks)| {
                let hits = ranks.iter().filter(|&&r| r == 0).count();
                (n, hits as f64 / ranks.len() as f64)
            })
            .collect()
    }

    /// Guessing-entropy curve: mean rank of the true key at each
    /// snapshot.
    pub fn guessing_entropy(&self) -> Vec<(usize, f64)> {
        self.counts
            .iter()
            .zip(&self.ranks)
            .map(|(&n, ranks)| {
                let total: usize = ranks.iter().sum();
                (n, total as f64 / ranks.len() as f64)
            })
            .collect()
    }
}

/// Smallest evaluated trace budget at which the success rate reaches
/// `threshold` *and stays there* for every larger evaluated budget —
/// the measurements-to-disclosure figure. `None` if disclosure is never
/// (stably) reached on the evaluated grid.
pub fn measurements_to_disclosure(sr_curve: &[(usize, f64)], threshold: f64) -> Option<usize> {
    let mut mtd = None;
    for &(n, sr) in sr_curve {
        if sr >= threshold {
            if mtd.is_none() {
                mtd = Some(n);
            }
        } else {
            mtd = None;
        }
    }
    mtd
}

/// Success-rate curve of a model-based CPA: fraction of `trials`
/// rotated trace-windows of each size for which the attack ranks the
/// true key first.
///
/// One streaming accumulator per trial is reused across all prefix
/// sizes (see [`PrefixEvaluator`]).
///
/// # Panics
///
/// Panics if any count is zero or exceeds the dataset size, `counts`
/// is empty, or `trials == 0`.
pub fn success_rate_curve(
    plaintexts: &[u8],
    traces: &[Vec<f64>],
    true_key: u8,
    model: LeakageModel,
    counts: &[usize],
    trials: usize,
) -> Vec<(usize, f64)> {
    let eval = PrefixEvaluator::run(
        plaintexts,
        traces,
        true_key,
        Distinguisher::Cpa(model),
        counts,
        trials,
    );
    // Report in the caller's count order (run() sorts internally).
    let sr = eval.success_rate();
    counts
        .iter()
        .map(|&n| *sr.iter().find(|&&(c, _)| c == n).expect("snapshotted"))
        .collect()
}

/// Guessing entropy of a model-based CPA: average rank of the true key
/// over rotated subsets of `count` traces.
///
/// # Panics
///
/// As for [`success_rate_curve`].
pub fn guessing_entropy(
    plaintexts: &[u8],
    traces: &[Vec<f64>],
    true_key: u8,
    model: LeakageModel,
    count: usize,
    trials: usize,
) -> f64 {
    let eval = PrefixEvaluator::run(
        plaintexts,
        traces,
        true_key,
        Distinguisher::Cpa(model),
        &[count],
        trials,
    );
    eval.guessing_entropy()[0].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use present_cipher::sbox;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic(key: u8, n: usize, noise: f64, seed: u64) -> (Vec<u8>, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plaintexts: Vec<u8> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let traces = plaintexts
            .iter()
            .map(|&p| {
                let hw = f64::from(sbox(p ^ key).count_ones());
                vec![rng.gen::<f64>(), hw + noise * (rng.gen::<f64>() - 0.5)]
            })
            .collect();
        (plaintexts, traces)
    }

    #[test]
    fn incremental_matches_naive_reevaluation() {
        // The prefix evaluator must produce exactly the ranks a full
        // re-attack on each rotated window produces.
        let (p, t) = synthetic(0xB, 96, 3.0, 41);
        let d = Distinguisher::Cpa(LeakageModel::HammingWeight);
        let counts = [8, 32, 96];
        let trials = 5;
        let eval = PrefixEvaluator::run(&p, &t, 0xB, d, &counts, trials);
        for (ci, &count) in counts.iter().enumerate() {
            for trial in 0..trials {
                let start = (trial * t.len()) / trials;
                let idx: Vec<usize> = (0..count).map(|i| (start + i) % t.len()).collect();
                let pw: Vec<u8> = idx.iter().map(|&i| p[i]).collect();
                let tw: Vec<Vec<f64>> = idx.iter().map(|&i| t[i].clone()).collect();
                let want = crate::streaming::attack_batch(&pw, &tw, d)
                    .scores()
                    .key_rank(0xB);
                assert_eq!(
                    eval.ranks_at(ci)[trial],
                    want,
                    "count {count} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn curves_preserve_caller_count_order() {
        let (p, t) = synthetic(0x4, 128, 2.0, 43);
        let curve = success_rate_curve(&p, &t, 0x4, LeakageModel::HammingWeight, &[128, 16], 4);
        assert_eq!(curve[0].0, 128);
        assert_eq!(curve[1].0, 16);
        assert!(curve[0].1 >= curve[1].1);
    }

    #[test]
    fn mtd_requires_stable_disclosure() {
        let curve = vec![(8, 0.2), (16, 1.0), (32, 0.4), (64, 0.9), (128, 1.0)];
        assert_eq!(measurements_to_disclosure(&curve, 0.8), Some(64));
        assert_eq!(measurements_to_disclosure(&curve, 0.1), Some(8));
        assert_eq!(measurements_to_disclosure(&curve, 1.1), None);
        assert_eq!(measurements_to_disclosure(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "subset larger than dataset")]
    fn oversized_prefix_is_rejected() {
        let (p, t) = synthetic(0x1, 16, 0.0, 47);
        let _ = success_rate_curve(&p, &t, 0x1, LeakageModel::HammingWeight, &[17], 2);
    }
}
