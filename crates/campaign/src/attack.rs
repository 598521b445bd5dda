//! Campaign-scale key-recovery attacks: the streaming attack engine
//! wired through the sharded executor.
//!
//! [`Campaign::attack_aged`] runs an [`AttackPlan`] — one or more
//! distinguishers (CPA, DPA, MLPA), repeated over independent trials —
//! against one `(scheme, age)` cell. Each trial captures its own
//! CPA schedule (a per-trial derived seed; trial 0 uses the protocol
//! seed unchanged, so it shares cells with
//! [`Campaign::acquire_cpa`]) and folds every trace *once* into a
//! [`JointState`]: the per-guess co-moment state of every requested
//! distinguisher **plus** a 16-class spectral accumulator over the
//! plaintext nibbles, all accumulated in the same pass through the
//! executor ([`fold_schedule_into`](crate::fold_schedule_into)), with
//! the same checkpointing, fault handling and degradation warnings as
//! every other campaign cell. Nothing is
//! materialized; peak memory is O(guesses × samples), independent of
//! the trace budget.
//!
//! The executor's fold chain provides the evaluation curves for free:
//! it merges each 16-trace chunk into one running state in schedule
//! order and shows the observer that prefix, which is scored and the
//! true key's rank recorded, so one streaming pass yields the whole
//! rank trajectory and every chunk is merged once. Across trials these
//! aggregate into success-rate and guessing-entropy curves and the
//! measurements-to-disclosure figure — the metrics the paper's leakage
//! rankings predict.
//!
//! Determinism carries through from the executor: trial schedules and
//! per-trace seeds are derived (never sampled), and the folds' exact
//! sums make the final scores bit-identical to the batch reference at
//! any worker count; the in-order chain only orders the rank
//! snapshots.
//! Trials resume from their `SCKP` checkpoints (refold-on-resume) and
//! serve from `SCTR` stores when a batch acquisition already captured
//! the same cell.

use std::collections::BTreeMap;

use acquisition::{trace_seed, NUM_CLASSES};
use leakage_core::online::{FoldState, SpectrumAccumulator, SumMode};
use sbox_circuits::Scheme;
use sca_attacks::{AttackAccumulator, CpaResult, Distinguisher, LeakageModel};

use crate::cell::Device;
use crate::{Campaign, Subject};

/// Joint streaming state of one attack trial: every requested
/// distinguisher's per-guess co-moment accumulator plus the spectral
/// class statistics of the same traces, folded in a single pass.
#[derive(Debug, Clone)]
pub struct JointState {
    spectrum: SpectrumAccumulator,
    attacks: Vec<AttackAccumulator>,
}

impl JointState {
    /// Empty joint state for `samples`-point traces.
    pub fn new(distinguishers: &[Distinguisher], samples: usize) -> Self {
        Self {
            spectrum: SpectrumAccumulator::new(NUM_CLASSES, samples, SumMode::Exact),
            attacks: distinguishers
                .iter()
                .map(|&d| AttackAccumulator::new(d, samples, SumMode::Exact))
                .collect(),
        }
    }

    /// The attack accumulators, in plan order.
    pub fn attacks(&self) -> &[AttackAccumulator] {
        &self.attacks
    }

    /// The spectral state over plaintext-nibble classes.
    pub fn spectrum(&self) -> &SpectrumAccumulator {
        &self.spectrum
    }
}

impl FoldState for JointState {
    fn fold(&mut self, label: u16, trace: &[f64]) {
        self.spectrum.fold(usize::from(label & 0xF), trace);
        for a in &mut self.attacks {
            a.fold(label as u8, trace);
        }
    }

    fn merge(mut self, later: Self) -> Self {
        self.spectrum.merge_from(&later.spectrum);
        assert_eq!(self.attacks.len(), later.attacks.len(), "plan mismatch");
        for (a, b) in self.attacks.iter_mut().zip(&later.attacks) {
            a.merge_from(b);
        }
        self
    }
}

/// One campaign-scale attack: which key to recover, how hard to try,
/// and how to score it.
#[derive(Debug, Clone)]
pub struct AttackPlan {
    /// The secret key nibble the traces are captured under.
    pub key: u8,
    /// Traces per trial.
    pub traces: usize,
    /// Independent trials (distinct derived schedule seeds; trial 0
    /// uses the protocol seed, sharing cells with batch CPA
    /// acquisitions).
    pub trials: usize,
    /// Distinguishers to accumulate, all in the same pass.
    pub distinguishers: Vec<Distinguisher>,
    /// Success-rate level that counts as disclosure for the MTD figure.
    pub sr_threshold: f64,
    /// Summation mode of the fold. [`SumMode::Exact`] is the only one:
    /// scores are bit-identical to the batch reference at any worker
    /// count.
    pub mode: SumMode,
}

impl Default for AttackPlan {
    fn default() -> Self {
        Self {
            key: 0xB,
            traces: 256,
            trials: 4,
            distinguishers: vec![Distinguisher::Cpa(LeakageModel::OutputTransition)],
            sr_threshold: 0.8,
            mode: SumMode::Exact,
        }
    }
}

impl AttackPlan {
    fn validate(&self) {
        assert!(self.key < 16, "key nibble out of range");
        assert!(self.traces > 0, "empty trace budget");
        assert!(self.trials > 0, "no trials");
        assert!(!self.distinguishers.is_empty(), "no distinguishers");
        assert!(
            self.sr_threshold > 0.0 && self.sr_threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
    }
}

/// Evaluation of one distinguisher across every trial of an attack.
#[derive(Debug, Clone)]
pub struct DistinguisherReport {
    /// The distinguisher evaluated.
    pub distinguisher: Distinguisher,
    /// `(traces, fraction of trials ranking the true key first)` at
    /// every chunk boundary reached by all trials, ascending.
    pub success_rate: Vec<(usize, f64)>,
    /// `(traces, mean rank of the true key)` on the same grid.
    pub guessing_entropy: Vec<(usize, f64)>,
    /// Measurements-to-disclosure: smallest evaluated budget where the
    /// success rate reaches the plan's threshold and stays there.
    pub mtd: Option<usize>,
    /// Majority-vote best guess over the trials' full-budget scores.
    pub recovered: u8,
    /// Trials whose full-budget scores rank the true key first.
    pub trials_recovered: usize,
    /// Full-budget scores of every trial, in trial order (trial 0 is
    /// the canonical cell shared with batch acquisitions).
    pub final_scores: Vec<CpaResult>,
}

/// The outcome of [`Campaign::attack_aged`] for one `(scheme, age)`
/// cell.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The implementation attacked.
    pub scheme: Scheme,
    /// Device age in months (0.0 = fresh).
    pub age_months: f64,
    /// The true key nibble.
    pub key: u8,
    /// Traces per trial.
    pub traces_per_trial: usize,
    /// Trials run.
    pub trials: usize,
    /// One report per requested distinguisher, in plan order.
    pub reports: Vec<DistinguisherReport>,
    /// Trials served from an `SCTR` store instead of simulated.
    pub cache_hits: usize,
    /// Mean total leakage power of the per-trial plaintext-class
    /// spectra — the spectral metric of the very traces the attack
    /// consumed (plaintext classes a small random budget never drew
    /// contribute zero means).
    pub mean_total_leakage_power: f64,
}

impl AttackOutcome {
    /// The report of one distinguisher (`None` if it was not in the
    /// plan).
    pub fn report(&self, distinguisher: Distinguisher) -> Option<&DistinguisherReport> {
        self.reports
            .iter()
            .find(|r| r.distinguisher == distinguisher)
    }
}

/// Per-`n` aggregation of one distinguisher's rank trajectory across
/// trials.
#[derive(Debug, Default, Clone, Copy)]
struct NPoint {
    trials: usize,
    hits: usize,
    rank_sum: usize,
}

impl Campaign {
    /// Run `plan` against `subject` at a device age in months (0.0 =
    /// fresh), streaming every trial through the sharded executor.
    ///
    /// Each trial is one campaign cell: looked up in the trace store
    /// (a hit folds the stored records without simulating), resumed
    /// from its `SCKP` checkpoint when one exists, executed across the
    /// configured workers otherwise, and reported to the run log
    /// either way. The circuit is built and derated once, on the first
    /// trial that misses. Aging uses the same workload-derived derating
    /// as the spectral acquisitions, so attack difficulty and leakage
    /// metrics describe the same device.
    ///
    /// # Panics
    ///
    /// Panics if the plan is inconsistent (key ≥ 16, empty budget or
    /// distinguisher list, threshold outside `(0, 1]`).
    pub fn attack_aged<'a>(
        &mut self,
        subject: impl Into<Subject<'a>>,
        months: f64,
        plan: &AttackPlan,
    ) -> AttackOutcome {
        plan.validate();
        let subject = subject.into();
        let samples = self.config.protocol.sampling.samples;
        let mut device = Device::new(subject, months);

        let num_d = plan.distinguishers.len();
        let mut per_n: Vec<BTreeMap<usize, NPoint>> = vec![BTreeMap::new(); num_d];
        let mut final_scores: Vec<Vec<CpaResult>> = vec![Vec::with_capacity(plan.trials); num_d];
        let mut cache_hits = 0usize;
        let mut tlp_sum = 0.0f64;

        for trial in 0..plan.trials {
            // Trial 0 keeps the protocol seed (its schedule — and so its
            // store cell — matches `acquire_cpa`); later trials derive an
            // independent schedule seed.
            let base = self.config.protocol.seed;
            let seed = match trial {
                0 => base,
                _ => trace_seed(base, 0xA77A_C000 | trial as u64),
            };
            let cell = self.key(&subject, months, seed, plan.traces, Some(plan.key));
            let make = || JointState::new(&plan.distinguishers, samples);

            // The chunk grid shows its running prefix at every chunk
            // boundary, whose rank is snapshotted — the whole trajectory
            // from the one streaming pass.
            let mut trajectory: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut observer = |seq: u64, prefix: &JointState| {
                // Chunk 0 starts a pass (a store read that failed
                // part-way may already have shown prefixes of another).
                if seq == 0 {
                    trajectory.clear();
                }
                let attacks = prefix.attacks();
                let n = attacks[0].count() as usize;
                if n > 0 {
                    let ranks = attacks
                        .iter()
                        .map(|a| a.scores().key_rank(plan.key))
                        .collect();
                    trajectory.insert(n, ranks);
                }
            };
            let (state, hit) = self.cell(
                &cell,
                &mut device,
                &make,
                Some(&mut observer),
                None,
                |capture| (capture.state, capture.cache_hit),
            );

            cache_hits += usize::from(hit);
            for (d, acc) in state.attacks().iter().enumerate() {
                final_scores[d].push(acc.scores());
            }
            tlp_sum += state.spectrum().spectrum().total_leakage_power();
            for (n, ranks) in trajectory {
                for (d, &rank) in ranks.iter().enumerate() {
                    let point = per_n[d].entry(n).or_default();
                    point.trials += 1;
                    point.hits += usize::from(rank == 0);
                    point.rank_sum += rank;
                }
            }
        }

        let reports = plan
            .distinguishers
            .iter()
            .enumerate()
            .map(|(d, &distinguisher)| {
                // Curves only over budgets every trial reached, so the
                // denominator is the full trial count throughout.
                let (success_rate, guessing_entropy): (Vec<_>, Vec<_>) = per_n[d]
                    .iter()
                    .filter(|(_, p)| p.trials == plan.trials)
                    .map(|(&n, p)| {
                        let trials = p.trials as f64;
                        ((n, p.hits as f64 / trials), (n, p.rank_sum as f64 / trials))
                    })
                    .unzip();
                let mtd = sca_attacks::measurements_to_disclosure(&success_rate, plan.sr_threshold);
                let scores = std::mem::take(&mut final_scores[d]);
                let trials_recovered = scores.iter().filter(|s| s.key_rank(plan.key) == 0).count();
                let recovered = majority_guess(scores.iter().map(CpaResult::best_guess));
                DistinguisherReport {
                    distinguisher,
                    success_rate,
                    guessing_entropy,
                    mtd,
                    recovered,
                    trials_recovered,
                    final_scores: scores,
                }
            })
            .collect();

        AttackOutcome {
            scheme: subject.scheme(),
            age_months: months,
            key: plan.key,
            traces_per_trial: plan.traces,
            trials: plan.trials,
            reports,
            cache_hits,
            mean_total_leakage_power: tlp_sum / plan.trials as f64,
        }
    }
}

/// Majority vote with deterministic ties (lowest guess wins).
fn majority_guess<I: Iterator<Item = u8>>(guesses: I) -> u8 {
    let mut counts = [0usize; 16];
    for g in guesses {
        counts[usize::from(g) & 0xF] += 1;
    }
    let best = counts.iter().copied().max().unwrap_or(0);
    counts.iter().position(|&c| c == best).unwrap_or(0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CacheMode, CampaignConfig};
    use leakage_core::online::FOLD_CHUNK;
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("campaign-attack-{}-{name}", std::process::id()));
        p
    }

    fn campaign(dir: &Path, cache: CacheMode, workers: usize) -> Campaign {
        Campaign::new(CampaignConfig {
            workers,
            cache,
            store_dir: dir.to_path_buf(),
            log_path: dir.join("runs.jsonl"),
            ..CampaignConfig::default()
        })
    }

    fn small_plan() -> AttackPlan {
        AttackPlan {
            key: 0x7,
            traces: 48,
            trials: 2,
            distinguishers: vec![
                Distinguisher::Cpa(LeakageModel::OutputTransition),
                Distinguisher::Mlpa,
            ],
            sr_threshold: 1.0,
            mode: SumMode::Exact,
        }
    }

    /// Every report field matches the 1-worker event run at any worker
    /// count, and on the bit-sliced engine, whose claims of `LANES`
    /// traces hand their leaves to the fold chain out of order.
    #[test]
    fn streamed_attack_is_bit_identical_at_any_worker_count() {
        let dir = tmp_dir("workers");
        let bitsliced = AttackPlan {
            trials: 1,
            traces: 3 * gatesim::LANES + 16,
            ..small_plan()
        };
        let inputs = [
            (small_plan(), Backend::Event),
            (bitsliced, Backend::Bitsliced),
        ];
        for (plan, backend) in &inputs {
            let reference = campaign(&dir, CacheMode::Off, 1).attack_aged(Scheme::Lut, 0.0, plan);
            for workers in [2, 8] {
                let mut c = campaign(&dir, CacheMode::Off, workers);
                c.config.backend = *backend;
                let outcome = c.attack_aged(Scheme::Lut, 0.0, plan);
                let what = format!("{backend}, {workers} workers");
                assert_same_reports(&reference, &outcome, &what);
                let report = c.log().reports().last().unwrap();
                assert_eq!(report.backend, Some(*backend), "{what}");
                let leaves = plan.traces.div_ceil(FOLD_CHUNK);
                assert_eq!(report.merge_depth, leaves - 1, "{what}");
            }
        }
    }

    #[test]
    fn attack_matches_the_batch_reference_on_the_same_cell() {
        // Trial 0 shares its schedule with `acquire_cpa`, so the
        // streamed fold must reproduce the batch attack bit for bit —
        // and serve from the store the batch acquisition wrote.
        let dir = tmp_dir("batch");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = campaign(&dir, CacheMode::ReadWrite, 2);
        let plan = AttackPlan {
            trials: 1,
            ..small_plan()
        };
        let batch = c.acquire_cpa(Scheme::Lut, plan.key, plan.traces);
        let outcome = c.attack_aged(Scheme::Lut, 0.0, &plan);
        assert_eq!(outcome.cache_hits, 1, "must fold the stored cell");
        let want =
            sca_attacks::attack_batch(&batch.plaintexts, &batch.traces, plan.distinguishers[0])
                .scores();
        let got = &outcome.reports[0].final_scores[0];
        for g in 0..16 {
            assert_eq!(
                want.scores[g].to_bits(),
                got.scores[g].to_bits(),
                "guess {g}"
            );
        }
        let hit_report = c.log().reports().last().unwrap();
        assert_eq!(hit_report.stats.events, 0, "hit must not simulate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn curve_bits(curve: &[(usize, f64)]) -> Vec<(usize, u64)> {
        curve.iter().map(|&(n, v)| (n, v.to_bits())).collect()
    }

    /// Every field of every distinguisher report, bitwise.
    fn assert_same_reports(want: &AttackOutcome, got: &AttackOutcome, what: &str) {
        assert_eq!(want.reports.len(), got.reports.len(), "{what}");
        for (a, b) in want.reports.iter().zip(&got.reports) {
            let what = format!("{what}, {}", a.distinguisher.label());
            assert_eq!(a.distinguisher, b.distinguisher, "{what}");
            assert_eq!(
                curve_bits(&a.success_rate),
                curve_bits(&b.success_rate),
                "{what}: success rate"
            );
            assert_eq!(
                curve_bits(&a.guessing_entropy),
                curve_bits(&b.guessing_entropy),
                "{what}: guessing entropy"
            );
            assert_eq!(a.mtd, b.mtd, "{what}: MTD");
            assert_eq!(a.recovered, b.recovered, "{what}: recovered key");
            assert_eq!(a.trials_recovered, b.trials_recovered, "{what}");
            assert_eq!(a.final_scores.len(), b.final_scores.len(), "{what}");
            for (ra, rb) in a.final_scores.iter().zip(&b.final_scores) {
                assert_eq!(ra.peak_samples, rb.peak_samples, "{what}: peaks");
                for g in 0..16 {
                    assert_eq!(
                        ra.scores[g].to_bits(),
                        rb.scores[g].to_bits(),
                        "{what}: guess {g}"
                    );
                }
            }
        }
        assert_eq!(
            want.mean_total_leakage_power.to_bits(),
            got.mean_total_leakage_power.to_bits(),
            "{what}: leakage power"
        );
    }

    /// A trial served from the store folds through the executor's chunk
    /// grid, so its report — curves, MTD, vote and final score bits — and
    /// its chain length equal the miss path's.
    #[test]
    fn store_served_trial_reproduces_the_miss_exactly() {
        for workers in [1usize, 3] {
            let what = format!("{workers} workers");
            let dir = tmp_dir(&format!("hit-{workers}"));
            let _ = std::fs::remove_dir_all(&dir);
            // 72 traces: four full leaves and a partial fifth.
            let plan = AttackPlan {
                trials: 1,
                traces: 72,
                ..small_plan()
            };
            let mut miss = campaign(&dir, CacheMode::Off, workers);
            let want = miss.attack_aged(Scheme::Lut, 0.0, &plan);
            let mut hit = campaign(&dir, CacheMode::ReadWrite, workers);
            hit.acquire_cpa(Scheme::Lut, plan.key, plan.traces);
            let got = hit.attack_aged(Scheme::Lut, 0.0, &plan);
            assert_eq!((want.cache_hits, got.cache_hits), (0, 1), "{what}");
            assert_same_reports(&want, &got, &what);
            let miss_report = miss.log().reports().last().unwrap();
            let hit_report = hit.log().reports().last().unwrap();
            assert!(hit_report.cache_hit, "{what}");
            assert_eq!(miss_report.merge_depth, 4, "{what}: five leaves");
            assert_eq!(hit_report.merge_depth, miss_report.merge_depth, "{what}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A store that fails its checksum part-way through has already
    /// shown some chunks to the rank observer; the re-acquisition must
    /// start the trajectory afresh instead of counting them twice.
    #[test]
    fn a_store_failing_mid_read_does_not_skew_the_trajectory() {
        let dir = tmp_dir("mid-read");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = AttackPlan {
            trials: 1,
            traces: 72,
            ..small_plan()
        };
        let want = campaign(&dir, CacheMode::Off, 2).attack_aged(Scheme::Lut, 0.0, &plan);
        let mut c = campaign(&dir, CacheMode::ReadWrite, 2);
        c.acquire_cpa(Scheme::Lut, plan.key, plan.traces);
        // Flip a sample byte of record 52, after three full leaves.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "sctr"))
            .expect("the CPA store");
        let mut bytes = std::fs::read(&path).unwrap();
        let record = 2 + 8 * c.config().protocol.sampling.samples + 8;
        let at = bytes.len() - 8 - 20 * record + 10;
        bytes[at] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let got = c.attack_aged(Scheme::Lut, 0.0, &plan);
        assert_eq!(got.cache_hits, 0, "the damaged store cannot serve");
        assert_same_reports(&want, &got, "re-acquired after a failed read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unprotected_attack_discloses_and_curves_are_monotone_grids() {
        let dir = tmp_dir("curves");
        let plan = AttackPlan {
            key: 0xC,
            traces: 96,
            trials: 2,
            ..small_plan()
        };
        let outcome = campaign(&dir, CacheMode::Off, 2).attack_aged(Scheme::Lut, 0.0, &plan);
        // MLPA is the strongest distinguisher against the real LUT
        // netlist (the single-model CPAs stop a rank or two short).
        let report = outcome.report(Distinguisher::Mlpa).expect("in plan");
        assert!(!report.success_rate.is_empty());
        let ns: Vec<usize> = report.success_rate.iter().map(|&(n, _)| n).collect();
        assert!(ns.windows(2).all(|w| w[0] < w[1]), "grid ascends: {ns:?}");
        assert_eq!(*ns.last().unwrap(), plan.traces, "final budget evaluated");
        assert_eq!(report.recovered, plan.key);
        assert_eq!(report.trials_recovered, plan.trials);
        assert!(report.mtd.is_some(), "unprotected must disclose");
        assert!(outcome.mean_total_leakage_power > 0.0);
    }

    #[test]
    fn aged_attack_caches_independently_and_reports_aging() {
        let dir = tmp_dir("aged");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = campaign(&dir, CacheMode::Off, 2);
        let plan = AttackPlan {
            trials: 1,
            traces: 32,
            ..small_plan()
        };
        let sweep = [0.0, 24.0].map(|months| c.attack_aged(Scheme::Lut, months, &plan));
        assert_eq!(sweep[0].age_months, 0.0);
        assert_eq!(sweep[1].age_months, 24.0);
        let fresh = sweep[0].mean_total_leakage_power;
        let aged = sweep[1].mean_total_leakage_power;
        assert!(aged < fresh, "aging must reduce the attack set's leakage");
    }

    #[test]
    fn majority_vote_is_deterministic() {
        assert_eq!(majority_guess([3, 3, 7].into_iter()), 3);
        assert_eq!(majority_guess([7, 3].into_iter()), 3, "tie → lowest");
        assert_eq!(majority_guess(std::iter::empty()), 0);
    }

    #[test]
    #[should_panic(expected = "no distinguishers")]
    fn empty_plan_is_rejected() {
        let dir = tmp_dir("empty");
        let plan = AttackPlan {
            distinguishers: Vec::new(),
            ..AttackPlan::default()
        };
        campaign(&dir, CacheMode::Off, 1).attack_aged(Scheme::Lut, 0.0, &plan);
    }
}
