//! Chaos soak for the durable I/O layer: a battery of seeded fault
//! schedules — capture panics, torn stores, full disks (`enospc@N`),
//! flaky writes (`eio%R`), torn checkpoints, hung captures under a
//! watchdog, expiring budgets, and cancellation — each run end to end
//! through the public campaign API on each of its three capture entry
//! points: the batch `acquire`, the streamed `acquire_spectrum`, and the
//! `attack` fold, on both capture engines.
//!
//! The invariant under every schedule is the same: the run must end in
//! one of three states — a bit-identical result, a cleanly reported
//! typed degradation (quarantine/warnings), or a resumable interruption
//! — and a follow-up run with the faults lifted must always converge to
//! the bit-identical reference. Every budget schedule must actually
//! interrupt, so the resume path is soaked too. A panic that escapes
//! the campaign, or a silently wrong trace set, fails the soak.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use sbox_leakage::acquisition::ProtocolConfig;
use sbox_leakage::campaign::{
    AttackPlan, Backend, CacheMode, Campaign, CampaignConfig, CancelToken, FaultPlan, RunBudget,
    RunReport,
};
use sbox_leakage::circuits::Scheme;

/// One seeded fault schedule of the soak.
struct ChaosSchedule {
    name: &'static str,
    faults: FaultPlan,
    budget: RunBudget,
    capture_timeout: Option<Duration>,
    /// Whether the run must end interrupted with traces left: set by
    /// every budget, all of which trip before the schedule is done.
    interrupts: bool,
}

impl ChaosSchedule {
    fn new(name: &'static str, faults: FaultPlan) -> Self {
        Self {
            name,
            faults,
            budget: RunBudget::unlimited(),
            capture_timeout: None,
            interrupts: false,
        }
    }

    fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self.interrupts = true;
        self
    }

    fn with_watchdog(mut self, limit: Duration) -> Self {
        self.capture_timeout = Some(limit);
        self
    }
}

fn schedules() -> Vec<ChaosSchedule> {
    let cancelled = CancelToken::new();
    cancelled.cancel();
    vec![
        ChaosSchedule::new("panic-rate", FaultPlan::none().with_panic_rate(7, 0.15)),
        ChaosSchedule::new(
            "sticky-panics",
            FaultPlan::none().with_sticky_panics([2, 17]),
        ),
        ChaosSchedule::new("torn-store", FaultPlan::none().with_torn_store(52)),
        ChaosSchedule::new("enospc", FaultPlan::none().with_enospc_after(600)),
        ChaosSchedule::new("eio", FaultPlan::none().with_eio_rate(9, 0.08)),
        ChaosSchedule::new("torn-checkpoint", FaultPlan::none().with_torn_checkpoint()),
        ChaosSchedule::new(
            "slow-capture-watchdog",
            FaultPlan::none().with_slow_capture(5, 300),
        )
        .with_watchdog(Duration::from_millis(50)),
        ChaosSchedule::new("trace-budget", FaultPlan::none())
            .with_budget(RunBudget::unlimited().with_max_new_traces(10)),
        ChaosSchedule::new("expired-deadline", FaultPlan::none())
            .with_budget(RunBudget::unlimited().with_time_limit(Duration::ZERO)),
        ChaosSchedule::new("cancelled", FaultPlan::none())
            .with_budget(RunBudget::unlimited().with_cancel(cancelled)),
        ChaosSchedule::new(
            "kitchen-sink",
            FaultPlan::none()
                .with_panic_rate(23, 0.1)
                .with_eio_rate(41, 0.05)
                .with_torn_checkpoint(),
        )
        .with_budget(RunBudget::unlimited().with_max_new_traces(24)),
        ChaosSchedule::new(
            "enospc-and-panics",
            FaultPlan::none()
                .with_enospc_after(900)
                .with_transient_panics([0, 9, 30]),
        ),
    ]
}

/// A small, fast protocol: 64 traces of 10 samples, four chunks, so
/// the trace caps (10 and 24) stop it partway.
fn small_protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig {
        traces_per_class: 4,
        ..ProtocolConfig::default()
    };
    p.sampling.samples = 10;
    p
}

fn config_in(dir: &Path, backend: Backend, faults: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        protocol: small_protocol(),
        workers: 2,
        backend,
        cache: CacheMode::ReadWrite,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        faults,
        ..CampaignConfig::default()
    }
}

/// One public entry point under soak.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// `acquire`: the batch path, which persists an `SCTR` store.
    Batch,
    /// `acquire_spectrum` with `streaming: true`: the bounded-memory
    /// fold, which only checkpoints.
    Streamed,
    /// `attack`: one trial of a small CPA budget, folded per guess.
    Attack,
}

/// What one leg's run produced, reduced to comparable bits.
struct Ran {
    /// The result's f64 bit patterns: traces, spectral coefficients, or
    /// per-guess scores.
    bits: Vec<u64>,
    /// Traces captured or folded into the result.
    analyzed: usize,
    /// Schedule indices an interruption left uncaptured (0 when the
    /// entry point does not expose them).
    remaining: usize,
    /// The leg's run-log row.
    report: RunReport,
}

const ATTACK_TRACES: usize = 64;

impl Leg {
    fn run(self, config: CampaignConfig) -> Ran {
        let streaming = matches!(self, Leg::Streamed);
        let mut campaign = Campaign::new(CampaignConfig {
            streaming,
            ..config
        });
        let (bits, analyzed, remaining) = match self {
            Leg::Batch => {
                let outcome = campaign.acquire_aged(Scheme::Opt, 0.0);
                let bits = outcome
                    .traces
                    .iter()
                    .flat_map(|(_, t)| t.iter().map(|v| v.to_bits()))
                    .collect();
                let remaining = outcome.partial.map_or(0, |i| i.remaining);
                (bits, outcome.traces.len(), remaining)
            }
            Leg::Streamed => {
                let outcome = campaign.acquire_spectrum_aged(Scheme::Opt, 0.0);
                let s = &outcome.spectrum;
                let bits = (0..s.num_sources())
                    .flat_map(|u| (0..s.samples()).map(move |t| s.coefficient(u, t).to_bits()))
                    .collect();
                let remaining = outcome.partial.map_or(0, |i| i.remaining);
                (bits, outcome.traces_analyzed, remaining)
            }
            Leg::Attack => {
                let plan = AttackPlan {
                    traces: ATTACK_TRACES,
                    trials: 1,
                    ..AttackPlan::default()
                };
                let outcome = campaign.attack_aged(Scheme::Opt, 0.0, &plan);
                let report = &outcome.reports[0];
                let bits = report.final_scores[0]
                    .scores
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                // One trial: the rank grid ends at the traces it folded.
                let analyzed = report.success_rate.last().map_or(0, |&(n, _)| n);
                (bits, analyzed, 0)
            }
        };
        let report = campaign.log().reports()[0].clone();
        Ran {
            bits,
            analyzed,
            remaining,
            report,
        }
    }

    fn scheduled(self) -> usize {
        match self {
            Leg::Batch | Leg::Streamed => {
                small_protocol().traces_per_class * sbox_leakage::acquisition::NUM_CLASSES
            }
            Leg::Attack => ATTACK_TRACES,
        }
    }
}

#[test]
fn every_fault_schedule_ends_clean_typed_or_resumable() {
    for backend in [Backend::Event, Backend::Bitsliced] {
        for leg in [Leg::Batch, Leg::Streamed, Leg::Attack] {
            // The clean reference every schedule must converge to.
            let ref_dir = std::env::temp_dir().join(format!(
                "sbox-leakage-chaos-ref-{backend}-{leg:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&ref_dir);
            let reference = leg.run(CampaignConfig {
                cache: CacheMode::Off,
                ..config_in(&ref_dir, backend, FaultPlan::none())
            });
            let _ = std::fs::remove_dir_all(&ref_dir);
            assert_eq!(reference.analyzed, leg.scheduled(), "{leg:?}: clean run");
            assert_eq!(reference.report.backend, Some(backend));

            for schedule in schedules() {
                soak(leg, backend, &schedule, &reference);
            }
        }
    }
}

fn soak(leg: Leg, backend: Backend, schedule: &ChaosSchedule, reference: &Ran) {
    let name = schedule.name;
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "sbox-leakage-chaos-{backend}-{leg:?}-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let what = format!("{backend} {leg:?}");

    // The faulted run. Nothing in the campaign may panic, no matter what
    // the schedule throws at it.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        leg.run(CampaignConfig {
            budget: schedule.budget.clone(),
            capture_timeout: schedule.capture_timeout,
            ..config_in(&dir, backend, schedule.faults.clone())
        })
    }))
    .unwrap_or_else(|_| panic!("{what} under {name:?}: campaign panicked"));
    let (report, warnings) = (&ran.report, &ran.report.warnings);
    if schedule.interrupts {
        assert!(
            report.partial.is_some() && ran.analyzed < reference.analyzed,
            "{what} under {name:?}: the budget must stop the run partway ({} of {} analyzed)",
            ran.analyzed,
            reference.analyzed
        );
    }

    // Terminal-state invariant: bit-identical, typed degradation, or a
    // resumable interruption — never a silently wrong result.
    if report.partial.is_some() {
        assert!(
            warnings.iter().any(|w| w.contains("interrupted")),
            "{what} under {name:?}: interruption must be reported: {warnings:?}"
        );
        assert!(
            ran.analyzed + ran.remaining + report.quarantined <= reference.analyzed,
            "{what} under {name:?}: partial accounting out of range"
        );
    } else if report.quarantined > 0 {
        assert!(
            warnings.iter().any(|w| w.contains("quarantined")),
            "{what} under {name:?}: degradation must be reported: {warnings:?}"
        );
        assert!(
            ran.analyzed < reference.analyzed,
            "{what} under {name:?}: quarantine must shrink the set, not corrupt it"
        );
    } else {
        assert!(
            ran.bits == reference.bits,
            "{what} under {name:?}: an uninterrupted run must be bit-identical"
        );
    }

    // Convergence invariant: lift the faults and the same directory —
    // whatever stores, checkpoints, or torn prefixes the chaos left
    // behind — must finish to the bit-identical reference.
    let recovered = leg.run(config_in(&dir, backend, FaultPlan::none()));
    assert!(
        recovered.bits == reference.bits,
        "{what} under {name:?}: recovery run must converge bit-identically"
    );
    assert!(
        recovered.report.partial.is_none(),
        "{what} under {name:?}: recovery run must complete"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
