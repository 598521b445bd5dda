//! The four workloads: what each runs, at which size, under which
//! campaign configuration, and how its outputs are digested.

use std::path::Path;

use acquisition::{ProtocolConfig, NUM_CLASSES};
use aging::AgingConditions;
use campaign::{
    AttackPlan, Backend, CacheMode, CampaignConfig, Digest, DistinguisherReport, FaultPlan,
    RunBudget, SumMode,
};
use leakage_core::LeakageSpectrum;
use sbox_circuits::Scheme;
use sca_attacks::{Distinguisher, LeakageModel};

/// The paper reproduction's protocol seed; digests are pinned at it.
pub const DEFAULT_SEED: u64 = 0xD47E_2022;

/// Campaign worker threads. Fixed rather than taken from the host, so
/// the measured load does not change with the core count. One, not
/// one per core: on the 2-vCPU VM the workloads were sized on, a second
/// worker made the stream workload slower (2.4 s against 1.9 s a pass)
/// and left a run-to-run spread of 8.7% even on the fastest-pass
/// estimate, against 2.3% with one worker. Scale-out needs a host with
/// cores to spare and its own workload.
pub const WORKERS: usize = 1;

/// Traces between checkpoint syncs: the experiment binaries' default
/// (`SCA_CHECKPOINT` unset), so cold cells pay the checkpoint writes
/// and syncs users pay.
pub const CHECKPOINT_EVERY: usize = 64;

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 7 sweep, event backend, batch analysis, empty store.
    SpectraCold,
    /// The same sweep, bit-sliced backend, exact streaming fold, no store.
    SpectraStream,
    /// `SpectraCold`'s cells re-read from a store filled during set-up.
    SpectraWarm,
    /// The `attack_sweep` plan: CPA, DPA and MLPA over trials and ages.
    Attack,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SpectraCold,
        Workload::SpectraStream,
        Workload::SpectraWarm,
        Workload::Attack,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpectraCold => "spectra-cold",
            Workload::SpectraStream => "spectra-stream",
            Workload::SpectraWarm => "spectra-warm",
            Workload::Attack => "attack",
        }
    }

    /// The workload with this name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload at a seed and size: everything that determines its inputs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The protocol seed (masks, plaintexts and noise derive from it).
    pub seed: u64,
    /// Smoke-test size: 16 traces/class, two ages, one attack trial.
    pub quick: bool,
}

impl Plan {
    /// Traces per class of every spectrum cell.
    pub fn traces_per_class(&self) -> usize {
        match (self.quick, self.workload) {
            (true, _) => 16,
            // Bit-sliced capture is about 4x cheaper per trace, so the
            // streaming sweep takes twice the traces for a similar wall.
            (false, Workload::SpectraStream) => 256,
            (false, _) => 128,
        }
    }

    /// Device ages in months, one cell per scheme and age.
    pub fn ages(&self) -> &'static [f64] {
        match (self.workload, self.quick) {
            (Workload::Attack, false) => &[0.0, 24.0, 60.0],
            (Workload::Attack, true) => &[0.0, 24.0],
            (_, false) => &[0.0, 12.0, 24.0, 36.0, 48.0],
            (_, true) => &[0.0, 12.0],
        }
    }

    /// The acquisition protocol at this plan's seed and budget.
    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            traces_per_class: self.traces_per_class(),
            seed: self.seed,
            ..ProtocolConfig::default()
        }
    }

    /// Aging stress conditions: the paper's operating point.
    pub fn conditions(&self) -> AgingConditions {
        AgingConditions::default()
    }

    /// Summation mode of the streaming fold: exact, so streamed spectra
    /// are bit-identical to batch ones.
    pub fn stream_mode(&self) -> SumMode {
        SumMode::Exact
    }

    /// The attack plan of the `attack` workload (`attack_sweep`'s).
    pub fn attack_plan(&self) -> AttackPlan {
        AttackPlan {
            key: 0x5,
            traces: if self.quick { 64 } else { 256 },
            trials: if self.quick { 1 } else { 4 },
            distinguishers: vec![
                Distinguisher::Cpa(LeakageModel::OutputTransition),
                Distinguisher::Dpa { bit: 0 },
                Distinguisher::Mlpa,
            ],
            sr_threshold: 0.8,
            mode: SumMode::Exact,
        }
    }

    /// The cells of one pass: every scheme at every age, in run order.
    pub fn cells(&self) -> Vec<(Scheme, f64)> {
        Scheme::ALL
            .into_iter()
            .flat_map(|scheme| self.ages().iter().map(move |&months| (scheme, months)))
            .collect()
    }

    /// Traces one pass over the cells schedules (or reads, on the warm
    /// workload).
    pub fn scheduled_traces(&self) -> usize {
        let cells = self.cells().len();
        match self.workload {
            Workload::Attack => {
                let plan = self.attack_plan();
                cells * plan.trials * plan.traces
            }
            _ => cells * self.traces_per_class() * NUM_CLASSES,
        }
    }

    /// The campaign configuration, every field set here: nothing is
    /// read from the environment (`CampaignConfig::default()` would arm
    /// `SCA_FAULTS`). Stores and checkpoints go to `store_dir`; the run
    /// log path lies beside them but is never written (the benchmark
    /// does not call `Campaign::finish`).
    pub fn campaign_config(&self, store_dir: &Path) -> CampaignConfig {
        let stream = self.workload == Workload::SpectraStream;
        CampaignConfig {
            protocol: self.protocol(),
            conditions: self.conditions(),
            workers: WORKERS,
            cache: if stream {
                CacheMode::Off
            } else {
                CacheMode::ReadWrite
            },
            store_dir: store_dir.to_path_buf(),
            log_path: store_dir.join("campaign_runs.jsonl"),
            max_retries: 2,
            checkpoint_every: CHECKPOINT_EVERY,
            faults: FaultPlan::none(),
            streaming: stream,
            stream_mode: self.stream_mode(),
            budget: RunBudget::unlimited(),
            capture_timeout: None,
            backend: if stream {
                Backend::Bitsliced
            } else {
                Backend::Event
            },
        }
    }
}

/// The cell label used in digests and traces, e.g. `ISW@12`.
pub fn cell_label(scheme: Scheme, months: f64) -> String {
    format!("{}@{months}", scheme.label())
}

/// Fold one spectrum cell into a workload digest: every coefficient's
/// bits, the class counts and the simulated events.
pub fn digest_spectrum_cell(
    d: &mut Digest,
    cell: &str,
    spectrum: &LeakageSpectrum,
    class_counts: &[usize],
    events: usize,
) {
    d.str(cell);
    for u in 0..spectrum.num_sources() {
        for &a in spectrum.source_waveform(u) {
            d.f64(a);
        }
    }
    for &c in class_counts {
        d.u64(c as u64);
    }
    d.u64(events as u64);
}

/// Fold one attack cell into a workload digest: per distinguisher, the
/// MTD, the recovered key and every trial's per-guess final scores.
pub fn digest_attack_cell(d: &mut Digest, cell: &str, reports: &[DistinguisherReport]) {
    d.str(cell);
    for r in reports {
        d.str(&r.distinguisher.label());
        d.u64(r.mtd.map_or(u64::MAX, |m| m as u64));
        d.u64(u64::from(r.recovered));
        for trial in &r.final_scores {
            for &s in &trial.scores {
                d.f64(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn scheduled_traces_count_every_cell() {
        let cold = Plan {
            workload: Workload::SpectraCold,
            seed: 1,
            quick: false,
        };
        assert_eq!(cold.scheduled_traces(), 35 * 128 * 16);
        let attack = Plan {
            workload: Workload::Attack,
            ..cold
        };
        assert_eq!(attack.scheduled_traces(), 21 * 4 * 256);
    }
}
