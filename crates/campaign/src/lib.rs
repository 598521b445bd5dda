//! The trace-acquisition campaign engine: the single entry point for
//! acquiring, persisting, and reusing the paper's trace sets.
//!
//! A [`Campaign`] composes four pieces:
//!
//! * the **executor** ([`fold_schedule_into`]) — one claim → capture →
//!   fold pipeline on a `std::thread` worker pool over the two-stage
//!   protocol split in `acquisition` (schedule first, capture per
//!   trace), bit-identical for any worker count including 1. Streamed
//!   spectra and attacks fold into online accumulators; batch
//!   acquisitions fold into a [`ClassifiedTraces`] set, which keeps the
//!   traces in schedule order;
//! * the **trace store** ([`StoreWriter`]/[`StoreReader`]) — the
//!   versioned, checksummed `SCTR` binary format under
//!   `results/traces/`;
//! * the **content-addressed cache** ([`TraceCache`]) — acquisitions
//!   keyed by everything that determines their values, so re-running an
//!   experiment (or a later experiment sharing a cell) reads the store
//!   instead of simulating;
//! * **run observability** ([`RunLog`]) — per-stage timings, simulator
//!   event counts, cache hit/miss counters and worker utilization,
//!   printed as a table and appended to `results/campaign_runs.jsonl`.
//!
//! The engine is fault-tolerant end to end: per-trace capture panics are
//! isolated (`catch_unwind`), retried with the same re-derived seed
//! (bit-identical recovery), and quarantined into the run report when
//! they keep failing; completed traces stream to an `SCKP` checkpoint so
//! a killed run resumes instead of restarting; and store / cache /
//! run-log write failures degrade to warnings in the report — the
//! figures are the primary artifact, so persistence problems never abort
//! an acquisition. The [`FaultPlan`] harness (armed via `SCA_FAULTS`)
//! injects capture panics, store I/O errors, and torn writes
//! deterministically so these paths are tested rather than trusted.
//!
//! # Example
//!
//! ```no_run
//! use campaign::{Campaign, CampaignConfig};
//! use sbox_circuits::Scheme;
//!
//! let mut campaign = Campaign::new(CampaignConfig::default());
//! let isw = campaign.acquire_aged(Scheme::Isw, 0.0);
//! println!("TLP = {}", isw.spectrum.total_leakage_power());
//! println!("{}", campaign.log().summary_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod cache;
mod cell;
mod digest;
mod error;
mod executor;
mod fault;
mod iofault;
mod report;
mod scrub;
mod store;

pub use attack::{AttackOutcome, AttackPlan, DistinguisherReport, JointState};
pub use cache::{config_digest, CacheMode, CampaignKey, TraceCache};
pub use digest::{fnv1a, Digest};
pub use error::CampaignError;
pub use executor::{
    fold_schedule_into, resolve_workers, CancelToken, CaptureFailure, ExecPolicy, ExecutorReport,
    Interruption, ResumeState, RunBudget, StopCause, WorkerLoad,
};
pub use fault::{FaultPlan, InjectedFault};
pub use iofault::{FallibleWriter, WriteFaults};
pub use report::{RunLog, RunReport, Stage, StageTimer};
pub use scrub::{RecordFate, ScrubOutcome, ScrubReport};
pub use store::{
    resume_checkpoint, resume_checkpoint_with, salvage_store, write_atomic, write_atomic_with,
    CheckpointRecords, CheckpointWriter, StoreError, StoreKind, StoreReader, StoreSalvage,
    StoreWriter, CHECKPOINT_MAGIC, MAGIC, VERSION,
};

use std::path::PathBuf;
use std::time::Duration;

use acquisition::{ProtocolConfig, NUM_CLASSES};
pub use gatesim::Backend;
pub use leakage_core::online::{ChunkFold, ChunkObserver, FoldState, SpectrumAccumulator, SumMode};
pub use sca_attacks::{AttackAccumulator, CpaResult, Distinguisher, LeakageModel};

use aging::AgingConditions;
use cell::{Device, PERSIST};
use leakage_core::{ClassifiedTraces, LeakageSpectrum};
use sbox_circuits::{SboxCircuit, Scheme};

/// Everything a campaign needs to know: the acquisition protocol, the
/// device conditions, and the execution/persistence policy.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The acquisition protocol (trace budget, sampling, power model,
    /// seed).
    pub protocol: ProtocolConfig,
    /// Aging stress conditions (used for any age > 0).
    pub conditions: AgingConditions,
    /// Worker threads for the sharded executor; 0 means all cores.
    pub workers: usize,
    /// Cache policy.
    pub cache: CacheMode,
    /// Directory of `SCTR` store files.
    pub store_dir: PathBuf,
    /// JSONL sink for run reports.
    pub log_path: PathBuf,
    /// Retries per failing trace index after its first attempt (retries
    /// re-derive the same per-trace seed, so recovery is bit-identical).
    pub max_retries: u32,
    /// Flush completed traces to an `SCKP` checkpoint every this many
    /// captures, so a killed run resumes instead of restarting. `0`
    /// disables checkpointing; it is also off whenever the cache cannot
    /// write ([`CacheMode::Off`]).
    pub checkpoint_every: usize,
    /// Deterministic fault injection (inert by default; the default
    /// config arms it from `SCA_FAULTS` so CI can exercise the
    /// degradation paths across the whole suite).
    pub faults: FaultPlan,
    /// Run [`Campaign::acquire_spectrum_aged`] as a bounded-memory
    /// streaming fold (traces are folded into online accumulators
    /// instead of materialized). The fold sums exactly, so the streamed
    /// spectrum is bit-identical to the batch one at any worker count.
    /// The other verbs are unaffected.
    pub streaming: bool,
    /// Summation mode of the streaming fold. [`SumMode::Exact`] is the
    /// only one: its exact sums make streamed spectra bit-identical to
    /// the batch path at any worker count.
    pub stream_mode: SumMode,
    /// Run budget (wall-clock deadline, new-trace cap, cancellation),
    /// unlimited by default. An expiring budget stops the run at a chunk
    /// boundary, flushes the checkpoint, and surfaces a typed
    /// [`Interruption`] in the outcome — resuming reproduces the
    /// uninterrupted run bit for bit.
    pub budget: RunBudget,
    /// Per-capture watchdog limit: a capture attempt observed to exceed
    /// it is discarded and retried (then quarantined), instead of
    /// silently stretching the run. `None` disables the watchdog.
    pub capture_timeout: Option<Duration>,
    /// Capture engine. The default, [`Backend::Auto`], captures on the
    /// bit-sliced engine wherever its static support check accepts the
    /// netlist and on the event engine elsewhere; both give the same
    /// bits. [`Backend::Event`] pins the event engine, and
    /// [`Backend::Bitsliced`] degrades to it with a recorded warning on
    /// a netlist the check rejects.
    pub backend: Backend,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            protocol: ProtocolConfig::default(),
            conditions: AgingConditions::default(),
            workers: 0,
            cache: CacheMode::ReadWrite,
            store_dir: PathBuf::from("results/traces"),
            log_path: PathBuf::from("results/campaign_runs.jsonl"),
            max_retries: 2,
            checkpoint_every: 64,
            faults: FaultPlan::from_env().clone(),
            streaming: false,
            stream_mode: SumMode::Exact,
            budget: RunBudget::unlimited(),
            capture_timeout: None,
            backend: Backend::default(),
        }
    }
}

/// One acquired (or cache-served) classified trace set with its
/// Walsh–Hadamard projection.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The implementation measured.
    pub scheme: Scheme,
    /// Device age in months (0.0 = fresh).
    pub age_months: f64,
    /// The class-balanced trace set.
    pub traces: ClassifiedTraces,
    /// The leakage spectrum of the class means.
    pub spectrum: LeakageSpectrum,
    /// Whether this outcome was read from the store.
    pub cache_hit: bool,
    /// `Some` when the run budget expired before the schedule finished:
    /// the traces cover only the completed prefix, the checkpoint holds
    /// it durably, and re-running the same acquisition resumes to a
    /// bit-identical complete set.
    pub partial: Option<Interruption>,
}

/// One spectral analysis produced without materializing the trace set:
/// the Walsh–Hadamard spectrum plus the class statistics of the online
/// accumulator that was folded (streamed from the simulator or from a
/// cached `SCTR` store, one trace resident at a time).
#[derive(Debug, Clone)]
pub struct SpectrumOutcome {
    /// The implementation measured.
    pub scheme: Scheme,
    /// Device age in months (0.0 = fresh).
    pub age_months: f64,
    /// The leakage spectrum of the class means.
    pub spectrum: LeakageSpectrum,
    /// Traces folded per class (balanced unless captures were
    /// quarantined).
    pub class_counts: Vec<usize>,
    /// Total traces folded into the spectrum.
    pub traces_analyzed: usize,
    /// Whether the traces came from the store instead of the simulator.
    pub cache_hit: bool,
    /// Whether the analysis ran as a bounded-memory streaming fold.
    pub streamed: bool,
    /// `Some` when the run budget expired mid-schedule (see
    /// [`CampaignOutcome::partial`]).
    pub partial: Option<Interruption>,
}

/// Traces labelled with known plaintexts for a CPA experiment, as
/// [`Campaign::acquire_cpa`] returns them.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaAcquisition {
    /// The secret key nibble the traces were captured under.
    pub key: u8,
    /// Plaintext nibble of each trace.
    pub plaintexts: Vec<u8>,
    /// Power trace of each acquisition.
    pub traces: Vec<Vec<f64>>,
}

/// What a campaign verb measures.
#[derive(Debug, Clone, Copy)]
pub enum Subject<'a> {
    /// A native scheme, cached under its label and built only when a
    /// cell misses the store.
    Scheme(Scheme),
    /// An explicit circuit cached under an explicit label. Label an
    /// imported design by netlist content (e.g. `import-isw-<digest>`):
    /// re-importing the same file then hits the trace store, while any
    /// structural edit misses it. Outcomes report the circuit's bound
    /// scheme.
    Imported {
        /// The circuit to measure.
        circuit: &'a SboxCircuit,
        /// The cache label of its cells.
        label: &'a str,
    },
}

impl From<Scheme> for Subject<'_> {
    fn from(scheme: Scheme) -> Self {
        Subject::Scheme(scheme)
    }
}

impl<'a> Subject<'a> {
    fn label(&self) -> &'a str {
        match self {
            Subject::Scheme(scheme) => scheme.label(),
            Subject::Imported { label, .. } => label,
        }
    }

    fn scheme(&self) -> Scheme {
        match self {
            Subject::Scheme(scheme) => *scheme,
            Subject::Imported { circuit, .. } => circuit.scheme(),
        }
    }
}

/// The campaign engine. Owns the cache and the run log; each cell a
/// verb acquires is one observed, cacheable unit.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    cache: TraceCache,
    log: RunLog,
}

impl Campaign {
    /// A campaign with the given configuration.
    pub fn new(config: CampaignConfig) -> Self {
        let cache = TraceCache::new(config.store_dir.clone(), config.cache);
        Self {
            config,
            cache,
            log: RunLog::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The run log accumulated so far.
    pub fn log(&self) -> &RunLog {
        &self.log
    }

    /// Acquire the classified set of `subject` at a device age in months
    /// (0.0 = fresh).
    ///
    /// Age 0 uses identity derating; ages > 0 derate the circuit with
    /// `LeakageStudy::aged_device` (the device is aged by its own
    /// protocol workload). Either way the set is bit-identical, on
    /// either engine and at any worker count, to capturing
    /// `acquisition::classified_schedule` in order on the event engine
    /// with per-trace seeds: the sequential test oracle in the root
    /// package's `tests/support/mod.rs`.
    pub fn acquire_aged<'a>(
        &mut self,
        subject: impl Into<Subject<'a>>,
        months: f64,
    ) -> CampaignOutcome {
        let subject = subject.into();
        let p = &self.config.protocol;
        let (seed, traces, samples) =
            (p.seed, p.traces_per_class * NUM_CLASSES, p.sampling.samples);
        let key = self.key(&subject, months, seed, traces, None);
        let make = || ClassifiedTraces::new(NUM_CLASSES, samples);
        let mut device = Device::new(subject, months);
        self.cell(&key, &mut device, &make, None, PERSIST, |capture| {
            let traces = capture.state;
            CampaignOutcome {
                scheme: subject.scheme(),
                age_months: months,
                spectrum: LeakageSpectrum::from_class_means(&traces.class_means()),
                traces,
                cache_hit: capture.cache_hit,
                partial: capture.partial,
            }
        })
    }

    /// The leakage spectrum of `subject` at a device age, analyzed in
    /// bounded memory when [`CampaignConfig::streaming`] is set.
    ///
    /// In streaming mode each worker folds its shard of the schedule
    /// into local [`SpectrumAccumulator`] leaves that merge, in schedule
    /// order, into one running state, so no trace set is materialized,
    /// and the exact sums make the spectrum bit-identical to
    /// the batch [`Campaign::acquire_aged`] path at any worker count.
    /// Cache hits fold the stored records one at a time instead of
    /// materializing the set; misses simulate but keep no raw traces, so
    /// nothing is written to the `SCTR` store (the `SCKP` checkpoint,
    /// when enabled, remains the durable per-trace artifact and seeds a
    /// later batch run).
    ///
    /// With `streaming` off this simply delegates to the batch path and
    /// summarizes its outcome.
    pub fn acquire_spectrum_aged<'a>(
        &mut self,
        subject: impl Into<Subject<'a>>,
        months: f64,
    ) -> SpectrumOutcome {
        let subject = subject.into();
        if !self.config.streaming {
            let outcome = self.acquire_aged(subject, months);
            return SpectrumOutcome {
                scheme: outcome.scheme,
                age_months: months,
                spectrum: outcome.spectrum,
                class_counts: outcome.traces.class_counts(),
                traces_analyzed: outcome.traces.len(),
                cache_hit: outcome.cache_hit,
                streamed: false,
                partial: outcome.partial,
            };
        }

        let p = &self.config.protocol;
        let (seed, traces, samples) =
            (p.seed, p.traces_per_class * NUM_CLASSES, p.sampling.samples);
        let key = self.key(&subject, months, seed, traces, None);
        let make = || SpectrumAccumulator::new(NUM_CLASSES, samples, SumMode::Exact);
        let mut device = Device::new(subject, months);
        self.cell(&key, &mut device, &make, None, None, |capture| {
            let acc = capture.state;
            SpectrumOutcome {
                scheme: subject.scheme(),
                age_months: months,
                spectrum: acc.spectrum(),
                class_counts: acc.class_counts(),
                traces_analyzed: acc.len() as usize,
                cache_hit: capture.cache_hit,
                streamed: true,
                partial: capture.partial,
            }
        })
    }

    /// Acquire a CPA attack dataset of `subject` (known key nibble,
    /// random plaintexts) on a fresh device, cached like any other
    /// campaign cell.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 16` or `traces == 0`.
    pub fn acquire_cpa<'a>(
        &mut self,
        subject: impl Into<Subject<'a>>,
        key: u8,
        traces: usize,
    ) -> CpaAcquisition {
        assert!(key < 16);
        assert!(traces > 0);
        let subject = subject.into();
        let p = &self.config.protocol;
        let (seed, samples) = (p.seed, p.sampling.samples);
        let cell = self.key(&subject, 0.0, seed, traces, Some(key));
        let make = || ClassifiedTraces::new(NUM_CLASSES, samples);
        let mut device = Device::new(subject, 0.0);
        self.cell(&cell, &mut device, &make, None, PERSIST, |capture| {
            // The CPA set's labels are its plaintext nibbles.
            let (plaintexts, traces) = capture
                .state
                .into_iter()
                .map(|(plaintext, trace)| (plaintext as u8, trace))
                .unzip();
            CpaAcquisition {
                key,
                plaintexts,
                traces,
            }
        })
    }

    /// Print the summary table and append the run reports to the JSONL
    /// log. Returns the number of lines appended.
    pub fn finish(&self) -> std::io::Result<usize> {
        print!("{}", self.log.summary_table());
        self.log
            .append_jsonl_with(&self.config.log_path, self.config.faults.write_faults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("campaign-test-{}-{name}", std::process::id()));
        p
    }

    fn small_campaign(dir: &Path, cache: CacheMode) -> Campaign {
        Campaign::new(CampaignConfig {
            protocol: ProtocolConfig {
                traces_per_class: 2,
                ..ProtocolConfig::default()
            },
            workers: 2,
            cache,
            store_dir: dir.to_path_buf(),
            log_path: dir.join("runs.jsonl"),
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn second_acquisition_hits_the_cache_with_zero_sim_events() {
        let dir = tmp_dir("hit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        let first = campaign.acquire_aged(Scheme::Rsm, 0.0);
        let second = campaign.acquire_aged(Scheme::Rsm, 0.0);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.traces, second.traces);
        assert_eq!(
            first.spectrum.total_leakage_power(),
            second.spectrum.total_leakage_power()
        );
        let reports = campaign.log().reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].stats.events > 0);
        assert_eq!(reports[1].stats.events, 0, "hit must not simulate");
        // 32 traces: two leaves, whether folded from capture or store.
        assert_eq!(reports[0].merge_depth, 1);
        assert_eq!(reports[1].merge_depth, 1);
        assert_eq!(reports[1].peak_resident, 1, "one record read at a time");
        assert_eq!(campaign.log().cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aged_cells_cache_independently_of_fresh() {
        let dir = tmp_dir("aged");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        let sweep = [0.0, 24.0].map(|months| campaign.acquire_aged(Scheme::Opt, months));
        assert!(sweep.iter().all(|o| !o.cache_hit));
        assert!(
            sweep[1].spectrum.total_leakage_power() < sweep[0].spectrum.total_leakage_power(),
            "aging must reduce leakage"
        );
        // A fresh acquire now hits the age-0 cell written by the sweep.
        assert!(campaign.acquire_aged(Scheme::Opt, 0.0).cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cpa_round_trips_through_the_cache() {
        let dir = tmp_dir("cpa");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        let first = campaign.acquire_cpa(Scheme::Opt, 0xB, 24);
        let second = campaign.acquire_cpa(Scheme::Opt, 0xB, 24);
        assert_eq!(first, second);
        assert_eq!(first.key, 0xB);
        assert_eq!(first.traces.len(), 24);
        assert_eq!(first.plaintexts.len(), 24);
        assert_eq!(campaign.log().cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_spectrum_is_bit_identical_to_batch() {
        let dir = tmp_dir("stream-exact");
        let batch = small_campaign(&dir, CacheMode::Off).acquire_aged(Scheme::Glut, 0.0);
        for workers in [1, 2, 8] {
            let mut campaign = small_campaign(&dir, CacheMode::Off);
            campaign.config.streaming = true;
            campaign.config.workers = workers;
            // The residency bound below is the event engine's; a
            // bit-sliced worker holds its whole swept lane batch.
            campaign.config.backend = Backend::Event;
            let streamed = campaign.acquire_spectrum_aged(Scheme::Glut, 0.0);
            assert!(streamed.streamed);
            assert!(!streamed.cache_hit);
            assert_eq!(streamed.spectrum, batch.spectrum, "workers = {workers}");
            assert_eq!(streamed.traces_analyzed, batch.traces.len());
            assert!(streamed.class_counts.iter().all(|&c| c == 2));
            let report = campaign.log().reports().last().unwrap().clone();
            assert!(report.streamed);
            assert!(report.peak_resident >= 1);
            assert!(
                report.peak_resident <= workers,
                "uncheckpointed fold must keep at most one trace per worker"
            );
        }
    }

    #[test]
    fn streamed_cache_hit_folds_the_store_without_materializing() {
        let dir = tmp_dir("stream-hit");
        let _ = std::fs::remove_dir_all(&dir);
        let batch = small_campaign(&dir, CacheMode::ReadWrite).acquire_aged(Scheme::Ti, 0.0);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        campaign.config.streaming = true;
        let hit = campaign.acquire_spectrum_aged(Scheme::Ti, 0.0);
        assert!(hit.cache_hit);
        assert!(hit.streamed);
        assert_eq!(hit.spectrum, batch.spectrum);
        assert_eq!(hit.traces_analyzed, batch.traces.len());
        let report = campaign.log().reports().last().unwrap();
        assert_eq!(report.stats.events, 0, "hit must not simulate");
        assert_eq!(report.peak_resident, 1, "fold keeps one record resident");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A streamed hit folds the store through the same chunk grid as
    /// the miss, so both give the same spectrum bits, class counts and
    /// chain length at any worker count.
    #[test]
    fn streamed_hit_equals_its_miss_bitwise() {
        let dir = tmp_dir("stream-hit-miss");
        let _ = std::fs::remove_dir_all(&dir);
        let streamed = |cache, workers| {
            let mut campaign = small_campaign(&dir, cache);
            // 80 traces: five leaves, a chain of four merges.
            campaign.config.protocol.traces_per_class = 5;
            campaign.config.streaming = true;
            campaign.config.workers = workers;
            campaign
        };
        // The batch acquisition writes the store the streamed hits read.
        let mut writer = streamed(CacheMode::ReadWrite, 2);
        writer.config.streaming = false;
        writer.acquire_aged(Scheme::Isw, 0.0);
        for workers in [1, 3] {
            let mut miss = streamed(CacheMode::Off, workers);
            let want = miss.acquire_spectrum_aged(Scheme::Isw, 0.0);
            let mut hit = streamed(CacheMode::ReadWrite, workers);
            let got = hit.acquire_spectrum_aged(Scheme::Isw, 0.0);
            assert!(!want.cache_hit && got.cache_hit, "workers = {workers}");
            assert_eq!(got.class_counts, want.class_counts);
            let spectrum = &want.spectrum;
            for u in 0..spectrum.num_sources() {
                for t in 0..spectrum.samples() {
                    assert_eq!(
                        got.spectrum.coefficient(u, t).to_bits(),
                        spectrum.coefficient(u, t).to_bits(),
                        "workers = {workers}, u = {u}, t = {t}"
                    );
                }
            }
            let depth = |c: &Campaign| c.log().reports().last().unwrap().merge_depth;
            assert_eq!(depth(&miss), 4, "workers = {workers}");
            assert_eq!(depth(&hit), depth(&miss), "workers = {workers}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spectrum_without_streaming_delegates_to_batch() {
        let dir = tmp_dir("stream-off");
        let mut campaign = small_campaign(&dir, CacheMode::Off);
        let outcome = campaign.acquire_spectrum_aged(Scheme::Lut, 0.0);
        assert!(!outcome.streamed);
        let batch = small_campaign(&dir, CacheMode::Off).acquire_aged(Scheme::Lut, 0.0);
        assert_eq!(outcome.spectrum, batch.spectrum);
        assert_eq!(
            outcome.traces_analyzed,
            outcome.class_counts.iter().sum::<usize>()
        );
    }

    /// An uncached, fault-free campaign at `traces_per_class`.
    fn clean_campaign(traces_per_class: usize) -> Campaign {
        let dir = tmp_dir("clean");
        let mut campaign = small_campaign(&dir, CacheMode::Off);
        campaign.config.protocol.traces_per_class = traces_per_class;
        campaign.config.faults = FaultPlan::none();
        campaign
    }

    #[test]
    fn fresh_spectra_leak_and_aging_lowers_leakage_gently() {
        let mut campaign = clean_campaign(4);
        let [fresh, aged] = [0.0, 48.0].map(|months| campaign.acquire_aged(Scheme::Opt, months));
        assert_eq!(fresh.spectrum.samples(), 100);
        let (fresh, aged) = (
            fresh.spectrum.total_leakage_power(),
            aged.spectrum.total_leakage_power(),
        );
        assert!(fresh > 0.0);
        assert!(aged < fresh, "aged {aged} !< fresh {fresh}");
        assert!(aged > 0.5 * fresh, "degradation should be gentle");
    }

    #[test]
    fn masked_schemes_leak_less_than_unprotected() {
        // At the paper's trace budget (64/class) the masked estimate of a
        // small-variance scheme sits well below the unprotected circuits.
        let mut campaign = clean_campaign(64);
        let [unprot, isw, rom] = [Scheme::Opt, Scheme::Isw, Scheme::RsmRom].map(|scheme| {
            campaign
                .acquire_aged(scheme, 0.0)
                .spectrum
                .total_leakage_power()
        });
        assert!(isw < unprot, "ISW {isw} !< OPT {unprot}");
        assert!(rom < unprot, "RSM-ROM {rom} !< OPT {unprot}");
    }

    #[test]
    fn finish_appends_one_line_per_run() {
        let dir = tmp_dir("finish");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        campaign.acquire_aged(Scheme::Lut, 0.0);
        campaign.acquire_aged(Scheme::Lut, 0.0);
        assert_eq!(campaign.finish().expect("finish"), 2);
        let text = std::fs::read_to_string(dir.join("runs.jsonl")).expect("read");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"cache_hit\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
