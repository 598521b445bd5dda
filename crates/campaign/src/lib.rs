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
//!   acquisitions run the same pipeline with an empty fold and keep the
//!   raw traces ([`capture_schedule_with`]);
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
//! let isw = campaign.acquire(Scheme::Isw);
//! println!("TLP = {}", isw.spectrum.total_leakage_power());
//! println!("{}", campaign.log().summary_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod cache;
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
    capture_schedule_with, fold_schedule_into, resolve_workers, CancelToken, CaptureFailure,
    ChunkObserver, ExecPolicy, ExecutorReport, FoldState, Interruption, ResumeState, RunBudget,
    StopCause, WorkerLoad,
};
pub use fault::{FaultPlan, InjectedFault};
pub use iofault::{FallibleWriter, WriteFaults};
pub use report::{RunLog, RunReport, Stage, StageTimer};
pub use scrub::{RecordFate, ScrubOutcome, ScrubReport};
pub use store::{
    resume_checkpoint, resume_checkpoint_with, salvage_store, write_atomic, write_atomic_with,
    CheckpointRecords, CheckpointWriter, CpaRecords, StoreError, StoreKind, StoreMeta, StoreReader,
    StoreSalvage, StoreWriter, CHECKPOINT_MAGIC, MAGIC, VERSION,
};

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

pub use acquisition::Backend;
use acquisition::{
    classified_schedule, cpa_schedule, cpa_seed, CpaAcquisition, LeakageStudy, ProtocolConfig,
    Stimulus, NUM_CLASSES,
};
pub use leakage_core::online::{SpectrumAccumulator, SpectrumStream, SumMode};
pub use sca_attacks::{AttackAccumulator, CpaResult, Distinguisher, LeakageModel};

use aging::AgingConditions;
use executor::NoFold;
use gatesim::{CaptureStats, Derating, Simulator};
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
    /// Run `acquire_spectrum*` calls as a bounded-memory streaming fold
    /// (traces are folded into online accumulators instead of
    /// materialized). Batch `acquire*` calls are unaffected.
    pub streaming: bool,
    /// Summation mode of the streaming fold. The default,
    /// [`SumMode::Exact`], makes streamed spectra bit-identical to the
    /// batch path; [`SumMode::Welford`] trades that for a cheaper fold
    /// while staying bit-stable across worker counts.
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
    /// Capture engine ([`Backend::Event`] by default; the experiment
    /// binaries arm it from `SCA_BACKEND`). The bit-sliced backend
    /// produces bit-identical traces on every netlist it supports and
    /// degrades to the event engine — with a recorded warning under
    /// [`Backend::Bitsliced`], silently under [`Backend::Auto`] — on
    /// netlists its static support check rejects.
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
            backend: Backend::Event,
        }
    }
}

impl CampaignConfig {
    /// A campaign with a specific protocol and the default policy.
    pub fn with_protocol(protocol: ProtocolConfig) -> Self {
        Self {
            protocol,
            ..Self::default()
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

/// What [`Campaign::open_checkpoint`] hands back to an executor run:
/// already-completed `(index, samples)` records, the live checkpoint
/// writer (if checkpointing), and any degradation warnings.
type CheckpointState = (
    Vec<(usize, Vec<f64>)>,
    Option<CheckpointWriter>,
    Vec<String>,
);

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

/// The campaign engine. Owns the cache and the run log; each
/// `acquire*` call is one observed, cacheable unit.
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

    /// Acquire the classified set for a fresh device.
    pub fn acquire(&mut self, scheme: Scheme) -> CampaignOutcome {
        self.acquire_aged(scheme, 0.0)
    }

    /// Acquire the classified set at a device age in months.
    ///
    /// Age 0 uses identity derating and is bit-identical to the
    /// sequential `acquisition::acquire` path; ages > 0 match
    /// `LeakageStudy::run_aged` (the device is aged by its own protocol
    /// workload).
    pub fn acquire_aged(&mut self, scheme: Scheme, months: f64) -> CampaignOutcome {
        let circuit = SboxCircuit::build(scheme);
        self.acquire_circuit_aged(&circuit, scheme.label(), months)
    }

    /// Acquire the classified set for an explicit circuit under an
    /// explicit cache label.
    ///
    /// This is the substrate the scheme-keyed paths delegate to, and the
    /// entry point for *imported* designs: the caller labels the cell by
    /// netlist content (e.g. `import-isw-<digest>`), so re-importing the
    /// same file hits the trace store while any structural edit misses
    /// it. The outcome's `scheme` is the circuit's bound scheme.
    pub fn acquire_circuit_aged(
        &mut self,
        circuit: &SboxCircuit,
        implementation: &str,
        months: f64,
    ) -> CampaignOutcome {
        let scheme = circuit.scheme();
        let mut timer = StageTimer::new();
        let key = self.classified_key(implementation, months);

        if let Some(reader) = self.lookup(&key, &mut timer) {
            match reader.read_classified() {
                Ok(traces) => return self.classified_hit(&key, scheme, months, traces, timer),
                Err(e) => eprintln!(
                    "campaign cache: {} failed mid-read ({e}); re-acquiring",
                    self.cache.path_for(&key).display()
                ),
            }
        }

        timer.stage("age");
        let derating = self.derating(circuit, months);
        let sim = Simulator::with_derating(circuit.netlist(), &self.config.protocol.sim, &derating);

        timer.stage("acquire");
        let schedule = classified_schedule(circuit, &self.config.protocol);
        let mut raw = vec![Vec::new(); schedule.len()];
        let seed = self.config.protocol.seed;
        let (NoFold, mut exec) = self.execute(
            &key,
            &sim,
            &schedule,
            seed,
            &|| NoFold,
            None,
            Some(&mut raw),
        );

        // Quarantined indices — and, after a budget interruption, the
        // never-claimed tail — have empty slots; the surviving traces
        // still form a usable (if slightly unbalanced) classified set.
        let dropped: HashSet<usize> = exec.quarantined.iter().map(|f| f.index).collect();
        let mut traces = ClassifiedTraces::new(NUM_CLASSES, self.config.protocol.sampling.samples);
        for (index, (stimulus, trace)) in schedule.iter().zip(raw).enumerate() {
            if !dropped.contains(&index) && !trace.is_empty() {
                traces.push(usize::from(stimulus.label), trace);
            }
        }

        if complete(&exec) {
            let warning = self.persist(&key, schedule.iter().map(|s| s.label), &traces, &mut timer);
            exec.warnings.extend(warning);
        }

        timer.stage("analyze");
        let spectrum = LeakageSpectrum::from_class_means(&traces.class_means());
        self.push_exec_report(&key, &exec, timer, false, 0);
        CampaignOutcome {
            scheme,
            age_months: months,
            traces,
            spectrum,
            cache_hit: false,
            partial: exec.interrupted,
        }
    }

    /// Acquire one scheme over a sequence of device ages (the Fig. 7
    /// sweep), each cell independently cached.
    pub fn run_aged(&mut self, scheme: Scheme, ages_months: &[f64]) -> Vec<CampaignOutcome> {
        ages_months
            .iter()
            .map(|&months| self.acquire_aged(scheme, months))
            .collect()
    }

    /// The leakage spectrum for a fresh device, without retaining the
    /// trace set (see [`Campaign::acquire_spectrum_aged`]).
    pub fn acquire_spectrum(&mut self, scheme: Scheme) -> SpectrumOutcome {
        self.acquire_spectrum_aged(scheme, 0.0)
    }

    /// The leakage spectrum at a device age, analyzed in bounded memory
    /// when [`CampaignConfig::streaming`] is set.
    ///
    /// In streaming mode each worker folds its shard of the schedule
    /// into a local [`SpectrumAccumulator`] and the shards merge in a
    /// deterministic tree, so peak memory is O(classes × samples) — not
    /// O(traces) — and the result is identical for any worker count. In
    /// the default [`SumMode::Exact`] the spectrum is bit-identical to
    /// the batch [`Campaign::acquire_aged`] path. Cache hits fold the
    /// stored records one at a time instead of materializing the set;
    /// misses simulate but keep no raw traces, so nothing is written to
    /// the `SCTR` store (the `SCKP` checkpoint, when enabled, remains
    /// the durable per-trace artifact and seeds a later batch run).
    ///
    /// With `streaming` off this simply delegates to the batch path and
    /// summarizes its outcome.
    pub fn acquire_spectrum_aged(&mut self, scheme: Scheme, months: f64) -> SpectrumOutcome {
        let circuit = SboxCircuit::build(scheme);
        self.acquire_circuit_spectrum_aged(&circuit, scheme.label(), months)
    }

    /// The spectrum counterpart of [`Campaign::acquire_circuit_aged`]:
    /// an explicit circuit under an explicit cache label, streamed in
    /// bounded memory when the campaign is configured for it.
    pub fn acquire_circuit_spectrum_aged(
        &mut self,
        circuit: &SboxCircuit,
        implementation: &str,
        months: f64,
    ) -> SpectrumOutcome {
        let scheme = circuit.scheme();
        if !self.config.streaming {
            let outcome = self.acquire_circuit_aged(circuit, implementation, months);
            let mut class_counts = vec![0usize; NUM_CLASSES];
            for (class, _) in outcome.traces.iter() {
                class_counts[class] += 1;
            }
            return SpectrumOutcome {
                scheme,
                age_months: months,
                spectrum: outcome.spectrum,
                class_counts,
                traces_analyzed: outcome.traces.len(),
                cache_hit: outcome.cache_hit,
                streamed: false,
                partial: outcome.partial,
            };
        }

        let mut timer = StageTimer::new();
        let key = self.classified_key(implementation, months);

        if let Some(reader) = self.lookup(&key, &mut timer) {
            match Self::fold_store(reader, self.config.stream_mode) {
                Ok(acc) => return self.spectrum_hit(&key, scheme, months, acc, timer),
                Err(e) => eprintln!(
                    "campaign cache: {} failed mid-read ({e}); re-acquiring",
                    self.cache.path_for(&key).display()
                ),
            }
        }

        timer.stage("age");
        let derating = self.derating(circuit, months);
        let sim = Simulator::with_derating(circuit.netlist(), &self.config.protocol.sim, &derating);

        timer.stage("acquire");
        let schedule = classified_schedule(circuit, &self.config.protocol);
        let (samples, mode) = (
            self.config.protocol.sampling.samples,
            self.config.stream_mode,
        );
        let make = || SpectrumAccumulator::new(NUM_CLASSES, samples, mode);
        let seed = self.config.protocol.seed;
        let (acc, exec) = self.execute(&key, &sim, &schedule, seed, &make, None, None);

        timer.stage("analyze");
        let spectrum = acc.spectrum();
        let class_counts = acc.class_counts();
        let traces_analyzed = acc.len() as usize;
        self.push_exec_report(&key, &exec, timer, true, 0);
        SpectrumOutcome {
            scheme,
            age_months: months,
            spectrum,
            class_counts,
            traces_analyzed,
            cache_hit: false,
            streamed: true,
            partial: exec.interrupted,
        }
    }

    /// The Fig. 7 age sweep as streamed spectra: one
    /// [`Campaign::acquire_spectrum_aged`] per age, each cell
    /// independently cached.
    pub fn run_aged_spectra(
        &mut self,
        scheme: Scheme,
        ages_months: &[f64],
    ) -> Vec<SpectrumOutcome> {
        ages_months
            .iter()
            .map(|&months| self.acquire_spectrum_aged(scheme, months))
            .collect()
    }

    /// Acquire a CPA attack dataset (known key nibble, random
    /// plaintexts), cached like any other campaign cell.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 16` or `traces == 0`.
    pub fn acquire_cpa(&mut self, scheme: Scheme, key: u8, traces: usize) -> CpaAcquisition {
        assert!(key < 16);
        assert!(traces > 0);
        let mut timer = StageTimer::new();
        let cache_key = self.cpa_key(scheme, key, traces);

        if let Some(reader) = self.lookup(&cache_key, &mut timer) {
            match reader.read_cpa() {
                Ok((key, plaintexts, traces)) => {
                    let n = traces.len();
                    self.report_hit(&cache_key, n, timer);
                    return CpaAcquisition {
                        key,
                        plaintexts,
                        traces,
                    };
                }
                Err(e) => eprintln!(
                    "campaign cache: {} failed mid-read ({e}); re-acquiring",
                    self.cache.path_for(&cache_key).display()
                ),
            }
        }

        timer.stage("build");
        let circuit = SboxCircuit::build(scheme);
        let sim = Simulator::new(circuit.netlist(), &self.config.protocol.sim);

        timer.stage("acquire");
        let schedule = cpa_schedule(&circuit, &self.config.protocol, key, traces);
        let mut raw = vec![Vec::new(); schedule.len()];
        let seed = cpa_seed(&self.config.protocol);
        let (NoFold, mut exec) = self.execute(
            &cache_key,
            &sim,
            &schedule,
            seed,
            &|| NoFold,
            None,
            Some(&mut raw),
        );

        if complete(&exec) && self.cache.writes_enabled() {
            timer.stage("store");
            let records = schedule
                .iter()
                .map(|s| s.label)
                .zip(raw.iter().map(Vec::as_slice));
            if let Err(e) = self.write_store(&cache_key, records) {
                exec.warnings.push(format!(
                    "persisting CPA set failed ({e}); continuing uncached"
                ));
            } else {
                let _ = std::fs::remove_file(self.cache.checkpoint_path(&cache_key));
            }
        }

        self.push_exec_report(&cache_key, &exec, timer, false, 0);
        CpaAcquisition {
            key,
            plaintexts: schedule.iter().map(|s| s.label as u8).collect(),
            traces: raw,
        }
    }

    /// Print the summary table and append the run reports to the JSONL
    /// log. Returns the number of lines appended.
    pub fn finish(&self) -> std::io::Result<usize> {
        print!("{}", self.log.summary_table());
        self.log
            .append_jsonl_with(&self.config.log_path, self.config.faults.write_faults())
    }

    fn classified_key(&self, implementation: &str, months: f64) -> CampaignKey {
        CampaignKey {
            kind: StoreKind::Classified,
            implementation: implementation.to_string(),
            seed: self.config.protocol.seed,
            traces: (self.config.protocol.traces_per_class * NUM_CLASSES) as u32,
            samples: self.config.protocol.sampling.samples as u32,
            age_months: months,
            class_or_key: NUM_CLASSES as u16,
            config_digest: config_digest(&self.config.protocol, &self.config.conditions),
        }
    }

    fn cpa_key(&self, scheme: Scheme, key: u8, traces: usize) -> CampaignKey {
        CampaignKey {
            kind: StoreKind::Cpa,
            implementation: scheme.label().to_string(),
            seed: self.config.protocol.seed,
            traces: traces as u32,
            samples: self.config.protocol.sampling.samples as u32,
            age_months: 0.0,
            class_or_key: u16::from(key),
            config_digest: config_digest(&self.config.protocol, &self.config.conditions),
        }
    }

    fn derating(&self, circuit: &SboxCircuit, months: f64) -> Derating {
        Self::derating_with(
            &self.config.protocol,
            &self.config.conditions,
            circuit,
            months,
        )
    }

    /// The derating for `circuit` at `months` under an explicit protocol
    /// and conditions — shared by acquisitions and the scrub's seed-stable
    /// re-captures (which reconstruct the protocol from a store header).
    pub(crate) fn derating_with(
        protocol: &ProtocolConfig,
        conditions: &AgingConditions,
        circuit: &SboxCircuit,
        months: f64,
    ) -> Derating {
        if months == 0.0 {
            // Identical to derating_at_months(0.0), without profiling the
            // stress workload.
            Derating::fresh(circuit.netlist())
        } else {
            LeakageStudy::new(protocol.clone())
                .with_conditions(conditions.clone())
                .aged_device(circuit)
                .derating_at_months(months)
        }
    }

    fn lookup(&mut self, key: &CampaignKey, timer: &mut StageTimer) -> Option<StoreReader> {
        timer.stage("load");
        self.cache.lookup(key)
    }

    /// Run the executor for one campaign cell, folding every trace into
    /// `make`'s state (and, given `slots`, keeping each one at its
    /// schedule index). The run resumes from, and streams progress to,
    /// the cell's `SCKP` checkpoint when checkpointing is enabled.
    /// Checkpoint problems never fail the acquisition — they degrade to
    /// warnings in the report — and a run that stopped short of its
    /// schedule records why.
    #[allow(clippy::too_many_arguments)]
    fn execute<S: FoldState>(
        &mut self,
        key: &CampaignKey,
        sim: &Simulator<'_>,
        schedule: &[Stimulus],
        base_seed: u64,
        make: &(dyn Fn() -> S + Sync),
        observer: Option<ChunkObserver<'_, S>>,
        slots: Option<&mut [Vec<f64>]>,
    ) -> (S, ExecutorReport) {
        let policy = self.exec_policy();
        let (completed, mut writer, mut warnings) = self.open_checkpoint(key);
        let resume = ResumeState {
            completed,
            checkpoint: writer.as_mut(),
            sync_every: self.config.checkpoint_every,
        };
        let sampling = &self.config.protocol.sampling;
        let (state, mut exec) = executor::run(
            sim, schedule, sampling, base_seed, &policy, resume, make, observer, slots,
        );
        drop(writer);
        self.maybe_tear_checkpoint(key);
        warnings.append(&mut exec.warnings);
        warnings.extend(shortfall_warning(&exec, schedule.len()));
        exec.warnings = warnings;
        (state, exec)
    }

    fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy {
            workers: self.config.workers,
            max_retries: self.config.max_retries,
            faults: self.config.faults.clone(),
            budget: self.config.budget.clone(),
            capture_timeout: self.config.capture_timeout,
            backend: self.config.backend,
        }
    }

    /// Apply the `torn-checkpoint` fault: after a run finishes writing
    /// its checkpoint, tear the last few bytes off the file — the crash
    /// exactly mid-flush that the salvage scan must absorb on resume.
    fn maybe_tear_checkpoint(&self, key: &CampaignKey) {
        if !self.config.faults.torn_checkpoint() {
            return;
        }
        let path = self.cache.checkpoint_path(key);
        if let Ok(meta) = std::fs::metadata(&path) {
            let torn = meta.len().saturating_sub(5);
            let _ = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(torn));
        }
    }

    /// Open (or resume) the cell's `SCKP` checkpoint. Returns the
    /// already-completed records, the live writer, and any degradation
    /// warnings; checkpoint problems never fail an acquisition.
    fn open_checkpoint(&mut self, key: &CampaignKey) -> CheckpointState {
        let checkpointing = self.cache.writes_enabled() && self.config.checkpoint_every > 0;
        let path = self.cache.checkpoint_path(key);
        let mut warnings = Vec::new();
        let mut writer: Option<CheckpointWriter> = None;
        let mut completed = Vec::new();
        if checkpointing {
            if !self.cache.reads_enabled() {
                // Refresh mode (`SCA_CACHE=refresh`) must re-simulate, so
                // a stale checkpoint cannot be resumed from.
                let _ = std::fs::remove_file(&path);
            }
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match resume_checkpoint_with(
                &path,
                &key.expected_meta(),
                self.config.faults.write_faults(),
            ) {
                Ok((records, w)) => {
                    completed = records
                        .into_iter()
                        .map(|(index, _label, samples)| (index as usize, samples))
                        .collect();
                    writer = Some(w);
                }
                Err(e) => warnings.push(format!(
                    "checkpoint {} unavailable ({e}); running without checkpoints",
                    path.display()
                )),
            }
        }
        (completed, writer, warnings)
    }

    /// Fold every record of a cached store into an accumulator, one
    /// record resident at a time.
    fn fold_store(reader: StoreReader, mode: SumMode) -> Result<SpectrumAccumulator, StoreError> {
        let meta = reader.meta();
        let mut stream =
            SpectrumStream::new(usize::from(meta.class_or_key), meta.samples as usize, mode);
        reader.for_each_record(|label, samples| stream.fold(usize::from(label), samples))?;
        Ok(stream.finish())
    }

    /// Write the finished classified set to the store and retire its
    /// checkpoint. Returns a warning instead of an error: persistence
    /// failures degrade (the traces are already in memory).
    fn persist<I: Iterator<Item = u16>>(
        &mut self,
        key: &CampaignKey,
        labels: I,
        traces: &ClassifiedTraces,
        timer: &mut StageTimer,
    ) -> Option<String> {
        if !self.cache.writes_enabled() {
            return None;
        }
        timer.stage("store");
        // `ClassifiedTraces` preserves acquisition order, so zipping the
        // schedule's labels back over its records reconstructs them.
        let records = labels.zip(traces.iter().map(|(_, t)| t));
        match self.write_store(key, records) {
            Ok(()) => {
                let _ = std::fs::remove_file(self.cache.checkpoint_path(key));
                None
            }
            Err(e) => Some(format!(
                "persisting trace set failed ({e}); continuing uncached"
            )),
        }
    }

    fn write_store<'a, I>(&self, key: &CampaignKey, records: I) -> Result<(), StoreError>
    where
        I: Iterator<Item = (u16, &'a [f64])>,
    {
        if let Some(e) = self.config.faults.store_write_error() {
            return Err(e);
        }
        let path = self.cache.path_for(key);
        let mut writer = StoreWriter::create_with(
            &path,
            key.expected_meta(),
            self.config.faults.write_faults(),
        )?;
        for (label, samples) in records {
            writer.record(label, samples)?;
        }
        writer.finish()?;
        if let Some(bytes) = self.config.faults.torn_store_bytes() {
            // A torn write: the writer reported success but the file is
            // short. The next lookup must degrade to a miss.
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(bytes))
                .map_err(StoreError::Io)?;
        }
        Ok(())
    }

    fn classified_hit(
        &mut self,
        key: &CampaignKey,
        scheme: Scheme,
        months: f64,
        traces: ClassifiedTraces,
        mut timer: StageTimer,
    ) -> CampaignOutcome {
        timer.stage("analyze");
        let spectrum = LeakageSpectrum::from_class_means(&traces.class_means());
        self.report_hit(key, traces.len(), timer);
        CampaignOutcome {
            scheme,
            age_months: months,
            traces,
            spectrum,
            cache_hit: true,
            partial: None,
        }
    }

    fn report_hit(&mut self, key: &CampaignKey, traces: usize, timer: StageTimer) {
        self.push_hit_report(key, traces, timer, false, 0, 0);
    }

    fn spectrum_hit(
        &mut self,
        key: &CampaignKey,
        scheme: Scheme,
        months: f64,
        acc: SpectrumAccumulator,
        mut timer: StageTimer,
    ) -> SpectrumOutcome {
        timer.stage("analyze");
        // A cache-hit fold keeps one record resident at a time.
        self.push_hit_report(key, acc.len() as usize, timer, true, 1, acc.merge_depth());
        SpectrumOutcome {
            scheme,
            age_months: months,
            spectrum: acc.spectrum(),
            class_counts: acc.class_counts(),
            traces_analyzed: acc.len() as usize,
            cache_hit: true,
            streamed: true,
            partial: None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_hit_report(
        &mut self,
        key: &CampaignKey,
        traces: usize,
        timer: StageTimer,
        streamed: bool,
        peak_resident: usize,
        merge_depth: usize,
    ) {
        self.log.push(RunReport {
            implementation: key.implementation.clone(),
            age_months: key.age_months,
            traces,
            workers: 1,
            cache_hit: true,
            stats: CaptureStats::default(),
            worker_utilization: 1.0,
            stages: timer.finish(),
            retried: 0,
            quarantined: 0,
            resumed: 0,
            streamed,
            peak_resident,
            merge_depth,
            healed: 0,
            // A cache hit simulates nothing, so no capture engine ran.
            backend: None,
            lane_utilization: None,
            partial: None,
            warnings: Vec::new(),
        });
    }

    fn push_exec_report(
        &mut self,
        key: &CampaignKey,
        exec: &ExecutorReport,
        timer: StageTimer,
        streamed: bool,
        healed: usize,
    ) {
        self.log.push(RunReport {
            implementation: key.implementation.clone(),
            age_months: key.age_months,
            traces: key.traces as usize,
            workers: exec.workers,
            cache_hit: false,
            stats: exec.stats,
            worker_utilization: exec.utilization(),
            stages: timer.finish(),
            retried: exec.retried,
            quarantined: exec.quarantined.len(),
            resumed: exec.resumed,
            streamed,
            peak_resident: exec.peak_resident,
            merge_depth: exec.merge_depth,
            healed,
            backend: Some(exec.backend),
            lane_utilization: exec.lane_utilization,
            partial: exec.interrupted.map(|i| i.cause.to_string()),
            warnings: exec.warnings.clone(),
        });
    }
}

/// Whether a run captured its whole schedule: only then may its traces
/// be cached as a complete set.
fn complete(exec: &ExecutorReport) -> bool {
    exec.interrupted.is_none() && exec.quarantined.is_empty()
}

/// The typed warning for a run that stopped short of its schedule. A
/// budget interruption is a valid prefix, not a failure: the checkpoint
/// already holds every captured trace, so the next run resumes instead
/// of restarting. Quarantined indices leave a set that must never be
/// cached as complete; the checkpoint keeps the survivors so the next
/// run only re-simulates the missing indices.
fn shortfall_warning(exec: &ExecutorReport, scheduled: usize) -> Option<String> {
    let error = match exec.interrupted {
        Some(interruption) => CampaignError::Interrupted {
            cause: interruption.cause.to_string(),
            remaining: interruption.remaining,
            scheduled,
        },
        None if !exec.quarantined.is_empty() => CampaignError::Incomplete {
            quarantined: exec.quarantined.iter().map(|f| f.index).collect(),
            scheduled,
        },
        None => return None,
    };
    Some(error.to_string())
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
    fn matches_sequential_acquisition_exactly() {
        let dir = tmp_dir("seq");
        let mut campaign = small_campaign(&dir, CacheMode::Off);
        let outcome = campaign.acquire(Scheme::Opt);
        let circuit = SboxCircuit::build(Scheme::Opt);
        let reference = acquisition::acquire(&circuit, &campaign.config().protocol);
        assert_eq!(outcome.traces, reference);
        assert!(!outcome.cache_hit);
    }

    #[test]
    fn second_acquisition_hits_the_cache_with_zero_sim_events() {
        let dir = tmp_dir("hit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        let first = campaign.acquire(Scheme::Rsm);
        let second = campaign.acquire(Scheme::Rsm);
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
        assert_eq!(campaign.log().cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aged_cells_cache_independently_of_fresh() {
        let dir = tmp_dir("aged");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        let sweep = campaign.run_aged(Scheme::Opt, &[0.0, 24.0]);
        assert_eq!(sweep.len(), 2);
        assert!(sweep.iter().all(|o| !o.cache_hit));
        assert!(
            sweep[1].spectrum.total_leakage_power() < sweep[0].spectrum.total_leakage_power(),
            "aging must reduce leakage"
        );
        // A fresh acquire now hits the age-0 cell written by the sweep.
        assert!(campaign.acquire(Scheme::Opt).cache_hit);
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
        let circuit = SboxCircuit::build(Scheme::Opt);
        let reference = acquisition::acquire_cpa(&circuit, &campaign.config().protocol, 0xB, 24);
        assert_eq!(first, reference);
        assert_eq!(campaign.log().cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_spectrum_is_bit_identical_to_batch() {
        let dir = tmp_dir("stream-exact");
        let batch = small_campaign(&dir, CacheMode::Off).acquire(Scheme::Glut);
        for workers in [1, 2, 8] {
            let mut campaign = small_campaign(&dir, CacheMode::Off);
            campaign.config.streaming = true;
            campaign.config.workers = workers;
            let streamed = campaign.acquire_spectrum(Scheme::Glut);
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
        let batch = small_campaign(&dir, CacheMode::ReadWrite).acquire(Scheme::Ti);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        campaign.config.streaming = true;
        let hit = campaign.acquire_spectrum(Scheme::Ti);
        assert!(hit.cache_hit);
        assert!(hit.streamed);
        assert_eq!(hit.spectrum, batch.spectrum);
        assert_eq!(hit.traces_analyzed, batch.traces.len());
        let report = campaign.log().reports().last().unwrap();
        assert_eq!(report.stats.events, 0, "hit must not simulate");
        assert_eq!(report.peak_resident, 1, "fold keeps one record resident");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spectrum_without_streaming_delegates_to_batch() {
        let dir = tmp_dir("stream-off");
        let mut campaign = small_campaign(&dir, CacheMode::Off);
        let outcome = campaign.acquire_spectrum(Scheme::Lut);
        assert!(!outcome.streamed);
        let batch = small_campaign(&dir, CacheMode::Off).acquire(Scheme::Lut);
        assert_eq!(outcome.spectrum, batch.spectrum);
        assert_eq!(
            outcome.traces_analyzed,
            outcome.class_counts.iter().sum::<usize>()
        );
    }

    #[test]
    fn finish_appends_one_line_per_run() {
        let dir = tmp_dir("finish");
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = small_campaign(&dir, CacheMode::ReadWrite);
        campaign.acquire(Scheme::Lut);
        campaign.acquire(Scheme::Lut);
        assert_eq!(campaign.finish().expect("finish"), 2);
        let text = std::fs::read_to_string(dir.join("runs.jsonl")).expect("read");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"cache_hit\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
