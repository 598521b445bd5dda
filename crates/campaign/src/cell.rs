//! One campaign cell: the lookup → build → capture → report body that
//! every acquisition verb runs, and the only code that repairs a trace
//! set.
//!
//! A cell is one cacheable trace set: a classified `(subject, age)` set,
//! a CPA set, or one trial of an attack. [`Campaign::cell`] looks its
//! key up in the trace store. A hit folds the stored records on the
//! executor's chunk grid and builds nothing. A miss builds and derates
//! the subject's circuit once per [`Device`], derives the schedule from
//! the key, folds it through the executor with checkpointing, persists
//! a complete batch set, and names any store degradation that caused it
//! in its run report. Either way the cell hands on one fold state and
//! its chain length; a batch cell's fold state is its
//! `ClassifiedTraces` set.
//!
//! A miss on a damaged store heals it: when the store's verified header
//! is the cell's key, its verified records resume like checkpointed
//! ones, so only the damaged indices are simulated again, and a
//! complete batch cell rewrites the store byte-identically to one that
//! was never damaged. The scrub pass heals through this same path.

use std::borrow::Cow;

use acquisition::{
    classified_schedule, cpa_schedule, cpa_seed, LeakageStudy, ProtocolConfig, Stimulus,
    NUM_CLASSES,
};
use aging::AgingConditions;
use gatesim::{Derating, Simulator};
use leakage_core::online::{ChunkFold, ChunkObserver, FoldState};
use leakage_core::ClassifiedTraces;
use sbox_circuits::SboxCircuit;

use crate::executor::{self, ExecPolicy, ExecutorReport, Interruption, ResumeState};
use crate::store::{
    resume_checkpoint_with, salvage_store, CheckpointWriter, StoreError, StoreKind, StoreReader,
};
use crate::{
    config_digest, Campaign, CampaignError, CampaignKey, RunReport, StageTimer, StoreWriter,
    Subject,
};

/// What one cell hands its verb to analyze.
pub(crate) struct Capture<S> {
    /// Every surviving trace, folded on the executor's chunk grid.
    pub(crate) state: S,
    /// Merges in the fold chain: leaves − 1.
    pub(crate) merge_depth: usize,
    /// Whether the traces came from the store.
    pub(crate) cache_hit: bool,
    /// `Some` when the run budget expired before the schedule finished.
    pub(crate) partial: Option<Interruption>,
}

/// How a batch cell reads the trace set it persists out of its fold
/// state: [`Campaign::cell`]'s `persist` argument for cells that fold
/// into a [`ClassifiedTraces`] set.
pub(crate) const PERSIST: Option<fn(&ClassifiedTraces) -> &ClassifiedTraces> = Some(|set| set);

/// The simulated device behind a subject at one age. It is built and
/// derated on the first cache miss only, then shared by every later
/// miss of the same verb call (all trials of an attack).
pub(crate) struct Device<'a> {
    subject: Subject<'a>,
    months: f64,
    built: Option<(Cow<'a, SboxCircuit>, Derating)>,
}

impl<'a> Device<'a> {
    pub(crate) fn new(subject: Subject<'a>, months: f64) -> Self {
        Self {
            subject,
            months,
            built: None,
        }
    }

    /// The circuit and its derating, built on first use under the
    /// `build` and `age` stages. Aging profiles the device by its own
    /// `protocol` workload ([`LeakageStudy::aged_device`]).
    pub(crate) fn built(
        &mut self,
        timer: &mut StageTimer,
        protocol: &ProtocolConfig,
        conditions: &AgingConditions,
    ) -> (&SboxCircuit, &Derating) {
        let (subject, months) = (self.subject, self.months);
        let (circuit, derating) = self.built.get_or_insert_with(|| {
            timer.stage("build");
            let circuit = match subject {
                Subject::Scheme(scheme) => Cow::Owned(SboxCircuit::build(scheme)),
                Subject::Imported { circuit, .. } => Cow::Borrowed(circuit),
            };
            timer.stage("age");
            let derating = if months == 0.0 {
                // Identical to derating_at_months(0.0), without profiling
                // the stress workload.
                Derating::fresh(circuit.netlist())
            } else {
                LeakageStudy::new(protocol.clone())
                    .with_conditions(conditions.clone())
                    .aged_device(&circuit)
                    .derating_at_months(months)
            };
            (circuit, derating)
        });
        (circuit, derating)
    }
}

/// The stimulus schedule and per-trace base seed of the traces `key`
/// names: `protocol` with the key's seed and trace budget.
fn key_schedule(
    key: &CampaignKey,
    protocol: &ProtocolConfig,
    circuit: &SboxCircuit,
) -> (Vec<Stimulus>, u64) {
    let mut protocol = ProtocolConfig {
        seed: key.seed,
        ..protocol.clone()
    };
    let traces = key.traces as usize;
    match key.kind {
        StoreKind::Classified => {
            protocol.traces_per_class = traces / usize::from(key.class_or_key);
            (classified_schedule(circuit, &protocol), protocol.seed)
        }
        StoreKind::Cpa => (
            cpa_schedule(circuit, &protocol, key.class_or_key as u8, traces),
            cpa_seed(&protocol),
        ),
    }
}

impl Campaign {
    /// The cache key of one cell of `subject` at `months`: `traces`
    /// traces drawn from `seed`, of the CPA set under key nibble
    /// `cpa_key` or, when that is `None`, of the classified set.
    pub(crate) fn key(
        &self,
        subject: &Subject<'_>,
        months: f64,
        seed: u64,
        traces: usize,
        cpa_key: Option<u8>,
    ) -> CampaignKey {
        let (kind, class_or_key) = match cpa_key {
            Some(key) => (StoreKind::Cpa, u16::from(key)),
            None => (StoreKind::Classified, NUM_CLASSES as u16),
        };
        CampaignKey {
            kind,
            implementation: subject.label().to_string(),
            seed,
            traces: traces as u32,
            samples: self.config.protocol.sampling.samples as u32,
            age_months: months,
            class_or_key,
            config_digest: config_digest(&self.config.protocol, &self.config.conditions),
        }
    }

    /// Run one cell and hand its traces to `analyze`, timed as the
    /// `analyze` stage, before the cell's run report is logged.
    ///
    /// Every trace folds into `make`'s state on the executor's chunk grid
    /// (`observer`, if any, sees each prefix in order). A batch cell
    /// passes `persist` ([`PERSIST`]), which reads its trace set out of
    /// the fold state: a complete miss writes that set to the store, and
    /// the report marks the cell as not streamed.
    /// A miss resumes from, and streams progress to, the cell's `SCKP`
    /// checkpoint when checkpointing is enabled. Checkpoint and store
    /// problems never fail the acquisition — they degrade to warnings in
    /// the report — and a run that stopped short of its schedule records
    /// why.
    pub(crate) fn cell<S: FoldState + Clone, R>(
        &mut self,
        key: &CampaignKey,
        device: &mut Device<'_>,
        make: &(dyn Fn() -> S + Sync),
        mut observer: Option<ChunkObserver<'_, S>>,
        persist: Option<fn(&S) -> &ClassifiedTraces>,
        analyze: impl FnOnce(Capture<S>) -> R,
    ) -> R {
        let mut timer = StageTimer::new();
        timer.stage("load");
        // A reborrow, so the observer can go on to watch a miss.
        let observe = observer.as_mut().map(|o| &mut **o as ChunkObserver<'_, S>);
        let hit = self.cache.lookup(key).and_then(|reader| {
            read_hit(reader, make(), observe).map_err(|e| {
                let path = self.cache.path_for(key);
                Some(format!("{} failed mid-read ({e})", path.display()))
            })
        });
        let (capture, exec, healed) = match hit {
            Ok(capture) => (capture, None, 0),
            Err(degraded) => {
                let mut warnings = Vec::new();
                // A store that exists but cannot serve is salvaged, but
                // only if its verified header is this cell's key.
                let salvaged = degraded.and_then(|reason| {
                    eprintln!("campaign cache: {reason}; re-acquiring");
                    warnings.push(format!("{reason}; re-acquiring"));
                    salvage_store(&self.cache.path_for(key), Some(key)).ok()
                });
                let protocol = &self.config.protocol;
                let (circuit, derating) =
                    device.built(&mut timer, protocol, &self.config.conditions);
                timer.stage("acquire");
                let sim = Simulator::with_derating(circuit.netlist(), &protocol.sim, derating);
                let (schedule, seed) = key_schedule(key, protocol, circuit);
                let (mut completed, mut writer) = self.open_checkpoint(key, &mut warnings);
                // The salvaged records resume like checkpointed ones: only
                // the damaged indices are simulated again.
                let damaged = salvaged.map(|s| {
                    let clean = s.clean.into_iter().map(|(i, _, trace)| (i as usize, trace));
                    completed.extend(clean);
                    s.corrupt.len() + s.torn as usize
                });
                let resume = ResumeState {
                    completed,
                    checkpoint: writer.as_mut(),
                    sync_every: self.config.checkpoint_every,
                };
                let (state, mut exec) = executor::fold_schedule_into(
                    &sim,
                    &schedule,
                    &protocol.sampling,
                    seed,
                    &self.exec_policy(),
                    resume,
                    make,
                    observer,
                );
                drop(writer);
                self.maybe_tear_checkpoint(key);
                warnings.append(&mut exec.warnings);
                warnings.extend(shortfall_warning(&exec, schedule.len()));
                // Only a complete set may be cached; the survivors of a
                // short run still form a usable (if incomplete) set.
                let mut healed = 0;
                if let Some(set) = persist.map(|read| read(&state)) {
                    if exec.interrupted.is_none() && exec.quarantined.is_empty() {
                        match self.persist(key, set, &mut timer) {
                            Some(warning) => warnings.push(warning),
                            None => healed = damaged.unwrap_or(0),
                        }
                    }
                }
                exec.warnings = warnings;
                let capture = Capture {
                    state,
                    merge_depth: exec.merge_depth,
                    cache_hit: false,
                    partial: exec.interrupted,
                };
                (capture, Some(exec), healed)
            }
        };

        timer.stage("analyze");
        let merge_depth = capture.merge_depth;
        let result = analyze(capture);
        self.push_report(key, timer, persist.is_none(), merge_depth, exec, healed);
        result
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

    /// Open (or resume) the cell's `SCKP` checkpoint when checkpointing
    /// is on: the already-completed `(index, samples)` records and the
    /// live writer. A checkpoint problem becomes a warning instead.
    fn open_checkpoint(
        &self,
        key: &CampaignKey,
        warnings: &mut Vec<String>,
    ) -> (Vec<(usize, Vec<f64>)>, Option<CheckpointWriter>) {
        if !self.cache.writes_enabled() || self.config.checkpoint_every == 0 {
            return (Vec::new(), None);
        }
        let path = self.cache.checkpoint_path(key);
        if !self.cache.reads_enabled() {
            // Refresh mode (`SCA_CACHE=refresh`) must re-simulate, so a
            // stale checkpoint cannot be resumed from.
            let _ = std::fs::remove_file(&path);
        }
        let faults = self.config.faults.write_faults();
        match resume_checkpoint_with(&path, key, faults) {
            Ok((records, writer)) => {
                let completed = records
                    .into_iter()
                    .map(|(index, _label, samples)| (index as usize, samples))
                    .collect();
                (completed, Some(writer))
            }
            Err(e) => {
                warnings.push(format!(
                    "checkpoint {} unavailable ({e}); running without checkpoints",
                    path.display()
                ));
                (Vec::new(), None)
            }
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

    /// Write a complete batch set to the store and retire its checkpoint.
    /// Returns a warning instead of an error: persistence failures
    /// degrade (the traces are already in memory).
    fn persist(
        &self,
        key: &CampaignKey,
        set: &ClassifiedTraces,
        timer: &mut StageTimer,
    ) -> Option<String> {
        if !self.cache.writes_enabled() {
            return None;
        }
        timer.stage("store");
        match self.write_store(key, set) {
            Ok(()) => {
                let _ = std::fs::remove_file(self.cache.checkpoint_path(key));
                None
            }
            Err(e) => Some(format!(
                "persisting trace set failed ({e}); continuing uncached"
            )),
        }
    }

    fn write_store(&self, key: &CampaignKey, set: &ClassifiedTraces) -> Result<(), StoreError> {
        if let Some(e) = self.config.faults.store_write_error() {
            return Err(e);
        }
        let path = self.cache.path_for(key);
        let faults = self.config.faults.write_faults();
        let mut writer = StoreWriter::create_with(&path, key.clone(), faults)?;
        for (label, samples) in set.iter() {
            writer.record(label as u16, samples)?;
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

    /// Log one cell's run report. `exec` is `None` for a cache hit, which
    /// simulated nothing: one worker, no capture engine, and one stored
    /// record outside the fold state at a time.
    fn push_report(
        &mut self,
        key: &CampaignKey,
        timer: StageTimer,
        streamed: bool,
        merge_depth: usize,
        exec: Option<ExecutorReport>,
        healed: usize,
    ) {
        let hit = RunReport {
            implementation: key.implementation.clone(),
            age_months: key.age_months,
            traces: key.traces as usize,
            workers: 1,
            cache_hit: true,
            worker_utilization: 1.0,
            stages: timer.finish(),
            streamed,
            peak_resident: 1,
            merge_depth,
            healed,
            ..RunReport::default()
        };
        self.log.push(match exec {
            None => hit,
            Some(exec) => RunReport {
                workers: exec.workers,
                cache_hit: false,
                stats: exec.stats,
                worker_utilization: exec.utilization(),
                retried: exec.retried,
                quarantined: exec.quarantined.len(),
                resumed: exec.resumed,
                peak_resident: exec.peak_resident,
                backend: Some(exec.backend),
                lane_utilization: exec.lane_utilization,
                partial: exec.interrupted.map(|i| i.cause.to_string()),
                warnings: exec.warnings,
                ..hit
            },
        });
    }
}

/// Fold every record of a store hit on the executor's chunk grid, so a
/// hit reproduces its miss's state, observed prefixes and chain length
/// bit for bit.
fn read_hit<S: FoldState + Clone>(
    reader: StoreReader,
    empty: S,
    observer: Option<ChunkObserver<'_, S>>,
) -> Result<Capture<S>, StoreError> {
    let mut fold = ChunkFold::observed(empty, observer);
    reader.for_each_record(|label, samples| fold.fold(label, samples))?;
    let merge_depth = fold.leaves().saturating_sub(1) as usize;
    Ok(Capture {
        state: fold.finish(),
        merge_depth,
        cache_hit: true,
        partial: None,
    })
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
