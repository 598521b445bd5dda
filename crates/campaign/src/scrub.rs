//! The self-healing scrub pass over the on-disk trace store.
//!
//! [`Campaign::scrub`] walks every `SCTR` file under the store
//! directory and, for each one:
//!
//! 1. **verifies** it end to end (header, per-record, and whole-file
//!    checksums) — intact stores are left untouched;
//! 2. **salvages** a damaged store with [`salvage_store`], classifying
//!    each record slot as clean, corrupt (bit rot), or torn (truncated
//!    tail);
//! 3. **re-captures** the damaged records seed-stably: the store header
//!    carries the protocol seed, trace geometry, and config digest, so
//!    the scrub rebuilds the exact schedule, replays only the missing
//!    indices (clean records are resumed, not re-simulated), and writes
//!    a healed store that is **bit-identical** to one that was never
//!    damaged;
//! 4. **quarantines** what it cannot heal (unsalvageable header,
//!    unknown scheme, a header describing a different configuration
//!    than this campaign's, or a file name that does not match its
//!    content address) by renaming it aside — a damaged store never
//!    silently feeds an analysis.
//!
//! Healing is refused unless the header's config digest matches the
//! *current* campaign configuration: re-capturing under different
//! simulator or sampling settings would produce values that disagree
//! with the surviving records, which is exactly the silent corruption
//! the scrub exists to prevent.

use std::fmt;
use std::path::{Path, PathBuf};

use acquisition::{ProtocolConfig, NUM_CLASSES};
use gatesim::Simulator;
use leakage_core::ClassifiedTraces;
use sbox_circuits::Scheme;

use crate::cell::{key_schedule, Device};
use crate::executor::{fold_schedule_into, ExecPolicy, ResumeState, RunBudget};
use crate::report::StageTimer;
use crate::store::{salvage_store, StoreKind, StoreReader, StoreSalvage, StoreWriter};
use crate::{Campaign, Subject};

/// What the scrub did with one store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordFate {
    /// Every record verified; the file was not touched.
    Clean,
    /// Damaged records were re-captured seed-stably and the store was
    /// rewritten; the healed file verifies end to end.
    Healed {
        /// Records whose checksum failed (bit rot) and were re-captured.
        corrupt: usize,
        /// Records lost to a truncated tail and re-captured.
        torn: usize,
    },
    /// The file could not be healed and was renamed aside (suffix
    /// `.quarantined`).
    Quarantined {
        /// Why healing was refused.
        reason: String,
    },
}

/// One store file's scrub verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// The store file (its pre-scrub path).
    pub path: PathBuf,
    /// What happened to it.
    pub fate: RecordFate,
}

/// The result of one [`Campaign::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Per-file verdicts, in directory order.
    pub outcomes: Vec<ScrubOutcome>,
}

impl ScrubReport {
    /// Store files examined.
    pub fn scanned(&self) -> usize {
        self.outcomes.len()
    }

    /// Files that verified without intervention.
    pub fn clean(&self) -> usize {
        self.count(|f| matches!(f, RecordFate::Clean))
    }

    /// Files healed by seed-stable re-capture.
    pub fn healed(&self) -> usize {
        self.count(|f| matches!(f, RecordFate::Healed { .. }))
    }

    /// Files quarantined as unhealable.
    pub fn quarantined(&self) -> usize {
        self.count(|f| matches!(f, RecordFate::Quarantined { .. }))
    }

    /// Records re-captured across all healed files.
    pub fn records_healed(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| match o.fate {
                RecordFate::Healed { corrupt, torn } => corrupt + torn,
                _ => 0,
            })
            .sum()
    }

    /// Whether every scanned file ended up verified (clean or healed).
    pub fn all_verified(&self) -> bool {
        self.quarantined() == 0
    }

    fn count(&self, pred: impl Fn(&RecordFate) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(&o.fate)).count()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scrub: {} scanned, {} clean, {} healed ({} records), {} quarantined",
            self.scanned(),
            self.clean(),
            self.healed(),
            self.records_healed(),
            self.quarantined()
        )?;
        for o in &self.outcomes {
            match &o.fate {
                RecordFate::Clean => {}
                RecordFate::Healed { corrupt, torn } => writeln!(
                    f,
                    "  healed {} ({corrupt} corrupt, {torn} torn)",
                    o.path.display()
                )?,
                RecordFate::Quarantined { reason } => {
                    writeln!(f, "  quarantined {} ({reason})", o.path.display())?
                }
            }
        }
        Ok(())
    }
}

impl Campaign {
    /// Scrub every `SCTR` store under the campaign's store directory:
    /// verify it, salvage and seed-stably re-capture damaged records
    /// into a bit-identical healed store, or quarantine it as
    /// `*.sctr.quarantined` when its header cannot be trusted. Healed
    /// files are recorded in the run log
    /// (one row per heal, with the `healed` record count), so scrubs
    /// show up in the summary table and `campaign_runs.jsonl`.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let Ok(entries) = std::fs::read_dir(self.cache.dir()) else {
            return report; // no store directory: nothing to scrub
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "sctr"))
            .collect();
        paths.sort();
        for path in paths {
            let fate = self.scrub_file(&path);
            report.outcomes.push(ScrubOutcome { path, fate });
        }
        report
    }

    fn scrub_file(&mut self, path: &Path) -> RecordFate {
        // Fast path: a full checksummed read proves the file intact.
        if let Ok(reader) = StoreReader::open(path) {
            if reader.for_each_record(|_, _| {}).is_ok() {
                return RecordFate::Clean;
            }
        }
        let salvage = match salvage_store(path) {
            Ok(s) => s,
            Err(e) => return self.quarantine(path, format!("unsalvageable: {e}")),
        };
        match self.heal(path, &salvage) {
            Ok(fate) => fate,
            Err(reason) => self.quarantine(path, reason),
        }
    }

    /// Re-capture the damaged records of a salvaged store and rewrite it
    /// bit-identically. Returns `Err(reason)` when healing is unsafe.
    fn heal(&mut self, path: &Path, salvage: &StoreSalvage) -> Result<RecordFate, String> {
        let meta = &salvage.meta;
        let scheme = *Scheme::ALL
            .iter()
            .find(|s| s.label() == meta.name)
            .ok_or_else(|| format!("unknown implementation {:?}", meta.name))?;
        // The key this campaign gives the header's cell. Only the seed and
        // trace budget live in the header; everything else must match the
        // current configuration, which the sample count and the config
        // digest prove.
        let traces = meta.traces as usize;
        let subject = Subject::Scheme(scheme);
        let cpa_key = (meta.kind == StoreKind::Cpa).then_some(meta.class_or_key as u8);
        let key = self.key(&subject, meta.age_months, meta.seed, traces, cpa_key);
        if key.samples != meta.samples {
            return Err(format!(
                "sample count {} does not match the current configuration ({})",
                meta.samples, key.samples
            ));
        }
        if key.config_digest != meta.config_digest {
            return Err(
                "config digest mismatch: this store was captured under a different \
                 simulator/sampling/aging configuration"
                    .to_string(),
            );
        }
        // The file name is the content address; a header that does not
        // reproduce it belongs to a renamed or tampered file.
        if path.file_name().and_then(|n| n.to_str()) != Some(key.file_name().as_str()) {
            return Err("file name does not match its header's content address".to_string());
        }
        let capturable = match meta.kind {
            StoreKind::Classified => {
                usize::from(meta.class_or_key) == NUM_CLASSES && traces.is_multiple_of(NUM_CLASSES)
            }
            StoreKind::Cpa => meta.class_or_key < 16 && traces > 0,
        };
        if !capturable {
            return Err(format!(
                "{traces} traces with class/key field {} is no capture schedule",
                meta.class_or_key
            ));
        }

        let protocol = ProtocolConfig {
            seed: meta.seed,
            ..self.config.protocol.clone()
        };
        let mut timer = StageTimer::new();
        let mut device = Device::new(subject, meta.age_months);
        let (circuit, derating) = device.built(&mut timer, &protocol, &self.config.conditions);
        timer.stage("scrub");
        let sim = Simulator::with_derating(circuit.netlist(), &protocol.sim, derating);
        let (schedule, base_seed) = key_schedule(&key, &protocol, circuit);

        // Resume from the clean records: only the damaged indices are
        // re-simulated, with the same per-trace seeds as the original
        // acquisition, so the healed store is bit-identical.
        let completed: Vec<(usize, Vec<f64>)> = salvage
            .clean
            .iter()
            .map(|(i, _label, samples)| (*i as usize, samples.clone()))
            .collect();
        let policy = ExecPolicy {
            budget: RunBudget::unlimited(),
            ..self.exec_policy()
        };
        let make = || ClassifiedTraces::new(NUM_CLASSES, protocol.sampling.samples);
        let (set, exec) = fold_schedule_into(
            &sim,
            &schedule,
            &protocol.sampling,
            base_seed,
            &policy,
            ResumeState {
                completed,
                checkpoint: None,
                sync_every: 0,
            },
            &make,
            None,
        );
        if !exec.quarantined.is_empty() {
            return Err(format!(
                "re-capture quarantined {} record(s)",
                exec.quarantined.len()
            ));
        }

        // Swap the healed store in atomically with respect to failure:
        // the damaged original is kept aside until the replacement
        // verifies end to end.
        let backup = path.with_extension("sctr.bad");
        std::fs::rename(path, &backup)
            .map_err(|e| format!("cannot set damaged file aside: {e}"))?;
        let restore = |reason: String| {
            let _ = std::fs::rename(&backup, path);
            reason
        };
        let write = || -> Result<(), crate::store::StoreError> {
            let mut writer =
                StoreWriter::create_with(path, meta.clone(), self.config.faults.write_faults())?;
            for (label, samples) in set.iter() {
                writer.record(label as u16, samples)?;
            }
            writer.finish()
        };
        if let Err(e) = write() {
            return Err(restore(format!("rewriting the store failed: {e}")));
        }
        match StoreReader::open(path).and_then(|r| r.for_each_record(|_, _| {})) {
            Ok(_) => {}
            Err(e) => return Err(restore(format!("healed store failed verification: {e}"))),
        }
        let _ = std::fs::remove_file(&backup);

        let corrupt = salvage.corrupt.len();
        let torn = salvage.torn as usize;
        self.push_report(
            &key,
            timer,
            false,
            exec.merge_depth,
            Some(exec),
            corrupt + torn,
        );
        Ok(RecordFate::Healed { corrupt, torn })
    }

    fn quarantine(&self, path: &Path, reason: String) -> RecordFate {
        let target = path.with_extension("sctr.quarantined");
        if let Err(e) = std::fs::rename(path, &target) {
            return RecordFate::Quarantined {
                reason: format!("{reason}; additionally, renaming it aside failed: {e}"),
            };
        }
        RecordFate::Quarantined { reason }
    }
}
