//! The self-healing scrub pass over the on-disk trace store.
//!
//! [`Campaign::scrub`] walks every `SCTR` file under the store
//! directory and, for each one:
//!
//! 1. **verifies** it end to end (header, per-record, and whole-file
//!    checksums) — intact stores are left untouched;
//! 2. **salvages** a damaged store with [`salvage_store`], classifying
//!    each record slot as clean, corrupt (bit rot or an out-of-range
//!    label), or torn (truncated tail);
//! 3. **heals** it by running the campaign cell of the key its header
//!    names: the cell's miss resumes from the clean records, re-captures
//!    only the damaged indices with their original per-trace seeds, and
//!    rewrites a store that is **bit-identical** to one that was never
//!    damaged. The scrub then verifies the rewritten file end to end;
//! 4. **quarantines** what it cannot heal (unsalvageable header,
//!    unknown scheme, a header describing a different configuration
//!    than this campaign's, a file name that does not match its content
//!    address, or a rewrite that does not verify) by renaming it aside —
//!    a damaged store never silently feeds an analysis.
//!
//! Healing is refused unless the header's config digest matches the
//! *current* campaign configuration: re-capturing under different
//! simulator or sampling settings would produce values that disagree
//! with the surviving records, which is exactly the silent corruption
//! the scrub exists to prevent.

use std::fmt;
use std::path::{Path, PathBuf};

use acquisition::NUM_CLASSES;
use leakage_core::ClassifiedTraces;
use sbox_circuits::Scheme;

use crate::cell::{Device, PERSIST};
use crate::store::{salvage_store, StoreError, StoreKind, StoreReader};
use crate::{CacheMode, Campaign, CampaignKey, RunBudget, Subject, TraceCache};

/// What the scrub did with one store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordFate {
    /// Every record verified; the file was not touched.
    Clean,
    /// Damaged records were re-captured seed-stably and the store was
    /// rewritten; the healed file verifies end to end.
    Healed {
        /// Records whose checksum failed (bit rot), or whose label lies
        /// outside the store's classes, and were re-captured.
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
    /// verify it, heal a damaged one through its campaign cell into a
    /// bit-identical store, or quarantine it as `*.sctr.quarantined`
    /// when it cannot be healed. Each heal is the cell's run, so it is
    /// recorded in the run log (one row per heal, with the `healed`
    /// record count) and shows up in the summary table and
    /// `campaign_runs.jsonl`.
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
        if verify(path).is_ok() {
            return RecordFate::Clean;
        }
        let salvage = match salvage_store(path, None) {
            Ok(s) => s,
            Err(e) => return self.quarantine(path, format!("unsalvageable: {e}")),
        };
        if let Err(reason) = self.heal(path, &salvage.meta) {
            return self.quarantine(path, reason);
        }
        match verify(path) {
            Ok(()) => RecordFate::Healed {
                corrupt: salvage.corrupt.len(),
                torn: salvage.torn as usize,
            },
            Err(e) => self.quarantine(path, format!("healing left it unverified ({e})")),
        }
    }

    /// Heal the store at `path`, whose verified header is `meta`, by
    /// running its cell: the cell's miss resumes from the store's clean
    /// records and rewrites it. Returns `Err(reason)` when the header
    /// names no cell this campaign can capture again.
    fn heal(&mut self, path: &Path, meta: &CampaignKey) -> Result<(), String> {
        let scheme = *Scheme::ALL
            .iter()
            .find(|s| s.label() == meta.implementation)
            .ok_or_else(|| format!("unknown implementation {:?}", meta.implementation))?;
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

        // A heal runs to completion whatever the run budget, and reads
        // and rewrites the store whatever the cache mode. Its device is
        // aged under the header's seed, as the store's own capture was.
        let budget = std::mem::replace(&mut self.config.budget, RunBudget::unlimited());
        let healing = TraceCache::new(self.cache.dir(), CacheMode::ReadWrite);
        let cache = std::mem::replace(&mut self.cache, healing);
        let seed = std::mem::replace(&mut self.config.protocol.seed, meta.seed);
        let make = || ClassifiedTraces::new(NUM_CLASSES, key.samples as usize);
        let mut device = Device::new(subject, key.age_months);
        self.cell(&key, &mut device, &make, None, PERSIST, |_| ());
        (self.config.budget, self.cache) = (budget, cache);
        self.config.protocol.seed = seed;
        Ok(())
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

/// Read the store at `path` end to end, verifying every checksum.
fn verify(path: &Path) -> Result<(), StoreError> {
    StoreReader::open(path)?.for_each_record(|_, _| {})?;
    Ok(())
}
