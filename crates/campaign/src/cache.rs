//! Content-addressed caching of acquired trace sets.
//!
//! A campaign is identified by everything that determines its traces:
//! the implementation, the protocol seed and trace budget, the device
//! age, and a digest of the full power-model / sampling / aging
//! configuration. Two runs with the same [`CampaignKey`] are guaranteed
//! to produce bit-identical traces, so the second one can read the first
//! one's store file instead of simulating — which collapses the
//! fig6 → fig7 → fig8 → metrics pipeline from O(runs × acquisitions) to
//! O(distinct acquisitions).
//!
//! Hits are verified, not trusted: a store's header *is* a key, and it
//! must equal the key it is filed under (a digest collision or a
//! hand-edited file therefore falls back to a miss), and the checksummed
//! read catches truncation and corruption, also degrading to a miss.

use std::path::{Path, PathBuf};

use acquisition::ProtocolConfig;
use aging::AgingConditions;

use crate::digest::Digest;
use crate::store::{StoreKind, StoreReader};

/// Whether a campaign consults and/or populates the on-disk store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Read hits, write misses (the default).
    #[default]
    ReadWrite,
    /// Always acquire, but still persist the result (refreshes stale
    /// stores in place).
    WriteOnly,
    /// Never touch the disk (unit tests, determinism checks).
    Off,
}

/// The identity of one acquisition, sufficient to reproduce it bit for
/// bit. It is also the header of the acquisition's `SCTR` store and
/// `SCKP` checkpoint, which record exactly these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignKey {
    /// Protocol kind (leakage classes vs CPA).
    pub kind: StoreKind,
    /// Implementation label, e.g. `"ISW"`.
    pub implementation: String,
    /// Protocol seed.
    pub seed: u64,
    /// Total trace count.
    pub traces: u32,
    /// Samples per trace.
    pub samples: u32,
    /// Device age in months.
    pub age_months: f64,
    /// Classified: number of classes. CPA: the secret key nibble.
    pub class_or_key: u16,
    /// Digest of the power-model, sampling, and aging configuration.
    pub config_digest: u64,
}

impl CampaignKey {
    /// Collapse the key into one address (the store file's identity).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(u64::from(self.kind.to_u16()))
            .str(&self.implementation)
            .u64(self.seed)
            .u64(u64::from(self.traces))
            .u64(u64::from(self.samples))
            .f64(self.age_months)
            .u64(u64::from(self.class_or_key))
            .u64(self.config_digest);
        d.finish()
    }

    /// The store file name for this key (human-greppable prefix plus the
    /// content address).
    pub fn file_name(&self) -> String {
        let slug: String = self
            .implementation
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!(
            "{slug}-age{:03}-{:016x}.sctr",
            self.age_months as u32,
            self.digest()
        )
    }

    /// The header this key expects to find in a matching store: the key
    /// itself.
    pub fn expected_meta(&self) -> CampaignKey {
        self.clone()
    }
}

/// Digest every configuration field that influences trace values.
///
/// Includes the store-format version implicitly through the key's file
/// (the reader refuses other versions) and the simulator seed, since
/// process variation is part of the modelled die.
pub fn config_digest(protocol: &ProtocolConfig, conditions: &AgingConditions) -> u64 {
    let mut d = Digest::new();
    let sim = &protocol.sim;
    d.f64(sim.vdd_v)
        .f64(sim.temperature_c)
        .f64(sim.process_sigma)
        .u64(sim.seed)
        .f64(sim.absorbed_energy_fraction)
        .f64(sim.pulse_width_factor)
        .f64(sim.noise_mw)
        .f64(protocol.sampling.window_ps)
        .u64(protocol.sampling.samples as u64)
        .f64(conditions.vdd_v)
        .f64(conditions.temperature_c)
        .f64(conditions.clock_mhz)
        .f64(conditions.vth0_v)
        .f64(conditions.alpha);
    d.finish()
}

/// The on-disk cache: a directory of `SCTR` stores addressed by
/// [`CampaignKey::file_name`].
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
    mode: CacheMode,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The mode in force.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Whether lookups may return hits.
    pub fn reads_enabled(&self) -> bool {
        matches!(self.mode, CacheMode::ReadWrite)
    }

    /// Whether acquisitions should be persisted.
    pub fn writes_enabled(&self) -> bool {
        !matches!(self.mode, CacheMode::Off)
    }

    /// The store path a key maps to.
    pub fn path_for(&self, key: &CampaignKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// The `SCKP` checkpoint path a key maps to: the store path plus a
    /// `.ckpt` suffix, so an interrupted acquisition never shadows a
    /// finished store.
    pub fn checkpoint_path(&self, key: &CampaignKey) -> PathBuf {
        let mut name = key.file_name();
        name.push_str(".ckpt");
        self.dir.join(name)
    }

    /// Open the store for `key` if it exists and its header matches the
    /// key exactly. `Err(None)` is a plain miss: reads are off, or there
    /// is no store. `Err(Some(reason))` is a store that exists but cannot
    /// serve — unreadable, or written for another key — and the reason
    /// names its path. Either way the caller re-acquires and overwrites.
    pub fn lookup(&self, key: &CampaignKey) -> Result<StoreReader, Option<String>> {
        let path = self.path_for(key);
        if !self.reads_enabled() || !path.exists() {
            return Err(None);
        }
        match StoreReader::open(&path) {
            Ok(reader) if reader.meta() == key => Ok(reader),
            Ok(reader) => Err(Some(format!(
                "{} exists but its header does not match the key (stored {:?})",
                path.display(),
                reader.meta()
            ))),
            Err(e) => Err(Some(format!("{} unreadable ({e})", path.display()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreWriter;

    fn key() -> CampaignKey {
        CampaignKey {
            kind: StoreKind::Classified,
            implementation: "RSM-ROM".into(),
            seed: 0xD47E_2022,
            traces: 2,
            samples: 3,
            age_months: 0.0,
            class_or_key: 16,
            config_digest: 77,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sctr-cache-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn key_digest_separates_every_field() {
        let base = key();
        let mutations: Vec<CampaignKey> = vec![
            CampaignKey {
                seed: 1,
                ..base.clone()
            },
            CampaignKey {
                traces: 3,
                ..base.clone()
            },
            CampaignKey {
                samples: 4,
                ..base.clone()
            },
            CampaignKey {
                age_months: 12.0,
                ..base.clone()
            },
            CampaignKey {
                config_digest: 78,
                ..base.clone()
            },
            CampaignKey {
                implementation: "ISW".into(),
                ..base.clone()
            },
            CampaignKey {
                kind: StoreKind::Cpa,
                ..base.clone()
            },
            CampaignKey {
                class_or_key: 5,
                ..base.clone()
            },
        ];
        for m in mutations {
            assert_ne!(m.digest(), base.digest(), "{m:?}");
        }
        assert_eq!(key().digest(), base.digest());
    }

    #[test]
    fn file_names_are_filesystem_safe() {
        let name = key().file_name();
        assert!(name.starts_with("rsm_rom-age000-"));
        assert!(name.ends_with(".sctr"));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'));
    }

    #[test]
    fn lookup_misses_then_hits_then_rejects_mismatch() {
        let dir = tmp_dir("lookup");
        let cache = TraceCache::new(&dir, CacheMode::ReadWrite);
        let k = key();
        assert_eq!(cache.lookup(&k).err(), Some(None), "empty cache must miss");

        let mut w = StoreWriter::create(&cache.path_for(&k), k.clone()).expect("create");
        w.record(0, &[1.0, 2.0, 3.0]).expect("r");
        w.record(1, &[4.0, 5.0, 6.0]).expect("r");
        w.finish().expect("finish");
        assert!(cache.lookup(&k).is_ok(), "must hit after write");

        // A key whose fields changed but which we force onto the same path
        // must be rejected by header verification.
        let stale = CampaignKey {
            seed: 999,
            ..k.clone()
        };
        std::fs::rename(cache.path_for(&k), cache.path_for(&stale)).expect("rename");
        let reason = cache
            .lookup(&stale)
            .err()
            .flatten()
            .expect("a degraded miss");
        let path = cache.path_for(&stale).display().to_string();
        assert!(reason.contains(&path), "{reason} must name {path}");

        let off = TraceCache::new(&dir, CacheMode::Off);
        assert_eq!(off.lookup(&k).err(), Some(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_digest_tracks_power_model_fields() {
        let p = ProtocolConfig::default();
        let c = AgingConditions::default();
        let base = config_digest(&p, &c);
        let mut p2 = p.clone();
        p2.sim.noise_mw = 0.5;
        assert_ne!(config_digest(&p2, &c), base);
        let mut p3 = p.clone();
        p3.sampling.samples = 50;
        assert_ne!(config_digest(&p3, &c), base);
        let mut c2 = c.clone();
        c2.clock_mhz = 100.0;
        assert_ne!(config_digest(&p, &c2), base);
        assert_eq!(config_digest(&p, &c), base);
    }
}
