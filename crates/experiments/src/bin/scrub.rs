//! `scrub` — verify and self-heal the on-disk trace store.
//!
//! Walks every `SCTR` file under `results/traces/` (the shared campaign
//! store), verifies header, per-record, and whole-file checksums, and
//! repairs what it can: damaged records are re-captured seed-stably from
//! the header's protocol seed so a healed store is bit-identical to one
//! that was never damaged. Files it cannot heal safely (foreign
//! configuration, tampered name, unsalvageable header) are renamed
//! aside with a `.quarantined` suffix.
//!
//! Exit status: `0` when every store verified (clean or healed), `1`
//! when anything had to be quarantined, `2` on a malformed `SCA_*`
//! knob.
//!
//! `scrub --selftest` runs the heal path end to end against a throwaway
//! store in a temp directory — capture, corrupt one byte, scrub, and
//! require the healed file to be byte-identical to the original — then
//! checks that an unsalvageable file is quarantined, not trusted. CI
//! runs this to prove the recovery machinery on every push.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use acquisition::ProtocolConfig;
use campaign::{Campaign, CampaignConfig, RecordFate};
use experiments::{campaign_from_args, finish_campaign};
use sbox_circuits::Scheme;

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--selftest") {
        return selftest();
    }
    let mut campaign = campaign_from_args();
    let report = campaign.scrub();
    print!("{report}");
    finish_campaign(&campaign);
    if report.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prove the heal path on a throwaway store: a single flipped byte must
/// be detected and healed back to the exact original bytes, and an
/// unsalvageable file must be quarantined rather than served.
fn selftest() -> ExitCode {
    let dir = std::env::temp_dir().join(format!("sca-scrub-selftest-{}", std::process::id()));
    let result = selftest_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => {
            println!("scrub selftest: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scrub selftest FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn selftest_in(dir: &Path) -> Result<(), String> {
    let protocol = ProtocolConfig {
        traces_per_class: 2,
        ..ProtocolConfig::default()
    };
    let config = CampaignConfig {
        protocol,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        workers: 1,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(config);

    // Capture a small classified store and snapshot its exact bytes.
    let outcome = campaign.acquire_aged(Scheme::Lut, 0.0);
    if outcome.partial.is_some() {
        return Err("selftest acquisition was interrupted".into());
    }
    let store = single_store(&dir.join("traces"))?;
    let pristine = std::fs::read(&store).map_err(|e| format!("cannot read store: {e}"))?;

    // Flip one byte in the record region (past the ~64-byte header) and
    // require the scrub to notice, heal, and restore the exact bytes.
    let mut damaged = pristine.clone();
    let offset = pristine.len() / 2;
    damaged[offset] ^= 0xFF;
    std::fs::write(&store, &damaged).map_err(|e| format!("cannot corrupt store: {e}"))?;

    let report = campaign.scrub();
    if report.healed() != 1 || report.quarantined() != 0 {
        return Err(format!("expected exactly one heal, got: {report}"));
    }
    let healed = std::fs::read(&store).map_err(|e| format!("cannot re-read store: {e}"))?;
    if healed != pristine {
        return Err("healed store is not byte-identical to the pristine capture".into());
    }

    // Destroy the header: this must be quarantined, never trusted.
    let mut wrecked = pristine;
    wrecked[0] ^= 0xFF;
    std::fs::write(&store, &wrecked).map_err(|e| format!("cannot wreck store: {e}"))?;
    let report = campaign.scrub();
    let quarantined = report
        .outcomes
        .iter()
        .any(|o| matches!(o.fate, RecordFate::Quarantined { .. }));
    if !quarantined || report.all_verified() {
        return Err(format!("expected a quarantine, got: {report}"));
    }
    if store.exists() {
        return Err("quarantined store was left in place".into());
    }
    Ok(())
}

/// The single `.sctr` file the selftest capture produced.
fn single_store(dir: &Path) -> Result<PathBuf, String> {
    let mut stores: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sctr"))
        .collect();
    if stores.len() != 1 {
        return Err(format!("expected one store file, found {}", stores.len()));
    }
    Ok(stores.pop().expect("checked length"))
}
