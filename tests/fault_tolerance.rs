//! Integration tests for the campaign's failure model: torn-write
//! recovery in the store layer, panic isolation and retry in the
//! executor, quarantine of persistently failing traces, and
//! checkpoint/resume of killed runs — all driven through the
//! deterministic `FaultPlan` harness and the public `sbox-leakage`
//! facade.

use std::path::{Path, PathBuf};

use sbox_leakage::acquisition::ProtocolConfig;
use sbox_leakage::campaign::{
    CacheMode, Campaign, CampaignConfig, FaultPlan, RecordFate, StoreReader,
};
use sbox_leakage::circuits::Scheme;

/// A unique scratch directory per test, cleaned up at entry so stale
/// state from an interrupted run cannot leak into assertions.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbox-leakage-ft-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small, fast protocol: 32 traces of 10 samples.
fn small_protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig {
        traces_per_class: 2,
        ..ProtocolConfig::default()
    };
    p.sampling.samples = 10;
    p
}

fn campaign_in(dir: &Path, cache: CacheMode, faults: FaultPlan) -> Campaign {
    Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        workers: 2,
        cache,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        faults,
        ..CampaignConfig::default()
    })
}

/// The single `.sctr` store file a campaign wrote under `dir`.
fn store_file(dir: &Path) -> PathBuf {
    let mut stores: Vec<PathBuf> = std::fs::read_dir(dir.join("traces"))
        .expect("store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "sctr"))
        .collect();
    assert_eq!(stores.len(), 1, "expected exactly one store in {stores:?}");
    stores.pop().expect("one store")
}

/// Property-style torn-write sweep: a store truncated at **every** byte
/// boundary, and a store with **every** byte individually corrupted,
/// must always degrade to a read error (a cache miss at the campaign
/// level) — never a panic — and the campaign must then re-acquire the
/// identical traces.
#[test]
fn every_truncation_and_corruption_degrades_to_a_cache_miss() {
    let dir = scratch("torn");
    let mut campaign = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let reference = campaign.acquire(Scheme::Opt);
    assert!(!reference.cache_hit);

    let path = store_file(&dir);
    let pristine = std::fs::read(&path).expect("store bytes");

    // Truncation at every byte boundary: opening or streaming the store
    // must return an error for every strict prefix.
    for len in 0..pristine.len() {
        std::fs::write(&path, &pristine[..len]).expect("truncate");
        let outcome = StoreReader::open(&path).and_then(|r| r.read_classified());
        assert!(outcome.is_err(), "prefix of {len} bytes must not read back");
    }

    // Every single-byte corruption (bit 6 flipped) must be caught by the
    // header checks or the trailing checksum.
    let mut corrupt = pristine.clone();
    for i in 0..corrupt.len() {
        corrupt[i] ^= 0x40;
        std::fs::write(&path, &corrupt).expect("corrupt");
        let outcome = StoreReader::open(&path).and_then(|r| r.read_classified());
        assert!(outcome.is_err(), "corrupt byte {i} must not read back");
        corrupt[i] ^= 0x40;
    }

    // Campaign-level recovery: with a torn store on disk, the next
    // acquisition misses, re-simulates, and reproduces the identical
    // traces (then repairs the store for the run after it).
    std::fs::write(&path, &pristine[..pristine.len() / 2]).expect("tear");
    let mut recovering = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let recovered = recovering.acquire(Scheme::Opt);
    assert!(!recovered.cache_hit, "torn store must be a miss");
    assert_eq!(recovered.traces, reference.traces);
    let mut warm = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    assert!(warm.acquire(Scheme::Opt).cache_hit, "store repaired");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `torn@N` fault makes the campaign itself produce a short store;
/// the degradation path is exercised end to end without hand-editing
/// files.
#[test]
fn injected_torn_store_writes_degrade_to_re_acquisition() {
    let dir = scratch("torn-fault");
    let mut torn = campaign_in(
        &dir,
        CacheMode::ReadWrite,
        FaultPlan::none().with_torn_store(40),
    );
    let first = torn.acquire(Scheme::Opt);
    assert!(!first.cache_hit);

    let mut after = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let second = after.acquire(Scheme::Opt);
    assert!(
        !second.cache_hit,
        "a torn store must not be served as a hit"
    );
    assert_eq!(second.traces, first.traces);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected mid-campaign panic (the ISSUE's headline scenario): the
/// run completes, the failed captures are retried with the re-derived
/// per-trace seed, and the result is bit-identical to a clean run at any
/// worker count.
#[test]
fn injected_panics_are_retried_bit_identically_at_any_worker_count() {
    let dir = scratch("retry");
    let mut clean = campaign_in(&dir, CacheMode::Off, FaultPlan::none());
    let reference = clean.acquire(Scheme::Rsm);

    for workers in [1usize, 8] {
        let faults = FaultPlan::none()
            .with_transient_panics([0, 7, 31])
            .with_panic_rate(11, 0.2);
        let mut campaign = Campaign::new(CampaignConfig {
            protocol: small_protocol(),
            workers,
            cache: CacheMode::Off,
            store_dir: dir.join("traces"),
            log_path: dir.join("runs.jsonl"),
            faults,
            ..CampaignConfig::default()
        });
        let outcome = campaign.acquire(Scheme::Rsm);
        assert_eq!(
            outcome.traces, reference.traces,
            "retried traces must be bit-identical at {workers} workers"
        );
        let report = &campaign.log().reports()[0];
        assert!(
            report.retried >= 3,
            "at {workers} workers: {}",
            report.retried
        );
        assert_eq!(report.quarantined, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persistently failing indices are quarantined: the campaign completes,
/// reports them, refuses to cache the incomplete set, and keeps the
/// survivors' checkpoint.
#[test]
fn sticky_faults_quarantine_and_do_not_poison_the_cache() {
    let dir = scratch("quarantine");
    let faults = FaultPlan::none().with_sticky_panics([3, 11]);
    let mut campaign = campaign_in(&dir, CacheMode::ReadWrite, faults);
    let outcome = campaign.acquire(Scheme::Opt);
    assert!(!outcome.cache_hit);
    assert_eq!(outcome.traces.len(), 30, "32 scheduled, 2 quarantined");

    let report = &campaign.log().reports()[0];
    assert_eq!(report.quarantined, 2);
    assert!(
        report.warnings.iter().any(|w| w.contains("quarantined")),
        "incompleteness must be reported: {:?}",
        report.warnings
    );

    // The incomplete set must not have been cached as complete…
    let stores = std::fs::read_dir(dir.join("traces"))
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "sctr"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(stores, 0, "quarantined run must not write a store");
    // …but the survivors' checkpoint must still be on disk for resume.
    let checkpoints = std::fs::read_dir(dir.join("traces"))
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(checkpoints, 1, "quarantined run must keep its checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: a campaign killed mid-run resumes from its last
/// checkpoint and re-simulates only the incomplete shards, producing
/// byte-identical traces — asserted by counting simulator events on the
/// resumed run.
#[test]
fn a_killed_campaign_resumes_from_its_checkpoint() {
    // The clean reference (and its full-simulation event count).
    let ref_dir = scratch("resume-ref");
    let mut clean = campaign_in(&ref_dir, CacheMode::Off, FaultPlan::none());
    let reference = clean.acquire(Scheme::Glut);
    let full_events = clean.log().reports()[0].stats.events;
    assert!(full_events > 0);

    // "Kill" a run by quarantining two indices: 30 of 32 traces land in
    // the checkpoint, no store is written — exactly the disk state a
    // crashed process leaves behind.
    let dir = scratch("resume");
    let faults = FaultPlan::none().with_sticky_panics([5, 20]);
    let mut killed = campaign_in(&dir, CacheMode::ReadWrite, faults);
    killed.acquire(Scheme::Glut);
    assert_eq!(killed.log().reports()[0].quarantined, 2);

    // The next run resumes: 30 traces from the checkpoint, 2 simulated.
    let mut resumed = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let outcome = resumed.acquire(Scheme::Glut);
    assert!(!outcome.cache_hit);
    assert_eq!(
        outcome.traces, reference.traces,
        "resumed run must be byte-identical to an uninterrupted one"
    );
    let report = &resumed.log().reports()[0];
    assert_eq!(report.resumed, 30, "only incomplete shards re-simulate");
    assert_eq!(report.quarantined, 0);
    assert!(
        report.stats.events < full_events / 2,
        "resume must not re-simulate completed shards \
         ({} events vs {full_events} for a full run)",
        report.stats.events
    );
    assert!(report.stats.events > 0, "the missing shards do simulate");

    // The completed run wrote the store and retired the checkpoint: the
    // next campaign is a pure hit.
    let mut warm = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    assert!(warm.acquire(Scheme::Glut).cache_hit);
    assert_eq!(warm.log().reports()[0].stats.events, 0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// `SCA_CACHE=refresh` (write-only mode) must re-simulate even when a
/// checkpoint exists — a refresh that silently resumed would defeat its
/// purpose.
#[test]
fn refresh_mode_ignores_existing_checkpoints() {
    let dir = scratch("refresh");
    let faults = FaultPlan::none().with_sticky_panics([1]);
    let mut killed = campaign_in(&dir, CacheMode::ReadWrite, faults);
    killed.acquire(Scheme::Opt);

    let mut refresh = campaign_in(&dir, CacheMode::WriteOnly, FaultPlan::none());
    let outcome = refresh.acquire(Scheme::Opt);
    assert!(!outcome.cache_hit);
    let report = &refresh.log().reports()[0];
    assert_eq!(report.resumed, 0, "refresh must not resume");
    assert!(report.stats.events > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

fn streaming_campaign_in(
    dir: &Path,
    cache: CacheMode,
    faults: FaultPlan,
    workers: usize,
) -> Campaign {
    Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        workers,
        cache,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        faults,
        streaming: true,
        ..CampaignConfig::default()
    })
}

/// Streaming analysis under injected panics: retried captures fold
/// exactly once, so the faulted streamed spectrum is bit-identical to a
/// clean batch run at any worker count.
#[test]
fn faulted_streaming_folds_are_bit_identical_to_a_clean_run() {
    let dir = scratch("stream-retry");
    let mut clean = campaign_in(&dir, CacheMode::Off, FaultPlan::none());
    let reference = clean.acquire(Scheme::Rsm);

    for workers in [1usize, 8] {
        let faults = FaultPlan::none()
            .with_transient_panics([0, 7, 31])
            .with_panic_rate(11, 0.2);
        let mut campaign = streaming_campaign_in(&dir, CacheMode::Off, faults, workers);
        let outcome = campaign.acquire_spectrum(Scheme::Rsm);
        assert!(outcome.streamed);
        assert_eq!(
            outcome.spectrum, reference.spectrum,
            "faulted streamed spectrum must match the clean batch run at {workers} workers"
        );
        assert_eq!(outcome.traces_analyzed, reference.traces.len());
        let report = &campaign.log().reports()[0];
        assert!(report.streamed);
        assert!(
            report.retried >= 3,
            "at {workers} workers: {}",
            report.retried
        );
        assert_eq!(report.quarantined, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quarantined captures are folded zero times and survivors exactly
/// once: the streamed spectrum of a faulted run equals the batch
/// analysis of the same degraded trace set, and the incomplete cell is
/// never persisted as complete.
#[test]
fn quarantined_streaming_folds_survivors_exactly_once() {
    let dir = scratch("stream-quarantine");
    let faults = FaultPlan::none().with_sticky_panics([3, 11]);
    let mut batch = campaign_in(&dir, CacheMode::Off, faults.clone());
    let degraded = batch.acquire(Scheme::Opt);
    assert_eq!(degraded.traces.len(), 30, "32 scheduled, 2 quarantined");

    let mut campaign = streaming_campaign_in(&dir, CacheMode::ReadWrite, faults, 2);
    let outcome = campaign.acquire_spectrum(Scheme::Opt);
    assert_eq!(
        outcome.traces_analyzed, 30,
        "quarantined traces must not fold"
    );
    assert_eq!(outcome.class_counts.iter().sum::<usize>(), 30);
    assert_eq!(
        outcome.spectrum, degraded.spectrum,
        "streamed survivors must match the batch analysis of the same degraded set"
    );
    let report = &campaign.log().reports()[0];
    assert_eq!(report.quarantined, 2);
    assert!(
        report.warnings.iter().any(|w| w.contains("quarantined")),
        "incompleteness must be reported: {:?}",
        report.warnings
    );
    let stores = std::fs::read_dir(dir.join("traces"))
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "sctr"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(stores, 0, "streaming keeps no raw traces to persist");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A killed streaming run resumes from its checkpoint: salvaged frames
/// are re-folded at their schedule positions, so the resumed
/// accumulator is bit-identical to one from an uninterrupted run — and
/// only the missing shards re-simulate.
#[test]
fn a_killed_streaming_run_resumes_to_an_identical_accumulator() {
    // Uninterrupted streaming reference (and its full event count).
    let ref_dir = scratch("stream-resume-ref");
    let mut fresh = streaming_campaign_in(&ref_dir, CacheMode::Off, FaultPlan::none(), 2);
    let reference = fresh.acquire_spectrum(Scheme::Glut);
    let full_events = fresh.log().reports()[0].stats.events;
    assert!(full_events > 0);

    // "Kill" a checkpointing streaming run by quarantining two indices.
    let dir = scratch("stream-resume");
    let faults = FaultPlan::none().with_sticky_panics([5, 20]);
    let mut killed = streaming_campaign_in(&dir, CacheMode::ReadWrite, faults, 2);
    killed.acquire_spectrum(Scheme::Glut);
    assert_eq!(killed.log().reports()[0].quarantined, 2);

    // The resumed run re-folds 30 checkpointed frames and simulates 2.
    let mut resumed = streaming_campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none(), 2);
    let outcome = resumed.acquire_spectrum(Scheme::Glut);
    assert!(!outcome.cache_hit, "no complete store exists to hit");
    assert_eq!(
        outcome.spectrum, reference.spectrum,
        "resumed fold must be bit-identical to an uninterrupted one"
    );
    assert_eq!(outcome.traces_analyzed, reference.traces_analyzed);
    let report = &resumed.log().reports()[0];
    assert_eq!(report.resumed, 30, "only incomplete shards re-simulate");
    assert_eq!(report.quarantined, 0);
    assert!(report.stats.events > 0, "the missing shards do simulate");
    assert!(
        report.stats.events < full_events / 2,
        "resume must not re-simulate completed shards \
         ({} events vs {full_events} for a full run)",
        report.stats.events
    );

    // Streaming completion keeps the checkpoint (there is no store to
    // retire it into): a third run folds every frame from it without
    // simulating at all.
    let mut warm = streaming_campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none(), 2);
    let rewarmed = warm.acquire_spectrum(Scheme::Glut);
    assert_eq!(rewarmed.spectrum, reference.spectrum);
    let report = &warm.log().reports()[0];
    assert_eq!(report.resumed, 32, "everything folds from the checkpoint");
    assert_eq!(report.stats.events, 0, "nothing is left to simulate");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A tiny deterministic SplitMix64 for the corruption sweeps below: the
/// offsets are random-looking but reproducible, so a failing round can
/// be replayed exactly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Property test for the self-healing scrub: a store corrupted at
/// random (seeded) byte offsets must always come back — healed files
/// are byte-identical to the pristine capture, and unhealable damage is
/// quarantined and re-acquired bit-identically. Either way the spectra
/// the analysis sees afterwards equal the uncorrupted run's.
#[test]
fn scrub_restores_randomly_corrupted_stores_bit_identically() {
    let dir = scratch("scrub-prop");
    let mut campaign = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let reference = campaign.acquire(Scheme::Ti);
    let path = store_file(&dir);
    let pristine = std::fs::read(&path).expect("store bytes");
    let mut rng = 0x5C4B_0B5E_ED00_0007u64;

    for round in 0..12 {
        let mut damaged = pristine.clone();
        let hits = 1 + (splitmix(&mut rng) % 4) as usize;
        for _ in 0..hits {
            let i = (splitmix(&mut rng) as usize) % damaged.len();
            damaged[i] ^= (splitmix(&mut rng) as u8) | 1;
        }
        if damaged == pristine {
            continue; // two flips cancelled; nothing to detect
        }
        std::fs::write(&path, &damaged).expect("corrupt");

        let report = campaign.scrub();
        assert_eq!(report.scanned(), 1, "round {round}");
        match &report.outcomes[0].fate {
            RecordFate::Clean => panic!("round {round}: corruption went undetected"),
            RecordFate::Healed { .. } => {
                let healed = std::fs::read(&path).expect("healed bytes");
                assert_eq!(
                    healed, pristine,
                    "round {round}: healed store must be byte-identical"
                );
            }
            RecordFate::Quarantined { .. } => {
                // Unhealable damage (typically in the header): the file
                // is set aside, never served, and re-acquisition
                // restores the identical store.
                assert!(
                    !path.exists(),
                    "round {round}: quarantine must move the file"
                );
                let _ = std::fs::remove_file(path.with_extension("sctr.quarantined"));
                let mut fresh = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
                let recovered = fresh.acquire(Scheme::Ti);
                assert!(!recovered.cache_hit, "round {round}");
                assert_eq!(recovered.traces, reference.traces, "round {round}");
                let rewritten = std::fs::read(&path).expect("rewritten bytes");
                assert_eq!(
                    rewritten, pristine,
                    "round {round}: re-acquired store must be byte-identical"
                );
            }
        }
    }

    // Whatever mix of heals and quarantines the sweep produced, the
    // analysis downstream of the store sees the uncorrupted results.
    let mut warm = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let outcome = warm.acquire(Scheme::Ti);
    assert!(outcome.cache_hit, "scrubbed store must serve hits again");
    assert_eq!(outcome.traces, reference.traces);
    assert_eq!(outcome.spectrum, reference.spectrum);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same healing property for CPA attack stores: record-region
/// corruption is healed bit-identically, so the attack scores computed
/// from the store equal the uncorrupted run's.
#[test]
fn scrub_heals_cpa_stores_so_attack_inputs_are_bit_identical() {
    let dir = scratch("scrub-cpa");
    let mut campaign = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let reference = campaign.acquire_cpa(Scheme::Lut, 3, 16);
    let path = store_file(&dir);
    let pristine = std::fs::read(&path).expect("store bytes");
    let mut rng = 0xC0FF_EE00_0000_0007u64;

    for round in 0..6 {
        // Stay past the header so every round exercises the heal path
        // (header damage is the quarantine path, covered above).
        let mut damaged = pristine.clone();
        let span = damaged.len() - 80;
        let i = 80 + (splitmix(&mut rng) as usize) % span;
        damaged[i] ^= (splitmix(&mut rng) as u8) | 1;
        std::fs::write(&path, &damaged).expect("corrupt");

        let report = campaign.scrub();
        assert_eq!(report.healed(), 1, "round {round}: {report}");
        let healed = std::fs::read(&path).expect("healed bytes");
        assert_eq!(healed, pristine, "round {round}");
    }

    let mut warm = campaign_in(&dir, CacheMode::ReadWrite, FaultPlan::none());
    let again = warm.acquire_cpa(Scheme::Lut, 3, 16);
    assert_eq!(
        again, reference,
        "healed CPA store must reproduce identical attack inputs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CPA acquisition with a quarantined index returns only the
/// surviving traces, each paired with its own plaintext — no empty slot
/// that would make the attack evaluation panic on ragged traces.
#[test]
fn quarantined_cpa_traces_are_dropped_with_their_plaintexts() {
    use sbox_leakage::attacks::{success_rate_curve, LeakageModel};

    let dir = scratch("cpa-quarantine");
    let faults = FaultPlan::none().with_sticky_panics([3]);
    let mut campaign = campaign_in(&dir, CacheMode::Off, faults);
    let data = campaign.acquire_cpa(Scheme::Lut, 0x7, 32);
    let report = campaign.log().reports().last().expect("one run logged");
    assert_eq!(report.quarantined, 1);
    assert_eq!(data.traces.len(), 31, "the quarantined trace is dropped");
    assert_eq!(data.plaintexts.len(), data.traces.len());
    let samples = small_protocol().sampling.samples;
    assert!(data.traces.iter().all(|t| t.len() == samples));

    let mut clean = campaign_in(&dir, CacheMode::Off, FaultPlan::none());
    let reference = clean.acquire_cpa(Scheme::Lut, 0x7, 32);
    let survivors: Vec<usize> = (0..32).filter(|&i| i != 3).collect();
    for (k, &i) in survivors.iter().enumerate() {
        assert_eq!(data.plaintexts[k], reference.plaintexts[i], "plaintext {i}");
        assert_eq!(data.traces[k], reference.traces[i], "trace {i}");
    }

    let curve = success_rate_curve(
        &data.plaintexts,
        &data.traces,
        0x7,
        LeakageModel::HammingWeight,
        &[8, 31],
        1,
    );
    assert_eq!(curve.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
