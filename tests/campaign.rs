//! Integration tests for the campaign engine, exercised through the
//! `sbox-leakage` facade the way downstream code sees it.
//!
//! The headline assertion here is the paper-budget determinism check:
//! the full 1024-trace ISW acquisition through the sharded executor is
//! bit-identical to the sequential `support::acquire` oracle for any
//! worker count.

mod support;

use std::path::{Path, PathBuf};

use sbox_leakage::acquisition::{LeakageStudy, ProtocolConfig};
use sbox_leakage::analysis::LeakageSpectrum;
use sbox_leakage::campaign::{
    AttackPlan, Backend, CacheMode, Campaign, CampaignConfig, RunReport, StoreWriter,
};
use sbox_leakage::campaign::{StoreKind, StoreMeta, StoreReader};
use sbox_leakage::circuits::{SboxCircuit, Scheme};

/// A unique scratch directory per test, cleaned up at entry so stale
/// state from an interrupted run cannot leak into assertions.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbox-leakage-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign_in(dir: &Path, workers: usize, cache: CacheMode) -> Campaign {
    Campaign::new(CampaignConfig {
        workers,
        cache,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        ..CampaignConfig::default()
    })
}

/// Acceptance criterion: the paper's 1024-trace ISW protocol acquired
/// through the campaign engine with N workers is bit-identical to the
/// single-threaded acquisition path — same per-class mean traces, same
/// TotalLeakagePower.
#[test]
fn isw_campaign_is_bit_identical_to_sequential_acquisition_for_any_worker_count() {
    let config = CampaignConfig::default().protocol;
    assert_eq!(
        config.traces_per_class * 16,
        1024,
        "the default protocol is the paper's 1024-trace budget"
    );

    let circuit = SboxCircuit::build(Scheme::Isw);
    let reference = support::acquire(&circuit, &config);
    let reference_means = reference.class_means();
    let reference_tlp = LeakageSpectrum::from_class_means(&reference_means).total_leakage_power();

    for workers in [1usize, 2, 8] {
        let dir = scratch(&format!("det{workers}"));
        let mut campaign = campaign_in(&dir, workers, CacheMode::Off);
        let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);
        assert!(!outcome.cache_hit, "cache is off; this must simulate");
        assert_eq!(
            outcome.traces.class_means(),
            reference_means,
            "per-class mean traces differ at {workers} workers"
        );
        assert_eq!(
            outcome.spectrum.total_leakage_power(),
            reference_tlp,
            "TotalLeakagePower differs at {workers} workers"
        );
        assert_eq!(outcome.traces, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Batch cells fold into their trace sets through the in-order chain:
/// each set equals the sequential oracle's, in order, at any worker
/// count on either backend, fresh and aged, and the report carries the
/// chain's length.
#[test]
fn matches_sequential_acquisition_exactly() {
    let dir = scratch("seq");
    let circuit = SboxCircuit::build(Scheme::Opt);
    for backend in [Backend::Event, Backend::Bitsliced] {
        for workers in [1, 3] {
            let what = format!("{backend}, {workers} workers");
            let mut campaign = Campaign::new(CampaignConfig {
                protocol: ProtocolConfig {
                    traces_per_class: 5, // five leaves
                    ..ProtocolConfig::default()
                },
                workers,
                backend,
                cache: CacheMode::Off,
                store_dir: dir.join("traces"),
                log_path: dir.join("runs.jsonl"),
                ..CampaignConfig::default()
            });
            let protocol = campaign.config().protocol.clone();
            let outcome = campaign.acquire_aged(Scheme::Opt, 0.0);
            let reference = support::acquire(&circuit, &protocol);
            assert_eq!(outcome.traces, reference, "{what}");
            assert!(!outcome.cache_hit);
            let report = campaign.log().reports().last().unwrap();
            assert!(!report.streamed, "{what}");
            assert_eq!(report.merge_depth, 4, "{what}");

            let aged = campaign.acquire_aged(Scheme::Opt, 24.0);
            let derating = LeakageStudy::new(protocol.clone())
                .aged_device(&circuit)
                .derating_at_months(24.0);
            let reference = support::acquire_with_derating(&circuit, &protocol, &derating);
            assert_eq!(aged.traces, reference, "{what}, 24 months");

            let cpa = campaign.acquire_cpa(Scheme::Opt, 0xB, 40);
            let reference = support::acquire_cpa(&circuit, &protocol, 0xB, 40);
            assert_eq!(cpa, reference, "{what}");
            let report = campaign.log().reports().last().unwrap();
            assert_eq!(report.merge_depth, 2, "{what}: 40 traces, three leaves");
        }
    }
}

/// A CPA set captured into the store and served back from it equals the
/// sequential oracle's.
#[test]
fn cpa_round_trips_through_the_cache_to_the_sequential_reference() {
    let dir = scratch("cpa");
    let mut campaign = small_campaign_in(&dir);
    let first = campaign.acquire_cpa(Scheme::Opt, 0xB, 24);
    let second = campaign.acquire_cpa(Scheme::Opt, 0xB, 24);
    assert_eq!(campaign.log().cache_hits(), 1);
    let circuit = SboxCircuit::build(Scheme::Opt);
    let reference = support::acquire_cpa(&circuit, &campaign.config().protocol, 0xB, 24);
    assert_eq!(first, reference);
    assert_eq!(second, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store round-trips classified records exactly: metadata, labels,
/// and every f64 sample bit pattern.
#[test]
fn store_round_trips_records_bit_exactly() {
    let dir = scratch("store");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.sctr");

    // Exercise awkward values: negatives, subnormals, huge magnitudes,
    // and exact zero.
    let records: Vec<(u16, Vec<f64>)> = (0..24)
        .map(|i| {
            let base = (i as f64 - 11.5) * 1.0e-3;
            let samples = (0..7)
                .map(|s| match s % 4 {
                    0 => base * (s as f64 + 1.0),
                    1 => -base * 1.0e12,
                    2 => base * f64::MIN_POSITIVE,
                    _ => 0.0,
                })
                .collect();
            (i % 16, samples)
        })
        .collect();

    let meta = StoreMeta {
        kind: StoreKind::Classified,
        name: "ISW".to_string(),
        seed: 0xD47E_2022,
        age_months: 12.5,
        config_digest: 0xDEAD_BEEF_0BAD_F00D,
        class_or_key: 16,
        traces: records.len() as u32,
        samples: 7,
    };
    let mut writer = StoreWriter::create(&path, meta.clone()).unwrap();
    for (label, samples) in &records {
        writer.record(*label, samples).unwrap();
    }
    writer.finish().unwrap();

    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.meta(), &meta);
    let mut read_back = Vec::new();
    reader
        .for_each_record(|label, samples| read_back.push((label, samples.to_vec())))
        .unwrap();
    assert_eq!(read_back, records);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second campaign over the same store directory — a fresh process in
/// real use — serves the acquisition from disk with zero simulator
/// events, and returns the identical spectrum.
#[test]
fn warm_cache_serves_acquisition_with_zero_simulator_events() {
    let dir = scratch("warm");

    let mut cold = campaign_in(&dir, 2, CacheMode::ReadWrite);
    let first = cold.acquire_aged(Scheme::Glut, 0.0);
    assert!(!first.cache_hit);
    assert!(cold.log().reports()[0].stats.events > 0);

    let mut warm = campaign_in(&dir, 2, CacheMode::ReadWrite);
    let second = warm.acquire_aged(Scheme::Glut, 0.0);
    assert!(second.cache_hit, "second campaign must hit the store");
    assert_eq!(
        warm.log().reports()[0].stats.events,
        0,
        "a cache hit must not run the simulator"
    );
    assert_eq!(first.traces, second.traces);
    assert_eq!(
        first.spectrum.total_leakage_power(),
        second.spectrum.total_leakage_power()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small, fast campaign (32 traces of 10 samples) over `dir`.
fn small_campaign_in(dir: &Path) -> Campaign {
    let mut config = CampaignConfig {
        workers: 2,
        cache: CacheMode::ReadWrite,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        ..CampaignConfig::default()
    };
    config.protocol.traces_per_class = 2;
    config.protocol.sampling.samples = 10;
    Campaign::new(config)
}

fn stage_names(report: &RunReport) -> Vec<&'static str> {
    report.stages.iter().map(|s| s.name).collect()
}

/// A store that exists but cannot serve — its header or one of its
/// records damaged — degrades to a miss, and that miss's run report
/// names the store it could not use.
#[test]
fn a_damaged_store_is_named_in_the_miss_report() {
    let dir = scratch("degraded");
    let mut campaign = small_campaign_in(&dir);
    campaign.acquire_aged(Scheme::Opt, 0.0);
    let store = std::fs::read_dir(dir.join("traces"))
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "sctr"))
        .expect("the classified store");
    let pristine = std::fs::read(&store).expect("store bytes");
    // Byte 10 lies in the header (lookup fails); the middle byte lies in
    // a record (the read fails part-way).
    for at in [10, pristine.len() / 2] {
        let mut damaged = pristine.clone();
        damaged[at] ^= 0x20;
        std::fs::write(&store, &damaged).expect("corrupt");
        let outcome = campaign.acquire_aged(Scheme::Opt, 0.0);
        assert!(
            !outcome.cache_hit,
            "byte {at}: a damaged store cannot serve"
        );
        let report = campaign.log().reports().last().expect("miss logged");
        let name = store.display().to_string();
        assert!(
            report.warnings.iter().any(|w| w.contains(&name)),
            "byte {at}: warnings {:?} do not name {name}",
            report.warnings
        );
        assert_eq!(std::fs::read(&store).expect("rewritten"), pristine);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A miss times building the netlist and derating it; a hit builds
/// nothing and simulates nothing.
#[test]
fn misses_time_build_and_aging_and_hits_build_nothing() {
    let dir = scratch("stages");
    let mut campaign = small_campaign_in(&dir);
    campaign.acquire_aged(Scheme::Opt, 24.0);
    let miss = campaign
        .log()
        .reports()
        .last()
        .expect("miss logged")
        .clone();
    assert!(!miss.cache_hit);
    assert!(stage_names(&miss).contains(&"build"), "{:?}", miss.stages);
    assert!(stage_names(&miss).contains(&"age"), "{:?}", miss.stages);

    assert!(campaign.acquire_aged(Scheme::Opt, 24.0).cache_hit);
    let hit = campaign.log().reports().last().expect("hit logged");
    assert!(!stage_names(hit).contains(&"build"), "{:?}", hit.stages);
    assert!(!stage_names(hit).contains(&"age"), "{:?}", hit.stages);
    assert_eq!(hit.stats.events, 0, "a hit must not simulate");

    let plan = AttackPlan {
        traces: 32,
        trials: 1,
        ..AttackPlan::default()
    };
    campaign.attack_aged(Scheme::Lut, 24.0, &plan);
    let attack = campaign.log().reports().last().expect("trial logged");
    assert!(!attack.cache_hit);
    assert!(
        stage_names(attack).contains(&"build"),
        "{:?}",
        attack.stages
    );
    assert!(stage_names(attack).contains(&"age"), "{:?}", attack.stages);
    let _ = std::fs::remove_dir_all(&dir);
}
