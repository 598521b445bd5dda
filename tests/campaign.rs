//! Integration tests for the campaign engine, exercised through the
//! `sbox-leakage` facade the way downstream code sees it.
//!
//! The headline assertion here is the paper-budget determinism check:
//! the full 1024-trace ISW acquisition through the sharded executor is
//! bit-identical to the sequential `support::acquire` oracle for any
//! worker count.

mod support;

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_leakage::acquisition::{classified_schedule, trace_seed, LeakageStudy, ProtocolConfig};
use sbox_leakage::analysis::LeakageSpectrum;
use sbox_leakage::campaign::{
    resume_checkpoint, AttackPlan, Backend, CacheMode, Campaign, CampaignConfig, CampaignKey,
    RunReport, StoreWriter,
};
use sbox_leakage::campaign::{StoreKind, StoreReader};
use sbox_leakage::circuits::{SboxCircuit, Scheme};
use sbox_leakage::gatesim::Simulator;

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

    let meta = CampaignKey {
        kind: StoreKind::Classified,
        implementation: "ISW".to_string(),
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

/// Both on-disk formats, pinned byte for byte: a 3-record `SCTR` store
/// and a 3-frame `SCKP` checkpoint (frames written out of index order)
/// equal buffers built by hand from the layout in `store.rs`'s module
/// doc, with FNV-1a/64 computed here from its definition.
#[test]
fn store_and_checkpoint_bytes_match_the_documented_layout() {
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let dir = scratch("layout");
    std::fs::create_dir_all(&dir).unwrap();
    let key = CampaignKey {
        kind: StoreKind::Classified,
        implementation: "RSM-ROM".to_string(),
        seed: 0x0123_4567_89AB_CDEF,
        traces: 3,
        samples: 2,
        age_months: 36.5,
        class_or_key: 16,
        config_digest: 0xFEDC_BA98_7654_3210,
    };
    let records: [(u32, u16, [f64; 2]); 3] = [
        (0, 5, [1.5, -0.25]),
        (1, 15, [f64::MIN_POSITIVE, 1e300]),
        (2, 0, [-0.0, 42.0]),
    ];

    // Offsets 4.. of the header: version, kind, classes, name length,
    // name, seed, age, config digest, trace count, samples per trace.
    let mut fields = Vec::new();
    fields.extend_from_slice(&2u16.to_le_bytes());
    fields.extend_from_slice(&0u16.to_le_bytes());
    fields.extend_from_slice(&16u16.to_le_bytes());
    fields.extend_from_slice(&7u16.to_le_bytes());
    fields.extend_from_slice(b"RSM-ROM");
    fields.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
    fields.extend_from_slice(&36.5f64.to_le_bytes());
    fields.extend_from_slice(&0xFEDC_BA98_7654_3210u64.to_le_bytes());
    fields.extend_from_slice(&3u32.to_le_bytes());
    fields.extend_from_slice(&2u32.to_le_bytes());
    let header = |magic: &[u8; 4]| {
        let mut h = magic.to_vec();
        h.extend_from_slice(&fields);
        let checksum = fnv(&h);
        h.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(h.len(), 44 + 7 + 8, "header ends at 52 + n");
        h
    };
    let slot = |index: Option<u32>, label: u16, samples: &[f64; 2]| {
        let mut s = Vec::new();
        if let Some(index) = index {
            s.extend_from_slice(&index.to_le_bytes());
        }
        s.extend_from_slice(&label.to_le_bytes());
        for x in samples {
            s.extend_from_slice(&x.to_le_bytes());
        }
        let checksum = fnv(&s);
        s.extend_from_slice(&checksum.to_le_bytes());
        s
    };

    let mut sctr = header(b"SCTR");
    for (_, label, samples) in &records {
        sctr.extend_from_slice(&slot(None, *label, samples));
    }
    let whole = fnv(&sctr);
    sctr.extend_from_slice(&whole.to_le_bytes());
    assert_eq!(sctr.len(), 59 + 3 * (2 + 16 + 8) + 8);
    let store = dir.join("layout.sctr");
    let mut writer = StoreWriter::create(&store, key.expected_meta()).unwrap();
    for (_, label, samples) in &records {
        writer.record(*label, samples).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(std::fs::read(&store).unwrap(), sctr, "SCTR bytes");

    let order = [2, 0, 1];
    let mut sckp = header(b"SCKP");
    for &i in &order {
        let (index, label, samples) = &records[i];
        sckp.extend_from_slice(&slot(Some(*index), *label, samples));
    }
    assert_eq!(sckp.len(), 59 + 3 * (4 + 2 + 16 + 8));
    let checkpoint = dir.join("layout.sctr.ckpt");
    let (resumed, mut writer) = resume_checkpoint(&checkpoint, &key.expected_meta()).unwrap();
    assert!(resumed.is_empty());
    for &i in &order {
        let (index, label, samples) = &records[i];
        writer.record(*index, *label, samples).unwrap();
    }
    writer.sync().unwrap();
    drop(writer);
    assert_eq!(std::fs::read(&checkpoint).unwrap(), sckp, "SCKP bytes");
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

/// Heal on read: a miss on a store with one corrupt record resumes from
/// the store's verified records, simulates only the damaged trace and
/// rewrites the store byte for byte; a torn store resumes from its
/// intact prefix; and a verified store of another key, filed under this
/// key's name, is never resumed from.
#[test]
fn a_damaged_store_heals_on_read_from_its_verified_records() {
    let dir = scratch("heal-on-read");
    let mut campaign = small_campaign_in(&dir);
    let reference = campaign.acquire_aged(Scheme::Opt, 0.0).traces;
    let store = std::fs::read_dir(dir.join("traces"))
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "sctr"))
        .expect("the classified store");
    let pristine = std::fs::read(&store).expect("store bytes");
    let mut other = campaign.config().clone();
    let protocol = other.protocol.clone();
    let n = reference.len();
    let (header, record) = (52 + "OPT".len(), 2 + 8 * protocol.sampling.samples + 8);
    let mut heal = |bytes: &[u8]| {
        std::fs::write(&store, bytes).expect("damage");
        let outcome = campaign.acquire_aged(Scheme::Opt, 0.0);
        assert!(!outcome.cache_hit, "a damaged store cannot serve");
        assert_eq!(outcome.traces, reference);
        let report = campaign
            .log()
            .reports()
            .last()
            .expect("miss logged")
            .clone();
        assert_eq!(std::fs::read(&store).expect("rewritten"), pristine);
        assert!(campaign.acquire_aged(Scheme::Opt, 0.0).cache_hit);
        report
    };

    // One corrupt record: the miss simulates that trace alone.
    let damaged = 11;
    let mut bytes = pristine.clone();
    bytes[header + damaged * record + 7] ^= 0x20;
    let report = heal(&bytes);
    assert_eq!((report.resumed, report.healed), (n - 1, 1));
    let circuit = SboxCircuit::build(Scheme::Opt);
    let stimulus = &classified_schedule(&circuit, &protocol)[damaged];
    let mut noise = SmallRng::seed_from_u64(trace_seed(protocol.seed, damaged as u64));
    let one = Simulator::new(circuit.netlist(), &protocol.sim)
        .session()
        .capture_into(
            &stimulus.initial,
            &stimulus.final_inputs,
            &protocol.sampling,
            &mut noise,
            &mut Vec::new(),
        );
    assert!(one.events > 0);
    assert_eq!(report.stats.events, one.events, "one trace simulated");

    // A torn store: the intact prefix resumes, the tail is re-captured.
    let kept = 20;
    let report = heal(&pristine[..header + kept * record + record / 2]);
    assert_eq!((report.resumed, report.healed), (kept, n - kept));

    // Another seed's verified store under this key's file name.
    other.protocol.seed ^= 1;
    other.store_dir = dir.join("other");
    Campaign::new(other).acquire_aged(Scheme::Opt, 0.0);
    let foreign = std::fs::read_dir(dir.join("other"))
        .expect("other store dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "sctr"))
        .expect("the other key's store");
    let report = heal(&std::fs::read(foreign).expect("other store bytes"));
    assert_eq!((report.resumed, report.healed), (0, 0));
    let name = store.display().to_string();
    assert!(report.warnings.iter().any(|w| w.contains(&name)));
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
