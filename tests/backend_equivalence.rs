//! Backend-equivalence suite: the bit-sliced levelized capture engine
//! must be observationally indistinguishable from the event-driven
//! reference engine everywhere traces flow — across every scheme, fresh
//! and aged, through the streaming fold, the durable trace store,
//! scrub/heal, and checkpoint resume. Only throughput may differ.

use std::path::{Path, PathBuf};

use sbox_leakage::acquisition::ProtocolConfig;
use sbox_leakage::campaign::{
    Backend, CacheMode, Campaign, CampaignConfig, FaultPlan, RunBudget, SumMode,
};
use sbox_leakage::circuits::{SboxCircuit, Scheme};
use sbox_leakage::gatesim::{Derating, Simulator};

/// A unique scratch directory per test, cleaned up at entry so stale
/// state from an interrupted run cannot leak into assertions.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbox-leakage-be-{}-{name}", std::process::id()));
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

fn campaign_with(dir: &Path, backend: Backend, cache: CacheMode) -> Campaign {
    Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        workers: 2,
        cache,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        backend,
        ..CampaignConfig::default()
    })
}

/// Every scheme, fresh and aged, must produce bit-identical traces and
/// spectra on both engines — the whole Table I surface of the paper.
#[test]
fn every_scheme_fresh_and_aged_is_bit_identical_across_backends() {
    let dir = scratch("schemes");
    for scheme in Scheme::ALL {
        for months in [0.0, 120.0] {
            let mut event = campaign_with(&dir, Backend::Event, CacheMode::Off);
            let mut bitsliced = campaign_with(&dir, Backend::Bitsliced, CacheMode::Off);
            let reference = event.acquire_aged(scheme, months);
            let got = bitsliced.acquire_aged(scheme, months);
            assert_eq!(
                got.traces, reference.traces,
                "{scheme:?} at {months} months: traces must be bit-identical"
            );
            assert_eq!(
                got.spectrum, reference.spectrum,
                "{scheme:?} at {months} months: spectra must be bit-identical"
            );
            let report = bitsliced.log().reports().last().expect("one run logged");
            assert_eq!(report.backend, Some(Backend::Bitsliced), "{scheme:?}");
            assert!(report.lane_utilization.is_some(), "{scheme:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bounded-memory streaming fold composes with the bit-sliced
/// engine: streamed spectra are bitwise equal to the event-driven
/// streamed run and to the batch path.
#[test]
fn streaming_spectra_are_backend_invariant() {
    let dir = scratch("stream");
    let batch = campaign_with(&dir, Backend::Event, CacheMode::Off).acquire_aged(Scheme::Glut, 0.0);
    for backend in [Backend::Event, Backend::Bitsliced] {
        let mut campaign = Campaign::new(CampaignConfig {
            protocol: small_protocol(),
            workers: 2,
            cache: CacheMode::Off,
            store_dir: dir.join("traces"),
            log_path: dir.join("runs.jsonl"),
            streaming: true,
            stream_mode: SumMode::Exact,
            backend,
            ..CampaignConfig::default()
        });
        let streamed = campaign.acquire_spectrum_aged(Scheme::Glut, 0.0);
        assert!(streamed.streamed);
        let report = campaign.log().reports().last().expect("one run logged");
        assert_eq!(
            report.backend,
            Some(backend),
            "the requested engine must run"
        );
        assert_eq!(
            streamed.spectrum, batch.spectrum,
            "{backend}: streamed spectrum must match the batch path bitwise"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit-sliced captures flow through the PR 7 durable-I/O layer
/// unchanged: the persisted store is byte-identical to the one the
/// event engine writes, scrub heals corruption back to those bytes
/// (re-capturing through the bit-sliced engine), and the run log
/// records which engine ran.
#[test]
fn bitsliced_captures_persist_heal_and_serve_byte_identically() {
    let event_dir = scratch("store-event");
    let bits_dir = scratch("store-bits");
    let reference = campaign_with(&event_dir, Backend::Event, CacheMode::ReadWrite)
        .acquire_aged(Scheme::Isw, 0.0);

    // Transient capture faults under the bit-sliced backend reroute the
    // faulted indices through the scalar retry path; the surviving set
    // is still bit-identical.
    let mut campaign = Campaign::new(CampaignConfig {
        protocol: small_protocol(),
        workers: 2,
        cache: CacheMode::ReadWrite,
        store_dir: bits_dir.join("traces"),
        log_path: bits_dir.join("runs.jsonl"),
        faults: FaultPlan::none().with_transient_panics([0, 9, 30]),
        backend: Backend::Bitsliced,
        ..CampaignConfig::default()
    });
    let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);
    assert!(!outcome.cache_hit);
    assert_eq!(outcome.traces, reference.traces);

    let event_store = store_file(&event_dir);
    let bits_store = store_file(&bits_dir);
    let pristine = std::fs::read(&bits_store).expect("store bytes");
    assert_eq!(
        pristine,
        std::fs::read(&event_store).expect("event store bytes"),
        "the persisted stores must be byte-identical across backends"
    );

    // Record-region corruption heals back to the identical bytes.
    let mut damaged = pristine.clone();
    damaged[pristine.len() - 11] ^= 0x40;
    std::fs::write(&bits_store, &damaged).expect("corrupt");
    let report = campaign.scrub();
    assert_eq!(report.healed(), 1, "{report}");
    assert_eq!(std::fs::read(&bits_store).expect("healed bytes"), pristine);

    // The healed store serves cache hits bit-identically.
    let mut warm = campaign_with(&bits_dir, Backend::Bitsliced, CacheMode::ReadWrite);
    let again = warm.acquire_aged(Scheme::Isw, 0.0);
    assert!(again.cache_hit);
    assert_eq!(again.traces, reference.traces);

    // The run log names the engine on simulated runs and leaves it null
    // on cache hits.
    campaign.finish().expect("append simulated-run reports");
    warm.finish().expect("append cache-hit report");
    let log = std::fs::read_to_string(bits_dir.join("runs.jsonl")).expect("run log");
    assert!(log.contains("\"backend\":\"bitsliced\""), "{log}");
    assert!(log.contains("\"backend\":null"), "{log}");
    let _ = std::fs::remove_dir_all(&event_dir);
    let _ = std::fs::remove_dir_all(&bits_dir);
}

/// A budget-interrupted bit-sliced run checkpoints its completed prefix
/// and resumes to the complete, bit-identical set — the schedule is
/// larger than one lane batch so the interruption lands between claims.
#[test]
fn budget_interrupted_bitsliced_runs_resume_bit_identically() {
    let dir = scratch("resume");
    let ref_dir = scratch("resume-ref");
    let mut protocol = ProtocolConfig {
        traces_per_class: 96, // 1536 traces: more than one 1024-lane claim
        ..ProtocolConfig::default()
    };
    protocol.sampling.samples = 6;
    let config = |dir: &Path, backend, budget| CampaignConfig {
        protocol: protocol.clone(),
        workers: 1,
        cache: CacheMode::ReadWrite,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        checkpoint_every: 64,
        budget,
        backend,
        ..CampaignConfig::default()
    };
    let reference = Campaign::new(config(&ref_dir, Backend::Event, RunBudget::unlimited()))
        .acquire_aged(Scheme::Rsm, 0.0);

    let first = Campaign::new(config(
        &dir,
        Backend::Bitsliced,
        RunBudget::unlimited().with_max_new_traces(1024),
    ))
    .acquire_aged(Scheme::Rsm, 0.0);
    assert!(
        first.partial.is_some(),
        "the trace budget must interrupt the 1536-trace schedule"
    );

    let mut resumed = Campaign::new(config(&dir, Backend::Bitsliced, RunBudget::unlimited()));
    let complete = resumed.acquire_aged(Scheme::Rsm, 0.0);
    assert!(complete.partial.is_none());
    assert_eq!(complete.traces, reference.traces);
    assert_eq!(complete.spectrum, reference.spectrum);
    let report = resumed.log().reports().last().expect("one run logged");
    assert!(report.resumed > 0, "resume must reuse checkpointed traces");
    assert_eq!(report.backend, Some(Backend::Bitsliced));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Sub-resolution gate delays make commit order unreproducible from
/// levelized evaluation: the support check must reject such a netlist,
/// so an explicit bit-sliced request fails to resolve and `Auto` resolves
/// to the event engine (the campaign-level fallback is covered in the
/// executor's unit tests).
#[test]
fn sub_resolution_netlists_are_rejected_by_the_bitsliced_engine() {
    let circuit = SboxCircuit::build(Scheme::Opt);
    let config = small_protocol();
    let gates = circuit.netlist().gates().len();
    let sim =
        |derating: &Derating| Simulator::with_derating(circuit.netlist(), &config.sim, derating);
    let tiny = sim(&Derating::from_factors(
        vec![1e-12; gates],
        vec![1.0; gates],
    ));
    assert!(
        Backend::Bitsliced.resolve(&tiny).is_err(),
        "sub-resolution delays must fail the static support check"
    );
    assert!(matches!(Backend::Auto.resolve(&tiny), Ok(None)));
    // A sane derating on the same netlist is supported.
    let fresh = sim(&Derating::fresh(circuit.netlist()));
    assert!(matches!(Backend::Bitsliced.resolve(&fresh), Ok(Some(_))));
    assert!(matches!(Backend::Auto.resolve(&fresh), Ok(Some(_))));
}

/// The default configuration captures ISW on the bit-sliced engine, with
/// the same bits as a campaign pinned to the event engine.
#[test]
fn the_default_campaign_captures_bitsliced_with_event_bits() {
    let dir = scratch("default");
    let campaign = |backend| {
        Campaign::new(CampaignConfig {
            protocol: small_protocol(),
            cache: CacheMode::Off,
            store_dir: dir.join("traces"),
            log_path: dir.join("runs.jsonl"),
            faults: FaultPlan::none(),
            backend,
            ..CampaignConfig::default()
        })
    };
    let mut default = campaign(CampaignConfig::default().backend);
    let got = default.acquire_aged(Scheme::Isw, 0.0);
    let report = default.log().reports().last().expect("one run logged");
    assert_eq!(report.backend, Some(Backend::Bitsliced));
    let want = campaign(Backend::Event).acquire_aged(Scheme::Isw, 0.0);
    assert_eq!(got.traces, want.traces);
    assert_eq!(got.spectrum, want.spectrum);
    let _ = std::fs::remove_dir_all(&dir);
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
