//! Golden-vector conformance suite: the spectral analysis of every
//! scheme, pinned bit-for-bit.
//!
//! Each scheme fixture, `tests/golden/<scheme>.golden`, holds the
//! per-class mean traces, the Walsh–Hadamard coefficients `a_u(T)`, the
//! per-sample `LeakagePower(T)` series, and the total / single-bit /
//! multi-bit leakage sums for one scheme under a small fixed protocol
//! (2 traces per class, 10 samples, the default seed). Values are
//! stored as the hex of `f64::to_bits`, so a comparison failure is a
//! *bitwise* regression — there is no tolerance to hide behind.
//!
//! Three independent pipelines must reproduce every scheme fixture
//! exactly: the batch analysis (`acquire` + `from_class_means`), the
//! streaming fold (`acquire`'s traces folded one at a time, in
//! acquisition order, through the chunk grid, `ChunkFold`), and the
//! campaign's sharded executor fold at 1, 2, and 8 workers (whose shard
//! accumulators merge in chunk order).
//!
//! One more fixture, `tests/golden/raw_capture.golden`, pins the capture
//! engine itself below the analysis: sixteen noisy ISW captures (every
//! sample's bits and every `CaptureStats` field) and, for each scheme,
//! the class 0 → 9 transition's event count and a digest of every
//! switch event and settled net. It was blessed while a frozen copy of
//! the pre-rework heap-queue engine still shipped and matched the
//! production engine bit for bit on exactly these inputs, so it keeps
//! the bits both engines agreed on.
//!
//! Regenerate after an intentional analysis or engine change with:
//!
//! ```text
//! SCA_BLESS=1 cargo test --test conformance
//! ```
//!
//! and review the fixture diff like any other code change (see
//! `DESIGN.md`, "Streaming spectral analysis").

use std::fmt::Write as _;
use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_leakage::acquisition::{self, classified_schedule, ProtocolConfig, NUM_CLASSES};
use sbox_leakage::analysis::checksum::Digest;
use sbox_leakage::analysis::{ChunkFold, LeakageSpectrum, SumMode};
use sbox_leakage::campaign::{
    fold_schedule_into, ExecPolicy, FaultPlan, ResumeState, SpectrumAccumulator,
};
use sbox_leakage::circuits::{SboxCircuit, Scheme};
use sbox_leakage::gatesim::{SamplingConfig, SimConfig, Simulator};

/// The fixed fixture protocol: 32 traces of 10 samples, default seed.
fn protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig {
        traces_per_class: 2,
        ..ProtocolConfig::default()
    };
    p.sampling.samples = 10;
    p
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"))
}

fn scheme_fixture(scheme: Scheme) -> String {
    scheme.label().to_lowercase().replace('-', "_")
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Render one scheme's analysis in the fixture format. Everything is
/// derived from the class means, so this pins the whole spectral chain.
fn render(scheme: Scheme, protocol: &ProtocolConfig, means: &[Vec<f64>]) -> String {
    let spectrum = LeakageSpectrum::from_class_means(means);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden leakage vectors: scheme={} traces_per_class={} samples={} seed={}",
        scheme.label(),
        protocol.traces_per_class,
        protocol.sampling.samples,
        protocol.seed,
    );
    let _ = writeln!(
        out,
        "# values are f64 bit patterns (hex); regenerate with SCA_BLESS=1"
    );
    for (class, mean) in means.iter().enumerate() {
        let _ = write!(out, "class_mean {class}");
        for &v in mean {
            let _ = write!(out, " {}", hex(v));
        }
        out.push('\n');
    }
    for u in 0..spectrum.num_sources() {
        let _ = write!(out, "coeff {u}");
        for t in 0..spectrum.samples() {
            let _ = write!(out, " {}", hex(spectrum.coefficient(u, t)));
        }
        out.push('\n');
    }
    for (t, p) in spectrum.leakage_power_series().iter().enumerate() {
        let _ = writeln!(out, "leakage_power {t} {}", hex(*p));
    }
    let _ = writeln!(out, "total {}", hex(spectrum.total_leakage_power()));
    let _ = writeln!(out, "total_single_bit {}", hex(spectrum.total_single_bit()));
    let _ = writeln!(out, "total_multi_bit {}", hex(spectrum.total_multi_bit()));
    out
}

fn blessing() -> bool {
    std::env::var("SCA_BLESS").is_ok_and(|v| v == "1")
}

/// The batch pipeline's rendering — the source of truth the fixtures
/// are blessed from.
fn batch_text(scheme: Scheme) -> String {
    let protocol = protocol();
    let circuit = SboxCircuit::build(scheme);
    let traces = acquisition::acquire(&circuit, &protocol);
    render(scheme, &protocol, &traces.class_means())
}

/// The fixture contents: read from disk normally, recomputed from the
/// batch path under `SCA_BLESS=1` (so the three suites never race on
/// the file while blessing).
fn expected_text(scheme: Scheme) -> String {
    if blessing() {
        return batch_text(scheme);
    }
    read_fixture(&scheme_fixture(scheme))
}

fn read_fixture(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); bless it with \
             `SCA_BLESS=1 cargo test --test conformance`",
            path.display()
        )
    })
}

/// Report the first differing line, not a 5 kB string dump.
fn assert_same(actual: &str, expected: &str, what: &str, fixture: &str) {
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "{what} diverges from the golden vector for {fixture} at line {}",
            i + 1
        );
    }
    panic!(
        "{what} output for {fixture} has {} lines, golden has {}",
        actual.lines().count(),
        expected.lines().count()
    );
}

/// Write `text` as fixture `name` (under `SCA_BLESS=1`) or check it
/// against the committed one.
fn bless_or_check(name: &str, text: &str, what: &str) {
    if blessing() {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, text).expect("write golden");
        eprintln!("blessed {}", path.display());
    } else {
        assert_same(text, &read_fixture(name), what, name);
    }
}

/// The batch analysis reproduces (or blesses) every fixture.
#[test]
fn batch_analysis_matches_golden_vectors() {
    for scheme in Scheme::ALL {
        bless_or_check(
            &scheme_fixture(scheme),
            &batch_text(scheme),
            "batch analysis",
        );
    }
}

/// The one-trace-at-a-time streaming fold, fed `acquire`'s
/// traces in acquisition order, reproduces every fixture bit-for-bit —
/// no tolerance.
#[test]
fn streaming_fold_matches_golden_vectors() {
    let protocol = protocol();
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let traces = acquisition::acquire(&circuit, &protocol);
        let empty =
            SpectrumAccumulator::new(NUM_CLASSES, protocol.sampling.samples, SumMode::Exact);
        let mut fold = ChunkFold::new(empty);
        for (class, trace) in traces.iter() {
            fold.fold(class as u16, trace);
        }
        let acc = fold.finish();
        let text = render(scheme, &protocol, &acc.class_means());
        assert_same(
            &text,
            &expected_text(scheme),
            "streaming fold",
            &scheme_fixture(scheme),
        );
    }
}

/// The campaign executor's sharded fold — worker-local accumulators
/// merged in chunk order — reproduces every fixture at 1, 2,
/// and 8 workers.
#[test]
fn merged_shard_accumulators_match_golden_vectors() {
    for scheme in Scheme::ALL {
        let protocol = protocol();
        let circuit = SboxCircuit::build(scheme);
        let sim = Simulator::new(circuit.netlist(), &protocol.sim);
        let schedule = classified_schedule(&circuit, &protocol);
        let expected = expected_text(scheme);
        for workers in [1usize, 2, 8] {
            let policy = ExecPolicy {
                workers,
                max_retries: 0,
                faults: FaultPlan::none(),
                ..ExecPolicy::default()
            };
            let make =
                || SpectrumAccumulator::new(NUM_CLASSES, protocol.sampling.samples, SumMode::Exact);
            let (acc, report) = fold_schedule_into(
                &sim,
                &schedule,
                &protocol.sampling,
                protocol.seed,
                &policy,
                ResumeState::default(),
                &make,
                None,
            );
            assert!(report.quarantined.is_empty());
            let text = render(scheme, &protocol, &acc.class_means());
            assert_same(
                &text,
                &expected,
                &format!("{workers}-worker merged fold"),
                &scheme_fixture(scheme),
            );
        }
    }
}

/// Render the raw-capture fixture: sixteen noisy ISW captures (one
/// stimulus RNG across all steps, noise seeded by the step, the class
/// `step → 5·step + 3 mod 16`), then every scheme's class 0 → 9
/// transition.
fn raw_capture_text() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden raw captures: ISW process_sigma=0.08 noise_mw=0.02, \
         stimuli seed 0xb00, noise seed = step; transitions 0 -> 9 at seed 42"
    );
    let _ = writeln!(
        out,
        "# values are f64 bit patterns (hex); regenerate with SCA_BLESS=1"
    );
    let circuit = SboxCircuit::build(Scheme::Isw);
    let cfg = SimConfig {
        process_sigma: 0.08,
        noise_mw: 0.02,
        ..SimConfig::default()
    };
    let sim = Simulator::new(circuit.netlist(), &cfg);
    let sampling = SamplingConfig::default();
    let mut session = sim.session();
    let mut rng = SmallRng::seed_from_u64(0xB00);
    let mut trace = Vec::new();
    for step in 0u64..16 {
        let initial = circuit.encoding().encode((step % 16) as u8, &mut rng);
        let final_inputs = circuit
            .encoding()
            .encode(((step * 5 + 3) % 16) as u8, &mut rng);
        let mut noise = SmallRng::seed_from_u64(step);
        let stats =
            session.capture_into(&initial, &final_inputs, &sampling, &mut noise, &mut trace);
        let _ = writeln!(
            out,
            "capture {step} events {} full {} absorbed {} settle {}",
            stats.events,
            stats.full_transitions,
            stats.absorbed_glitches,
            hex(stats.settle_time_ps)
        );
        let _ = write!(out, "samples {step}");
        for &v in &trace {
            let _ = write!(out, " {}", hex(v));
        }
        out.push('\n');
    }
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
        let mut rng = SmallRng::seed_from_u64(42);
        let initial = circuit.encoding().encode(0, &mut rng);
        let final_inputs = circuit.encoding().encode(9, &mut rng);
        let record = sim.session().transition(&initial, &final_inputs);
        let mut digest = Digest::new();
        for e in &record.events {
            digest
                .u64(e.gate.index() as u64)
                .f64(e.time_ps)
                .u64(u64::from(e.rising))
                .f64(e.energy_fj)
                .u64(u64::from(e.absorbed));
        }
        digest.u64(record.settled.len() as u64);
        for &bit in &record.settled {
            digest.u64(u64::from(bit));
        }
        let _ = writeln!(
            out,
            "transition {} events {} digest {:016x}",
            scheme.label(),
            record.events.len(),
            digest.finish()
        );
    }
    out
}

/// The event engine reproduces the committed raw captures and
/// transitions bit for bit.
#[test]
fn raw_captures_match_golden_vectors() {
    bless_or_check("raw_capture", &raw_capture_text(), "raw capture");
}
