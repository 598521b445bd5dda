//! Golden attack conformance: per-guess distinguisher scores, pinned
//! bit-for-bit.
//!
//! Each fixture under `tests/golden/attacks/` holds the 16 per-guess
//! scores and peak-sample indices of every distinguisher (CPA under the
//! transition model, single-bit DPA, MLPA) against one scheme's real
//! simulated CPA dataset (48 traces of 10 samples, the default seed,
//! key 0x9). Values are stored as the hex of `f64::to_bits`, so a
//! comparison failure is a *bitwise* regression — no tolerance.
//!
//! Three independent pipelines must reproduce every fixture exactly:
//! the batch fold ([`attack_batch`]), the sequential chunk-grid fold
//! ([`ChunkFold`]), and the campaign's sharded streaming attack at
//! 1, 2, and 8 workers (the acceptance bar for the attack engine's
//! merge invariance).
//!
//! Regenerate after an intentional scoring change with:
//!
//! ```text
//! SCA_BLESS=1 cargo test --test attack_conformance
//! ```
//!
//! and review the fixture diff like any other code change (see
//! `DESIGN.md`, "Streaming attack engine").

mod support;

use std::fmt::Write as _;
use std::path::PathBuf;

use sbox_leakage::acquisition::ProtocolConfig;
use sbox_leakage::analysis::{ChunkFold, SumMode};
use sbox_leakage::attacks::{
    attack_batch, AttackAccumulator, CpaResult, Distinguisher, LeakageModel,
};
use sbox_leakage::campaign::{AttackPlan, CacheMode, Campaign, CampaignConfig};
use sbox_leakage::circuits::{SboxCircuit, Scheme};
use support::acquire_cpa;

const KEY: u8 = 0x9;
const TRACES: usize = 48;
const SCHEMES: [Scheme; 3] = [Scheme::Lut, Scheme::Rsm, Scheme::Ti];

fn protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig::default();
    p.sampling.samples = 10;
    p
}

fn distinguishers() -> [Distinguisher; 3] {
    [
        Distinguisher::Cpa(LeakageModel::OutputTransition),
        Distinguisher::Dpa { bit: 0 },
        Distinguisher::Mlpa,
    ]
}

fn golden_path(scheme: Scheme) -> PathBuf {
    let name = scheme.label().to_lowercase().replace('-', "_");
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/attacks")
        .join(format!("{name}.golden"))
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Render one scheme's per-distinguisher scores in the fixture format.
fn render(scheme: Scheme, results: &[(Distinguisher, CpaResult)]) -> String {
    let p = protocol();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden attack scores: scheme={} traces={TRACES} samples={} seed={} key={KEY:#x}",
        scheme.label(),
        p.sampling.samples,
        p.seed,
    );
    let _ = writeln!(
        out,
        "# values are f64 bit patterns (hex); regenerate with SCA_BLESS=1"
    );
    for (d, r) in results {
        for g in 0..16 {
            let _ = writeln!(
                out,
                "score {} {g} {} {}",
                d.label(),
                hex(r.scores[g]),
                r.peak_samples[g]
            );
        }
        let _ = writeln!(out, "rank {} {}", d.label(), r.key_rank(KEY));
    }
    out
}

fn blessing() -> bool {
    std::env::var("SCA_BLESS").is_ok_and(|v| v == "1")
}

/// The batch pipeline's results — the source of truth the fixtures are
/// blessed from.
fn batch_results(scheme: Scheme) -> Vec<(Distinguisher, CpaResult)> {
    let circuit = SboxCircuit::build(scheme);
    let data = acquire_cpa(&circuit, &protocol(), KEY, TRACES);
    distinguishers()
        .into_iter()
        .map(|d| (d, attack_batch(&data.plaintexts, &data.traces, d).scores()))
        .collect()
}

fn expected_text(scheme: Scheme) -> String {
    if blessing() {
        return render(scheme, &batch_results(scheme));
    }
    let path = golden_path(scheme);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); bless it with \
             `SCA_BLESS=1 cargo test --test attack_conformance`",
            path.display()
        )
    })
}

/// Report the first differing line, not a string dump.
fn assert_same(actual: &str, expected: &str, what: &str, scheme: Scheme) {
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "{what} diverges from the golden vector for {} at line {}",
            scheme.label(),
            i + 1
        );
    }
    panic!(
        "{what} output for {} has {} lines, golden has {}",
        scheme.label(),
        actual.lines().count(),
        expected.lines().count()
    );
}

/// The batch attack reproduces (or blesses) every fixture.
#[test]
fn batch_attack_matches_golden_vectors() {
    for scheme in SCHEMES {
        let text = render(scheme, &batch_results(scheme));
        if blessing() {
            let path = golden_path(scheme);
            std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
            std::fs::write(&path, &text).expect("write golden");
            eprintln!("blessed {}", path.display());
        } else {
            assert_same(&text, &expected_text(scheme), "batch attack", scheme);
        }
    }
}

/// The one-trace-at-a-time chunk-grid stream reproduces
/// every fixture bit-for-bit.
#[test]
fn attack_stream_matches_golden_vectors() {
    for scheme in SCHEMES {
        let circuit = SboxCircuit::build(scheme);
        let data = acquire_cpa(&circuit, &protocol(), KEY, TRACES);
        let results: Vec<(Distinguisher, CpaResult)> = distinguishers()
            .into_iter()
            .map(|d| {
                let samples = protocol().sampling.samples;
                let mut fold = ChunkFold::new(AttackAccumulator::new(d, samples, SumMode::Exact));
                for (&p, t) in data.plaintexts.iter().zip(&data.traces) {
                    fold.fold(u16::from(p), t);
                }
                (d, fold.finish().scores())
            })
            .collect();
        let text = render(scheme, &results);
        assert_same(&text, &expected_text(scheme), "attack stream", scheme);
    }
}

/// The campaign's sharded streaming attack — worker-local joint states
/// merged in chunk order — reproduces every fixture at 1, 2,
/// and 8 workers.
#[test]
fn campaign_streamed_attack_matches_golden_vectors() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("attack-conformance-{}", std::process::id()));
    for scheme in SCHEMES {
        let expected = expected_text(scheme);
        for workers in [1usize, 2, 8] {
            let mut campaign = Campaign::new(CampaignConfig {
                protocol: protocol(),
                workers,
                cache: CacheMode::Off,
                store_dir: dir.clone(),
                log_path: dir.join("runs.jsonl"),
                ..CampaignConfig::default()
            });
            let plan = AttackPlan {
                key: KEY,
                traces: TRACES,
                trials: 1,
                distinguishers: distinguishers().to_vec(),
                sr_threshold: 0.8,
                mode: SumMode::Exact,
            };
            let outcome = campaign.attack_aged(scheme, 0.0, &plan);
            let results: Vec<(Distinguisher, CpaResult)> = outcome
                .reports
                .iter()
                .map(|r| (r.distinguisher, r.final_scores[0].clone()))
                .collect();
            let text = render(scheme, &results);
            assert_same(
                &text,
                &expected,
                &format!("{workers}-worker campaign attack"),
                scheme,
            );
        }
    }
}
