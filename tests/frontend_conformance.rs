//! Import conformance suite for the external netlist frontend.
//!
//! The contract under test: a design that leaves the workspace through
//! `to_yosys_json` / `to_edif` and comes back through `import_str` is
//! *the same design* — not approximately, but bit for bit. For every
//! one of the seven schemes this suite pins:
//!
//! - structural identity of the re-imported netlist (gate count,
//!   topology, per-gate delays) through both exchange formats,
//! - bit-identical captures on both capture backends (event-driven and
//!   bit-sliced levelized) under the small fixture protocol,
//! - byte-identical `sca-verify` reports (JSON and human renderings),
//! - campaign cache keying by imported-netlist content hash, so an
//!   unchanged import re-acquires from the trace store.
//!
//! Bundled exchange fixtures live under `tests/fixtures/frontend/`:
//! the seven schemes re-exported through the frontend (Yosys JSON,
//! EDIF, and the encoding sidecar), the full 64-bit PRESENT
//! substitution layer, a plain AES S-box, and hand-written "foreign"
//! netlists using NANGATE liberty names and Yosys `$_..._` internal
//! gates. Diagnostic renderings are pinned under
//! `tests/golden/frontend/`.
//!
//! Regenerate the generated fixtures and goldens after an intentional
//! format change with:
//!
//! ```text
//! SCA_BLESS=1 cargo test --test frontend_conformance
//! ```
//!
//! and review the diff like any other code change.

mod support;

use std::fmt::Write as _;
use std::path::PathBuf;

use sbox_leakage::acquisition::ProtocolConfig;
use sbox_leakage::analysis::LeakageSpectrum;
use sbox_leakage::campaign::{
    AttackPlan, Backend, CacheMode, Campaign, CampaignConfig, Distinguisher, DistinguisherReport,
    LeakageModel, Subject,
};
use sbox_leakage::circuits::{SboxCircuit, Scheme};
use sbox_leakage::frontend::{
    self, import_auto, import_str, netlist_digest, sidecar_json, sidecar_toml, structural_diff,
    to_edif, to_yosys_json, EncodingSidecar, FrontendError, SourceFormat,
};
use sbox_leakage::verify;

/// The fixed fixture protocol: 2 traces per class, 10 samples, the
/// default seed — same shape as the spectral golden suite.
fn protocol() -> ProtocolConfig {
    let mut p = ProtocolConfig {
        traces_per_class: 2,
        ..ProtocolConfig::default()
    };
    p.sampling.samples = 10;
    p
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frontend")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend")
}

fn blessing() -> bool {
    std::env::var("SCA_BLESS").is_ok_and(|v| v == "1")
}

fn scheme_slug(scheme: Scheme) -> String {
    scheme.label().to_lowercase().replace('-', "_")
}

/// Re-import a scheme through one exchange format and bind it with its
/// ground-truth sidecar, panicking with the diagnostic on any failure.
fn reimport(scheme: Scheme, format: SourceFormat) -> SboxCircuit {
    let native = SboxCircuit::build(scheme);
    let text = match format {
        SourceFormat::YosysJson => to_yosys_json(native.netlist()),
        SourceFormat::Edif => to_edif(native.netlist()),
    };
    let design = import_str(&text, format)
        .unwrap_or_else(|e| panic!("{} re-import failed for {}: {e}", format, scheme.label()));
    assert!(
        design.warnings.is_empty(),
        "{} re-import of {} warned: {:?}",
        format,
        scheme.label(),
        design.warnings
    );
    let sidecar = EncodingSidecar::parse(&sidecar_toml(&native))
        .unwrap_or_else(|e| panic!("sidecar parse failed for {}: {e}", scheme.label()));
    sidecar
        .bind(design.netlist)
        .unwrap_or_else(|e| panic!("sidecar bind failed for {}: {e}", scheme.label()))
}

/// Assert two trace sets carry bit-identical samples (stricter than
/// `PartialEq`, which would let `-0.0 == 0.0` slip through).
fn assert_traces_bit_identical(
    native: &sbox_leakage::analysis::ClassifiedTraces,
    imported: &sbox_leakage::analysis::ClassifiedTraces,
    scheme: Scheme,
    backend: &str,
) {
    assert_eq!(
        native.len(),
        imported.len(),
        "{backend} trace count differs for {}",
        scheme.label()
    );
    for (i, ((ca, ta), (cb, tb))) in native.iter().zip(imported.iter()).enumerate() {
        assert_eq!(ca, cb, "{backend} class differs at trace {i}");
        assert_eq!(ta.len(), tb.len(), "{backend} samples differ at trace {i}");
        for (t, (a, b)) in ta.iter().zip(tb.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{backend} capture of {} diverges at trace {i} sample {t}: {a} vs {b}",
                scheme.label()
            );
        }
    }
}

/// Every scheme survives the Yosys-JSON round trip with an identical
/// structure: same gates, same wiring, same delays, same digest.
#[test]
fn yosys_round_trip_is_structurally_identical() {
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let imported = reimport(scheme, SourceFormat::YosysJson);
        if let Some(diff) = structural_diff(native.netlist(), imported.netlist()) {
            panic!(
                "yosys-json round trip of {} differs: {diff}",
                scheme.label()
            );
        }
        assert_eq!(
            netlist_digest(native.netlist()),
            netlist_digest(imported.netlist()),
            "content digest differs for {}",
            scheme.label()
        );
    }
}

/// Every scheme survives the EDIF round trip structurally identical.
#[test]
fn edif_round_trip_is_structurally_identical() {
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let imported = reimport(scheme, SourceFormat::Edif);
        if let Some(diff) = structural_diff(native.netlist(), imported.netlist()) {
            panic!("edif round trip of {} differs: {diff}", scheme.label());
        }
    }
}

/// Captures of a re-imported design are bit-identical to native on the
/// event-driven backend.
#[test]
fn reimported_captures_are_bit_identical_event_backend() {
    let protocol = protocol();
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let imported = reimport(scheme, SourceFormat::YosysJson);
        let a = support::acquire(&native, &protocol);
        let b = support::acquire(&imported, &protocol);
        assert_traces_bit_identical(&a, &b, scheme, "event");
    }
}

/// Captures of a re-imported design are bit-identical to native on the
/// bit-sliced levelized backend — and a scheme the bit-sliced backend
/// rejects natively is rejected after import too, so a `Bitsliced`
/// campaign degrades both to the event engine alike.
#[test]
fn reimported_captures_are_bit_identical_bitsliced_backend() {
    let dir = std::env::temp_dir().join(format!("sbox-leakage-fc-{}-bits", std::process::id()));
    let mut campaign = Campaign::new(CampaignConfig {
        protocol: protocol(),
        cache: CacheMode::Off,
        store_dir: dir.join("traces"),
        log_path: dir.join("runs.jsonl"),
        backend: Backend::Bitsliced,
        ..CampaignConfig::default()
    });
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let imported = reimport(scheme, SourceFormat::YosysJson);
        let mut capture = |circuit: &SboxCircuit| {
            let subject = Subject::Imported {
                circuit,
                label: scheme.label(),
            };
            let traces = campaign.acquire_aged(subject, 0.0).traces;
            let report = campaign.log().reports().last().expect("one run logged");
            (traces, report.backend)
        };
        let (a, native_engine) = capture(&native);
        let (b, import_engine) = capture(&imported);
        assert_eq!(
            native_engine,
            import_engine,
            "the bit-sliced support check must treat native and imported {} alike",
            scheme.label()
        );
        assert_eq!(
            import_engine,
            Some(Backend::Bitsliced),
            "{}",
            scheme.label()
        );
        assert_traces_bit_identical(&a, &b, scheme, "bitsliced");
    }
}

/// `sca-verify` renders byte-identical reports for native and
/// re-imported designs — the masking verdicts cannot tell them apart.
#[test]
fn reimported_verify_reports_are_byte_identical() {
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let imported = reimport(scheme, SourceFormat::YosysJson);
        let a = verify::analyze(&native);
        let b = verify::analyze(&imported);
        assert_eq!(
            verify::report::json(&a),
            verify::report::json(&b),
            "verify JSON report differs for {}",
            scheme.label()
        );
        assert_eq!(
            verify::report::human(&a),
            verify::report::human(&b),
            "verify human report differs for {}",
            scheme.label()
        );
    }
}

/// Campaign jobs key imported designs by content hash: the same import
/// acquired twice hits the trace store, and the cached traces match.
#[test]
fn campaign_keys_imported_designs_by_content_hash() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("frontend-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::new(CampaignConfig {
        protocol: protocol(),
        workers: 2,
        cache: CacheMode::ReadWrite,
        store_dir: dir.clone(),
        log_path: dir.join("runs.jsonl"),
        ..CampaignConfig::default()
    });
    let imported = reimport(Scheme::Opt, SourceFormat::YosysJson);
    let label = format!(
        "import-{}-{:016x}",
        imported.scheme().label().to_lowercase(),
        netlist_digest(imported.netlist())
    );
    let subject = Subject::Imported {
        circuit: &imported,
        label: &label,
    };
    let first = campaign.acquire_aged(subject, 0.0);
    let second = campaign.acquire_aged(subject, 0.0);
    assert!(!first.cache_hit, "first acquisition must simulate");
    assert!(second.cache_hit, "unchanged import must hit the store");
    assert_eq!(first.traces, second.traces);
    // The cached traces are the native captures: content addressing
    // keys the *circuit*, not where it came from.
    let native = support::acquire(
        &SboxCircuit::build(Scheme::Opt),
        &campaign.config().protocol,
    );
    assert_eq!(first.traces, native);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An imported ISW netlist runs the spectral and the attack pipeline
/// under its content label: streamed and batch spectra and every attack
/// score equal the native scheme's bit for bit, and a repeated cell is
/// served from the store.
#[test]
fn imported_designs_run_spectra_and_attacks_like_the_native_scheme() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("frontend-spectra-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make = |cache, streaming| {
        Campaign::new(CampaignConfig {
            protocol: protocol(),
            workers: 2,
            cache,
            store_dir: dir.clone(),
            log_path: dir.join("runs.jsonl"),
            streaming,
            ..CampaignConfig::default()
        })
    };
    let imported = reimport(Scheme::Isw, SourceFormat::YosysJson);
    let label = format!("import-isw-{:016x}", netlist_digest(imported.netlist()));
    let subject = Subject::Imported {
        circuit: &imported,
        label: &label,
    };
    let native = make(CacheMode::Off, false).acquire_spectrum_aged(Scheme::Isw, 0.0);
    let bits = |s: &LeakageSpectrum| -> Vec<u64> {
        (0..s.num_sources())
            .flat_map(|u| (0..s.samples()).map(move |t| (u, t)))
            .map(|(u, t)| s.coefficient(u, t).to_bits())
            .collect()
    };

    let mut streamed = make(CacheMode::Off, true);
    let got = streamed.acquire_spectrum_aged(subject, 0.0);
    assert!(got.streamed && !got.cache_hit);
    assert_eq!(bits(&got.spectrum), bits(&native.spectrum), "streamed");
    assert_eq!(got.class_counts, native.class_counts);

    let mut batch = make(CacheMode::ReadWrite, false);
    let first = batch.acquire_spectrum_aged(subject, 0.0);
    let second = batch.acquire_spectrum_aged(subject, 0.0);
    assert!(!first.cache_hit, "first call must simulate");
    assert!(second.cache_hit, "unchanged import must hit the store");
    assert_eq!(bits(&first.spectrum), bits(&native.spectrum), "batch");
    assert_eq!(bits(&second.spectrum), bits(&native.spectrum), "hit");
    let report = batch.log().reports().last().expect("hit logged");
    assert_eq!(report.implementation, label);

    // Attacks: a cold trial, then one served from the CPA store that
    // `acquire_cpa` writes under the same label.
    let plan = AttackPlan {
        key: 0x5,
        traces: 40,
        trials: 1,
        distinguishers: vec![
            Distinguisher::Cpa(LeakageModel::OutputTransition),
            Distinguisher::Mlpa,
        ],
        ..AttackPlan::default()
    };
    let want = make(CacheMode::Off, false).attack_aged(Scheme::Isw, 0.0, &plan);
    let cold = batch.attack_aged(subject, 0.0, &plan);
    batch.acquire_cpa(subject, plan.key, plan.traces);
    let warm = batch.attack_aged(subject, 0.0, &plan);
    assert_eq!((cold.cache_hits, warm.cache_hits), (0, 1));
    assert_eq!(warm.scheme, Scheme::Isw);
    for got in [&cold, &warm] {
        for (a, b) in want.reports.iter().zip(&got.reports) {
            let scores = |r: &DistinguisherReport| -> Vec<u64> {
                r.final_scores
                    .iter()
                    .flat_map(|s| s.scores.iter().map(|x| x.to_bits()))
                    .collect()
            };
            assert_eq!(scores(a), scores(b), "{}", a.distinguisher.label());
            assert_eq!(a.success_rate, b.success_rate);
        }
        assert_eq!(
            got.mean_total_leakage_power.to_bits(),
            want.mean_total_leakage_power.to_bits()
        );
    }
    let report = batch.log().reports().last().expect("hit logged");
    assert!(report.cache_hit);
    assert_eq!(report.implementation, label);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bundled exchange fixtures for every scheme (Yosys JSON, EDIF, and
/// the sidecar in both encodings) import back to the native structure.
/// Under `SCA_BLESS=1` the files are regenerated from the exporters.
#[test]
fn bundled_scheme_fixtures_import_to_native_structure() {
    let dir = fixture_dir();
    for scheme in Scheme::ALL {
        let native = SboxCircuit::build(scheme);
        let slug = scheme_slug(scheme);
        let files = [
            (
                format!("{slug}.yosys.json"),
                to_yosys_json(native.netlist()),
            ),
            (format!("{slug}.edif"), to_edif(native.netlist())),
            (format!("{slug}.sidecar.toml"), sidecar_toml(&native)),
            (format!("{slug}.sidecar.json"), sidecar_json(&native)),
        ];
        if blessing() {
            std::fs::create_dir_all(&dir).expect("fixture dir");
            for (name, text) in &files {
                std::fs::write(dir.join(name), text).expect("write fixture");
                eprintln!("blessed {}", dir.join(name).display());
            }
        }
        for (name, _) in &files {
            let path = dir.join(name);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "cannot read bundled fixture {} ({e}); bless it with \
                     `SCA_BLESS=1 cargo test --test frontend_conformance`",
                    path.display()
                )
            });
            if name.ends_with(".sidecar.toml") || name.ends_with(".sidecar.json") {
                let sidecar = EncodingSidecar::parse(&text)
                    .unwrap_or_else(|e| panic!("{name} no longer parses: {e}"));
                assert_eq!(sidecar.scheme(), scheme, "{name} declares the wrong scheme");
            } else {
                let design =
                    import_auto(&text).unwrap_or_else(|e| panic!("{name} no longer imports: {e}"));
                if let Some(diff) = structural_diff(native.netlist(), &design.netlist) {
                    panic!("bundled fixture {name} drifted from the native build: {diff}");
                }
            }
        }
    }
}

/// The non-scheme fixtures — the full 64-bit PRESENT substitution
/// layer and a plain AES S-box — round-trip through the frontend.
#[test]
fn bundled_cipher_fixtures_round_trip() {
    let dir = fixture_dir();
    let designs = [
        (
            "present_layer.yosys.json",
            frontend::fixtures::present_layer(),
        ),
        ("aes_sbox.yosys.json", frontend::fixtures::aes_sbox()),
    ];
    for (name, native) in &designs {
        if blessing() {
            std::fs::create_dir_all(&dir).expect("fixture dir");
            std::fs::write(dir.join(name), to_yosys_json(native)).expect("write fixture");
            eprintln!("blessed {}", dir.join(name).display());
        }
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read bundled fixture {} ({e}); bless it with \
                 `SCA_BLESS=1 cargo test --test frontend_conformance`",
                path.display()
            )
        });
        let design = import_str(&text, SourceFormat::YosysJson)
            .unwrap_or_else(|e| panic!("{name} no longer imports: {e}"));
        if let Some(diff) = structural_diff(native, &design.netlist) {
            panic!("bundled fixture {name} drifted from the generator: {diff}");
        }
        // And the re-export of the import matches the file exactly —
        // the exchange format is a fixed point.
        assert_eq!(
            to_yosys_json(&design.netlist),
            text,
            "{name} is not a fixed point of export ∘ import"
        );
    }
}

/// Hand-written foreign netlists — NANGATE liberty names with drive
/// suffixes, Yosys `$_..._` internal gates, compound AOI/MUX cells,
/// constant drivers, and a multi-bit port — all map onto the gate
/// library.
#[test]
fn foreign_fixtures_map_onto_the_gate_library() {
    let text = std::fs::read_to_string(fixture_dir().join("foreign_nangate.json"))
        .expect("bundled foreign_nangate.json");
    let design = import_str(&text, SourceFormat::YosysJson).expect("foreign NANGATE import");
    // AOI21 expands to AND2+NOR2, MUX2 to INV+2×AND2+OR2, the const-1
    // tie to an XNOR2 on an input net; the four plain gates stay 1:1.
    let stats = design.netlist.stats();
    assert_eq!(stats.num_inputs, 5, "x[4] bus plus the scalar select");
    assert_eq!(stats.num_outputs, 2);
    assert_eq!(stats.total_gates, 11);
    assert!(design.warnings.is_empty(), "{:?}", design.warnings);

    let text = std::fs::read_to_string(fixture_dir().join("foreign_yosys_gates.json"))
        .expect("bundled foreign_yosys_gates.json");
    let design = import_str(&text, SourceFormat::YosysJson).expect("yosys internal-gate import");
    let stats = design.netlist.stats();
    assert_eq!(stats.num_inputs, 3);
    assert_eq!(stats.num_outputs, 1);
    // $_NAND_ + $_NOR_ + $_XOR_ + $_NOT_ map 1:1; $_AOI3_ expands to 2.
    assert_eq!(stats.total_gates, 6);

    let text =
        std::fs::read_to_string(fixture_dir().join("foreign.edif")).expect("bundled foreign.edif");
    let design = import_str(&text, SourceFormat::Edif).expect("foreign EDIF import");
    let stats = design.netlist.stats();
    assert_eq!(stats.num_inputs, 2);
    assert_eq!(stats.num_outputs, 1);
    assert_eq!(stats.total_gates, 2, "NAND2 feeding INV");
    assert_eq!(design.netlist.name(), "renamed top");
}

/// Render one diagnostic case for the golden file.
fn diagnostic_line(name: &str, result: Result<(), FrontendError>) -> String {
    match result {
        Ok(()) => format!("{name}: ok"),
        Err(e) => format!("{name}: {e}"),
    }
}

/// Import diagnostics are part of the interface: their renderings are
/// pinned in `tests/golden/frontend/diagnostics.golden`.
#[test]
fn import_diagnostics_match_golden() {
    let cases: Vec<(&str, Result<(), FrontendError>)> = vec![
        (
            "truncated-json",
            import_str("{\"modules\": {\"m\": {\"po", SourceFormat::YosysJson).map(|_| ()),
        ),
        (
            "unknown-cell",
            import_str(
                r#"{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2]},
                    "y": {"direction": "output", "bits": [3]}},
                    "cells": {"g": {"type": "DFF_X1",
                    "connections": {"D": [2], "Q": [3]}}}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "width-mismatched-port",
            import_str(
                r#"{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2, 3]},
                    "y": {"direction": "output", "bits": [4]}},
                    "cells": {"g": {"type": "INV_X1",
                    "connections": {"A": [2, 3], "ZN": [4]}}}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "combinational-loop",
            import_str(
                r#"{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2]},
                    "y": {"direction": "output", "bits": [3]}},
                    "cells": {
                    "g0": {"type": "NAND2_X1", "connections": {"A1": [2], "A2": [4], "ZN": [3]}},
                    "g1": {"type": "INV_X1", "connections": {"A": [3], "ZN": [4]}}}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "dangling-net",
            import_str(
                r#"{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2]},
                    "y": {"direction": "output", "bits": [3]}},
                    "cells": {"g": {"type": "AND2_X1",
                    "connections": {"A1": [2], "A2": [9], "ZN": [3]}}}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "multiple-drivers",
            import_str(
                r#"{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2]},
                    "y": {"direction": "output", "bits": [3]}},
                    "cells": {
                    "g0": {"type": "INV_X1", "connections": {"A": [2], "ZN": [3]}},
                    "g1": {"type": "BUF_X1", "connections": {"A": [2], "Z": [3]}}}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "no-top-module",
            import_str(
                r#"{"modules": {"m1": {"ports": {}, "cells": {}},
                               "m2": {"ports": {}, "cells": {}}}}"#,
                SourceFormat::YosysJson,
            )
            .map(|_| ()),
        ),
        (
            "edif-unbalanced",
            import_str("(edif top (edifVersion 2 0 0)", SourceFormat::Edif).map(|_| ()),
        ),
        (
            "edif-bus-pin",
            import_str(
                r#"(edif top (edifVersion 2 0 0)
                     (library L (cell top (view v (viewType NETLIST)
                       (interface (port a (direction INPUT))
                                  (port y (direction OUTPUT)))
                       (contents
                         (instance g (viewRef v (cellRef INV_X1 (libraryRef N))))
                         (net n (joined (portRef (member a 0)) (portRef A (instanceRef g)))))))))"#,
                SourceFormat::Edif,
            )
            .map(|_| ()),
        ),
        (
            "sidecar-unknown-scheme",
            EncodingSidecar::parse("scheme = \"GROST\"\n").map(|_| ()),
        ),
        ("sidecar-role-mismatch", {
            let native = SboxCircuit::build(Scheme::Lut);
            let ours = sidecar_toml(&native);
            // Misdeclare the first input's role and try to bind.
            let broken = ours.replacen("share:0:0", "fresh", 1);
            EncodingSidecar::parse(&broken)
                .and_then(|s| s.bind(native.netlist().clone()))
                .map(|_| ())
        }),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# golden import diagnostics; regenerate with SCA_BLESS=1"
    );
    for (name, result) in cases {
        let _ = writeln!(text, "{}", diagnostic_line(name, result));
    }
    let path = golden_dir().join("diagnostics.golden");
    let expected = if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, &text).expect("write golden");
        eprintln!("blessed {}", path.display());
        text.clone()
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read golden fixture {} ({e}); bless it with \
                 `SCA_BLESS=1 cargo test --test frontend_conformance`",
                path.display()
            )
        })
    };
    if text != expected {
        for (i, (a, e)) in text.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "diagnostic rendering diverges at line {}", i + 1);
        }
        panic!(
            "diagnostic output has {} lines, golden has {}",
            text.lines().count(),
            expected.lines().count()
        );
    }
}
