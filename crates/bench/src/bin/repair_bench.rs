//! Measured incremental-vs-from-scratch re-analysis throughput for the
//! repair loop → `BENCH_repair.json`.
//!
//! The repair searcher's inner loop re-verifies one patched netlist per
//! candidate. This bench builds the TI subject's [`sca_verify::Baseline`]
//! once, generates the searcher's real first-round candidate patches,
//! and times two legs over the same candidates:
//!
//! * `full_reanalysis` — [`sca_verify::analyze_subject`], the
//!   from-scratch path that re-derives every gate statistic;
//! * `incremental_reanalysis` — [`sca_verify::Baseline::reanalyze`],
//!   the cone-scoped path that recomputes only statistics downstream of
//!   the edit.
//!
//! Every candidate's incremental report is asserted byte-identical to
//! its from-scratch report before anything is timed, so the ratio is
//! pure cost, not approximation — and the run fails unless the
//! incremental path is at least [`SPEEDUP_FLOOR`]× faster. Usage:
//!
//! ```text
//! cargo run --release -p sca-bench --bin repair_bench [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use sbox_circuits::{SboxCircuit, Scheme};
use sca_bench::json_f64;
use sca_repair::patch::generate;
use sca_verify::{analyze_subject, report, Baseline, Subject};

/// Minimum accepted `full / incremental` wall-clock ratio. The repair
/// loop's viability rests on cone-scoped re-analysis being an order
/// cheaper than re-deriving the whole netlist; 5× is the floor the
/// roadmap pins, measured on the 922-gate TI subject.
const SPEEDUP_FLOOR: f64 = 5.0;

struct Leg {
    name: String,
    seconds: f64,
    reanalyses: usize,
}

impl Leg {
    fn per_sec(&self) -> f64 {
        self.reanalyses as f64 / self.seconds
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_repair.json".into());
    let passes = if quick { 2 } else { 8 };

    let subject = Subject::of_circuit(&SboxCircuit::build(Scheme::Ti));
    let baseline = Baseline::new(subject.clone());
    let base_analysis = baseline.base_analysis();
    let generated = generate(baseline.subject(), &base_analysis);
    let candidates: Vec<Subject> = generated.patches.into_iter().map(|p| p.subject).collect();
    assert!(
        !candidates.is_empty(),
        "TI must yield first-round repair candidates"
    );
    eprintln!(
        "repair_bench: {} gates, {} candidate patches, {passes} passes/leg{}",
        subject.netlist().gates().len(),
        candidates.len(),
        if quick { " (quick)" } else { "" },
    );

    // Sanity: on every candidate the cone-scoped path must reproduce the
    // from-scratch report byte-for-byte before anything is timed.
    let mut dirty_gates = 0usize;
    let mut total_gates = 0usize;
    for cand in &candidates {
        let fresh = analyze_subject(cand);
        let (incr, effort) = baseline.reanalyze(cand);
        assert_eq!(
            report::json(&fresh),
            report::json(&incr),
            "incremental report diverged from from-scratch"
        );
        dirty_gates += effort.dirty_gates;
        total_gates += effort.total_gates;
    }

    let mut legs = [
        Leg {
            name: "full_reanalysis".into(),
            seconds: 0.0,
            reanalyses: passes * candidates.len(),
        },
        Leg {
            name: "incremental_reanalysis".into(),
            seconds: 0.0,
            reanalyses: passes * candidates.len(),
        },
    ];
    // Round-robin so warm-up and frequency drift hit both legs equally.
    for _ in 0..passes {
        let start = Instant::now();
        for cand in &candidates {
            std::hint::black_box(analyze_subject(cand));
        }
        legs[0].seconds += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for cand in &candidates {
            std::hint::black_box(baseline.reanalyze(cand));
        }
        legs[1].seconds += start.elapsed().as_secs_f64();
    }

    for leg in &legs {
        eprintln!(
            "  {:<24} {:>10.1} reanalyses/s  ({:.3}s)",
            leg.name,
            leg.per_sec(),
            leg.seconds,
        );
    }
    let speedup = legs[0].seconds / legs[1].seconds;
    eprintln!("  incremental speedup {speedup:.1}x (dirty {dirty_gates}/{total_gates} gate stats)");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"repair_reanalysis\",");
    let _ = writeln!(json, "  \"netlist\": \"ti\",");
    let _ = writeln!(json, "  \"gates\": {},", subject.netlist().gates().len());
    let _ = writeln!(json, "  \"candidates\": {},", candidates.len());
    let _ = writeln!(json, "  \"passes\": {passes},");
    let _ = writeln!(json, "  \"dirty_gate_stats\": {dirty_gates},");
    let _ = writeln!(json, "  \"total_gate_stats\": {total_gates},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"legs\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"seconds\": {}, \"reanalyses\": {}, \"reanalyses_per_sec\": {}}}{}",
            leg.name,
            json_f64(leg.seconds),
            leg.reanalyses,
            json_f64(leg.per_sec()),
            if i + 1 < legs.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup\": {}", json_f64(speedup));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_repair.json");
    eprintln!("wrote {out_path}");

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "incremental re-analysis speedup {speedup:.1}x fell below the {SPEEDUP_FLOOR}x floor"
    );
}
