//! Measured attack-fold throughput comparison → `BENCH_attack.json`.
//!
//! Acquires one real CPA dataset (the unprotected LUT netlist), then
//! times every distinguisher through two scoring paths over the
//! in-memory traces, so the numbers are pure distinguisher cost with no
//! capture in the loop:
//!
//! * `batch_<d>` — [`sca_attacks::attack_batch`], the two-pass exact
//!   reference that holds the whole trace matrix;
//! * `stream_<d>` — [`leakage_core::ChunkFold`] over an
//!   [`sca_attacks::AttackAccumulator`], the campaign's bounded-memory
//!   chunk-grid fold, one trace at a time.
//!
//! The streamed scores are asserted bitwise-equal to the batch scores
//! once per leg before timing, so the ratio is cost, not approximation.
//! Usage:
//!
//! ```text
//! cargo run --release -p sca-bench --bin attack_bench [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use acquisition::{acquire_cpa, ProtocolConfig};
use leakage_core::{ChunkFold, SumMode};
use sbox_circuits::{SboxCircuit, Scheme};
use sca_attacks::{attack_batch, AttackAccumulator, Distinguisher, LeakageModel};
use sca_bench::json_f64;

struct Leg {
    name: String,
    seconds: f64,
    traces: usize,
}

impl Leg {
    fn traces_per_sec(&self) -> f64 {
        self.traces as f64 / self.seconds
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
        .unwrap_or_else(|| "BENCH_attack.json".into());

    let traces = if quick { 128 } else { 1024 };
    let passes = if quick { 2 } else { 16 };
    let protocol = ProtocolConfig::default();
    let circuit = SboxCircuit::build(Scheme::Lut);
    let data = acquire_cpa(&circuit, &protocol, 0xB, traces);
    let samples = protocol.sampling.samples;
    eprintln!(
        "attack_bench: {traces} traces x {samples} samples, {passes} passes/leg{}",
        if quick { " (quick)" } else { "" },
    );

    let distinguishers = [
        Distinguisher::Cpa(LeakageModel::OutputTransition),
        Distinguisher::Dpa { bit: 0 },
        Distinguisher::Mlpa,
    ];

    // Sanity per distinguisher: the streamed fold reproduces the batch
    // scores bit-for-bit before anything is timed.
    for d in distinguishers {
        let batch = attack_batch(&data.plaintexts, &data.traces, d).scores();
        let mut stream = ChunkFold::new(AttackAccumulator::new(d, samples, SumMode::Exact));
        for (&p, t) in data.plaintexts.iter().zip(&data.traces) {
            stream.fold(u16::from(p), t);
        }
        let streamed = stream.finish().scores();
        for g in 0..16 {
            assert_eq!(
                batch.scores[g].to_bits(),
                streamed.scores[g].to_bits(),
                "{} streamed fold diverged from batch at guess {g}",
                d.label()
            );
        }
    }

    // Round-robin over the legs so warm-up and frequency drift hit all
    // of them equally.
    let mut legs: Vec<Leg> = distinguishers
        .iter()
        .flat_map(|d| {
            [
                Leg {
                    name: format!("batch_{}", d.label()),
                    seconds: 0.0,
                    traces: passes * traces,
                },
                Leg {
                    name: format!("stream_{}", d.label()),
                    seconds: 0.0,
                    traces: passes * traces,
                },
            ]
        })
        .collect();
    for _ in 0..passes {
        for (i, d) in distinguishers.iter().enumerate() {
            let start = Instant::now();
            let r = attack_batch(&data.plaintexts, &data.traces, *d);
            legs[2 * i].seconds += start.elapsed().as_secs_f64();
            std::hint::black_box(r.scores());

            let start = Instant::now();
            let mut stream = ChunkFold::new(AttackAccumulator::new(*d, samples, SumMode::Exact));
            for (&p, t) in data.plaintexts.iter().zip(&data.traces) {
                stream.fold(u16::from(p), t);
            }
            legs[2 * i + 1].seconds += start.elapsed().as_secs_f64();
            std::hint::black_box(stream.finish().scores());
        }
    }

    for leg in &legs {
        eprintln!(
            "  {:<22} {:>10.0} traces/s  ({:.3}s)",
            leg.name,
            leg.traces_per_sec(),
            leg.seconds,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"attack_throughput\",");
    let _ = writeln!(json, "  \"netlist\": \"lut\",");
    let _ = writeln!(json, "  \"samples_per_trace\": {samples},");
    let _ = writeln!(json, "  \"traces_per_pass\": {traces},");
    let _ = writeln!(json, "  \"passes\": {passes},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"legs\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"seconds\": {}, \"traces\": {}, \"traces_per_sec\": {}}}{}",
            leg.name,
            json_f64(leg.seconds),
            leg.traces,
            json_f64(leg.traces_per_sec()),
            if i + 1 < legs.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_attack.json");
    eprintln!("wrote {out_path}");
}
