//! Measured capture-throughput comparison → `BENCH_capture.json`.
//!
//! Runs the same single-threaded trace schedule (the acquisition
//! protocol's classified schedule on the ISW netlist) through four
//! capture paths and reports traces/sec and events/sec for each:
//!
//! * `legacy` — the frozen pre-rework engine (`BinaryHeap` queue,
//!   per-call scratch allocation, full-buffer waveform indexing);
//! * `alloc_per_capture` — a fresh [`gatesim::CaptureSession`] and a
//!   fresh trace `Vec` per capture (`sim.session()` + `capture_into`).
//!   Sessions borrow the netlist the `Simulator` compiled once, so
//!   this leg measures per-call scratch allocation only;
//! * `session_reuse` — one [`gatesim::CaptureSession`] reused across the
//!   whole schedule, as the campaign executor holds per worker, with a
//!   fresh owned trace `Vec` per capture (the executor's pattern);
//! * `session_capture_into` — the same session rendering into one
//!   reused sample buffer (no per-trace allocation at all);
//! * `streaming_fold_exact` — the `session_capture_into` path with
//!   each trace folded straight into the chunk grid ([`leakage_core::ChunkFold`] over a
//!   [`leakage_core::SpectrumAccumulator`], the campaign's
//!   bounded-memory analysis mode), so the delta over
//!   `session_capture_into` is the pure cost of the fold;
//! * `bitsliced_batch` — the levelized [`gatesim::BitslicedSession`]
//!   capturing the schedule in [`gatesim::LANES`]-trace batches, 64
//!   traces per machine word. The whole batch is simulated on the first
//!   per-trace call of each pass and per-trace stats are served from it,
//!   so the pass wall-clock (and therefore the throughput ratio against
//!   `session_capture_into`) is directly comparable;
//! * `bitsliced_fold_exact` — the `bitsliced_batch` capture with every
//!   lane's trace folded, in schedule order, into an exact
//!   [`leakage_core::ChunkFold`], as the campaign's bit-sliced streaming
//!   runs do. Its ratio to `bitsliced_batch` is the share of raw
//!   bit-sliced capture throughput the exact fold keeps. Before timing,
//!   its folded state is checked bit-equal to the event engine's exact
//!   fold of the same schedule.
//!
//! All capture paths produce bit-identical traces (asserted here on the
//! first pass and in `sca_bench::legacy`'s tests), so the ratios are
//! pure engine cost; the streaming leg additionally asserts, once per
//! pass, that the folded spectrum matches the batch analysis bit for
//! bit. Every ratio looks its legs up by name. Usage:
//!
//! ```text
//! cargo run --release -p sca-bench --bin capture_bench [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use acquisition::{classified_schedule, trace_seed, ProtocolConfig, Stimulus, NUM_CLASSES};
use gatesim::{CaptureStats, LaneStimulus, SamplingConfig, Simulator, LANES};
use leakage_core::{ChunkFold, ClassifiedTraces, LeakageSpectrum, SpectrumAccumulator, SumMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};
use sca_bench::legacy::legacy_capture_with_rng_stats;

struct Leg {
    name: &'static str,
    seconds: f64,
    traces: usize,
    events: usize,
}

impl Leg {
    fn traces_per_sec(&self) -> f64 {
        self.traces as f64 / self.seconds
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.seconds
    }
}

/// A capture path under measurement: (stimulus, noise seed) → stats.
type CaptureFn<'s> = Box<dyn FnMut(&Stimulus, u64) -> CaptureStats + 's>;

/// One capture path under measurement.
struct Runner<'s> {
    name: &'static str,
    capture: CaptureFn<'s>,
}

/// Time every runner over the schedule, `passes` times each,
/// round-robin (leg A pass 1, leg B pass 1, …, leg A pass 2, …) so CPU
/// warm-up and frequency drift hit all legs equally instead of biasing
/// whichever leg runs first.
fn measure(schedule: &[(Stimulus, u64)], passes: usize, mut runners: Vec<Runner<'_>>) -> Vec<Leg> {
    // Warmup pass per leg: fault in allocations and caches.
    for r in &mut runners {
        let mut events = 0usize;
        for (s, seed) in schedule {
            events += (r.capture)(s, *seed).events;
        }
        let _ = events;
    }

    let mut seconds = vec![0.0f64; runners.len()];
    let mut events = vec![0usize; runners.len()];
    for _ in 0..passes {
        for (i, r) in runners.iter_mut().enumerate() {
            let start = Instant::now();
            for (s, seed) in schedule {
                events[i] += (r.capture)(s, *seed).events;
            }
            seconds[i] += start.elapsed().as_secs_f64();
        }
    }
    runners
        .iter()
        .enumerate()
        .map(|(i, r)| Leg {
            name: r.name,
            seconds: seconds[i],
            traces: passes * schedule.len(),
            events: events[i],
        })
        .collect()
}

/// One bit-sliced batch's lane stimuli for a chunk of the schedule.
fn lanes(chunk: &[(Stimulus, u64)]) -> Vec<LaneStimulus<'_>> {
    chunk
        .iter()
        .map(|(s, seed)| LaneStimulus {
            initial: &s.initial,
            final_inputs: &s.final_inputs,
            noise_seed: *seed,
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
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
        .unwrap_or_else(|| "BENCH_capture.json".into());

    let protocol = ProtocolConfig {
        traces_per_class: if quick { 4 } else { 64 },
        ..ProtocolConfig::default()
    };
    let passes = if quick { 1 } else { 16 };
    let circuit = SboxCircuit::build(Scheme::Isw);
    let sim = Simulator::new(circuit.netlist(), &protocol.sim);
    let sampling: SamplingConfig = protocol.sampling;
    let schedule: Vec<(Stimulus, u64)> = classified_schedule(&circuit, &protocol)
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, trace_seed(protocol.seed, i as u64)))
        .collect();
    eprintln!(
        "capture_bench: {} gates, {} traces/pass x {passes} passes{}",
        circuit.netlist().gates().len(),
        schedule.len(),
        if quick { " (quick)" } else { "" },
    );

    // Sanity: all four paths agree on the first stimulus before timing.
    {
        let (s, seed) = &schedule[0];
        let mut r = SmallRng::seed_from_u64(*seed);
        let reference =
            legacy_capture_with_rng_stats(&sim, &s.initial, &s.final_inputs, &sampling, &mut r).0;
        let mut r = SmallRng::seed_from_u64(*seed);
        let mut via_session = Vec::new();
        sim.session().capture_into(
            &s.initial,
            &s.final_inputs,
            &sampling,
            &mut r,
            &mut via_session,
        );
        assert_eq!(reference, via_session, "legacy and session paths diverge");
    }

    // References captured once on the event engine: the batch analysis,
    // which the streaming leg's folded spectrum must reproduce bitwise
    // once per pass, and the exact fold of the schedule, which the
    // bit-sliced fold leg must reproduce bit for bit before it is timed.
    let (batch_tlp, event_fold) = {
        let mut session = sim.session();
        let mut buf = Vec::new();
        let mut set = ClassifiedTraces::new(NUM_CLASSES, sampling.samples);
        let mut fold = ChunkFold::new(SpectrumAccumulator::new(
            NUM_CLASSES,
            sampling.samples,
            SumMode::Exact,
        ));
        for (s, seed) in &schedule {
            let mut rng = SmallRng::seed_from_u64(*seed);
            session.capture_into(&s.initial, &s.final_inputs, &sampling, &mut rng, &mut buf);
            set.push(usize::from(s.label), buf.clone());
            fold.fold(s.label, &buf);
        }
        let tlp = LeakageSpectrum::from_class_means(&set.class_means()).total_leakage_power();
        (tlp, fold.finish())
    };

    let schedule_len = schedule.len() as u64;
    let mut session_a = sim.session();
    let mut session_b = sim.session();
    let mut buf = Vec::new();

    // Capture into a reused buffer, fold into the online accumulator,
    // and check the finished spectrum against the batch analysis each
    // time a full pass has been folded.
    let streaming_runner = {
        let mut session = sim.session();
        let mut buf = Vec::new();
        let empty = SpectrumAccumulator::new(NUM_CLASSES, sampling.samples, SumMode::Exact);
        let mut fold = ChunkFold::new(empty.clone());
        let mut folded = 0u64;
        Runner {
            name: "streaming_fold_exact",
            capture: Box::new(move |s: &Stimulus, seed: u64| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let stats = session.capture_into(
                    &s.initial,
                    &s.final_inputs,
                    &sampling,
                    &mut rng,
                    &mut buf,
                );
                fold.fold(s.label, &buf);
                folded += 1;
                if folded == schedule_len {
                    folded = 0;
                    let done = std::mem::replace(&mut fold, ChunkFold::new(empty.clone()));
                    let tlp = done.finish().spectrum().total_leakage_power();
                    assert_eq!(
                        tlp, batch_tlp,
                        "exact streamed fold diverged from batch analysis"
                    );
                }
                stats
            }),
        }
    };
    // The bit-sliced leg batches LANES stimuli per engine pass; the
    // per-trace Runner contract is kept by simulating the whole
    // schedule on the first call of a pass and serving each trace's
    // stats from the batch. Sanity: the batch traces are bit-identical
    // to the scalar session path (the full equivalence matrix lives in
    // the gatesim/campaign test suites).
    let bitsliced_runner = {
        let mut session = sim
            .bitsliced_session()
            .expect("ISW netlist is bitslice-supported");
        {
            let mut scalar = sim.session();
            let mut buf = Vec::new();
            let (s, seed) = &schedule[0];
            let lane = LaneStimulus {
                initial: &s.initial,
                final_inputs: &s.final_inputs,
                noise_seed: *seed,
            };
            let (traces, _) = session.capture_batch(std::slice::from_ref(&lane), &sampling);
            let batch_trace = traces[0].clone();
            let mut rng = SmallRng::seed_from_u64(*seed);
            scalar.capture_into(&s.initial, &s.final_inputs, &sampling, &mut rng, &mut buf);
            assert_eq!(batch_trace, buf, "bitsliced and scalar paths diverge");
        }
        let schedule_ref: &[(Stimulus, u64)] = &schedule;
        let mut stats: Vec<CaptureStats> = Vec::new();
        let mut at = 0usize;
        Runner {
            name: "bitsliced_batch",
            capture: Box::new(move |_s, _seed| {
                if at == 0 {
                    stats.clear();
                    for chunk in schedule_ref.chunks(LANES) {
                        let (_, batch_stats) = session.capture_batch(&lanes(chunk), &sampling);
                        stats.extend_from_slice(batch_stats);
                    }
                }
                let out = stats[at];
                at = (at + 1) % schedule_ref.len();
                out
            }),
        }
    };
    // Bit-sliced capture folded straight into the exact chunk grid: the
    // whole pass runs on the first call, like `bitsliced_batch`.
    let bitsliced_fold_runner = {
        let mut session = sim
            .bitsliced_session()
            .expect("ISW netlist is bitslice-supported");
        let schedule_ref: &[(Stimulus, u64)] = &schedule;
        let empty = SpectrumAccumulator::new(NUM_CLASSES, sampling.samples, SumMode::Exact);
        let mut fold_pass = move |stats: &mut Vec<CaptureStats>| {
            stats.clear();
            let mut fold = ChunkFold::new(empty.clone());
            for chunk in schedule_ref.chunks(LANES) {
                let (traces, batch_stats) = session.capture_batch(&lanes(chunk), &sampling);
                for ((s, _), trace) in chunk.iter().zip(traces) {
                    fold.fold(s.label, trace);
                }
                stats.extend_from_slice(batch_stats);
            }
            fold.finish()
        };
        let mut stats: Vec<CaptureStats> = Vec::new();
        assert!(
            fold_pass(&mut stats) == event_fold,
            "bit-sliced exact fold diverged from the event engine's exact fold"
        );
        let mut at = 0usize;
        Runner {
            name: "bitsliced_fold_exact",
            capture: Box::new(move |_s, _seed| {
                if at == 0 {
                    std::hint::black_box(fold_pass(&mut stats));
                }
                let out = stats[at];
                at = (at + 1) % schedule_ref.len();
                out
            }),
        }
    };
    let legs = measure(
        &schedule,
        passes,
        vec![
            Runner {
                name: "legacy",
                capture: Box::new(|s, seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    legacy_capture_with_rng_stats(
                        &sim,
                        &s.initial,
                        &s.final_inputs,
                        &sampling,
                        &mut rng,
                    )
                    .1
                }),
            },
            Runner {
                name: "alloc_per_capture",
                capture: Box::new(|s, seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut trace = Vec::new();
                    sim.session().capture_into(
                        &s.initial,
                        &s.final_inputs,
                        &sampling,
                        &mut rng,
                        &mut trace,
                    )
                }),
            },
            Runner {
                name: "session_reuse",
                capture: Box::new(move |s, seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut trace = Vec::new();
                    session_a.capture_into(
                        &s.initial,
                        &s.final_inputs,
                        &sampling,
                        &mut rng,
                        &mut trace,
                    )
                }),
            },
            Runner {
                name: "session_capture_into",
                capture: Box::new(move |s, seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    session_b.capture_into(
                        &s.initial,
                        &s.final_inputs,
                        &sampling,
                        &mut rng,
                        &mut buf,
                    )
                }),
            },
            streaming_runner,
            bitsliced_runner,
            bitsliced_fold_runner,
        ],
    );
    for leg in &legs {
        eprintln!(
            "  {:<22} {:>9.0} traces/s  {:>11.0} events/s  ({:.3}s)",
            leg.name,
            leg.traces_per_sec(),
            leg.events_per_sec(),
            leg.seconds,
        );
    }
    // Throughput of leg `a` over leg `b`.
    let ratio = |a: &str, b: &str| {
        let rate = |name: &str| {
            legs.iter()
                .find(|leg| leg.name == name)
                .unwrap_or_else(|| panic!("no leg named {name}"))
                .traces_per_sec()
        };
        rate(a) / rate(b)
    };
    let vs_legacy = ratio("session_reuse", "legacy");
    let vs_alloc = ratio("session_reuse", "alloc_per_capture");
    eprintln!("  session_reuse speedup: {vs_legacy:.2}x vs legacy, {vs_alloc:.2}x vs alloc");
    let stream_exact_vs_batch = ratio("streaming_fold_exact", "session_capture_into");
    eprintln!("  streaming fold throughput: {stream_exact_vs_batch:.3}x session_capture_into");
    let bitsliced_vs_session_into = ratio("bitsliced_batch", "session_capture_into");
    eprintln!("  bitsliced_batch speedup: {bitsliced_vs_session_into:.2}x vs session_capture_into");
    let bitsliced_fold_vs_batch = ratio("bitsliced_fold_exact", "bitsliced_batch");
    eprintln!("  bitsliced_fold_exact throughput: {bitsliced_fold_vs_batch:.3}x bitsliced_batch");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"capture_throughput\",");
    let _ = writeln!(json, "  \"netlist\": \"isw\",");
    let _ = writeln!(json, "  \"gates\": {},", circuit.netlist().gates().len());
    let _ = writeln!(json, "  \"samples_per_trace\": {},", sampling.samples);
    let _ = writeln!(json, "  \"traces_per_pass\": {},", schedule.len());
    let _ = writeln!(json, "  \"passes\": {passes},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"legs\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"seconds\": {}, \"traces\": {}, \"events\": {}, \"traces_per_sec\": {}, \"events_per_sec\": {}}}{}",
            leg.name,
            json_f64(leg.seconds),
            leg.traces,
            leg.events,
            json_f64(leg.traces_per_sec()),
            json_f64(leg.events_per_sec()),
            if i + 1 < legs.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_session_vs_legacy\": {},",
        json_f64(vs_legacy)
    );
    let _ = writeln!(
        json,
        "  \"speedup_session_vs_alloc\": {},",
        json_f64(vs_alloc)
    );
    let _ = writeln!(
        json,
        "  \"throughput_streaming_exact_vs_batch\": {},",
        json_f64(stream_exact_vs_batch)
    );
    let _ = writeln!(
        json,
        "  \"speedup_bitsliced_vs_session_into\": {},",
        json_f64(bitsliced_vs_session_into)
    );
    let _ = writeln!(
        json,
        "  \"throughput_bitsliced_fold_exact_vs_batch\": {}",
        json_f64(bitsliced_fold_vs_batch)
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_capture.json");
    eprintln!("wrote {out_path}");
}
