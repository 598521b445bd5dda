//! Measured capture-throughput comparison → `BENCH_capture.json`.
//!
//! Runs the same single-threaded trace schedule (the acquisition
//! protocol's classified schedule on the ISW netlist) through six
//! capture paths and reports traces/sec and events/sec for each:
//!
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
//! The `netlists` section then times `session_capture_into` against
//! `bitsliced_batch` alone on four more netlists, each with its own
//! `speedup_bitsliced_vs_session_into`: TI (the paper's largest
//! scheme), GLUT and RSM-ROM (the glitch-heavy ROM-style schemes, where
//! gates re-switch most inside their swing windows) on their classified
//! schedules, and the 64-bit PRESENT substitution layer
//! ([`sca_frontend::fixtures::present_layer`]) on seeded random input
//! pairs with the protocol's noise seeds.
//!
//! All capture paths produce bit-identical traces: before any netlist
//! is timed, every lane of its bit-sliced schedule is checked against
//! the event session's capture of the same stimulus, so the ratios are
//! pure engine cost; the streaming leg additionally asserts, once per
//! pass, that the folded spectrum matches the batch analysis bit for
//! bit. Every ratio is the median of its per-pass ratios (the passes
//! run round-robin, so pass `i` of each leg pairs up), written with
//! their min–max range next to it; each leg keeps its per-pass
//! seconds. A timed ISW pass captures its schedule [`ISW_REPEATS`]
//! times over: one 1,024-trace schedule takes only about 3 ms on the
//! bit-sliced engine (2-vCPU host), short enough for one scheduler
//! hiccup to move a pass ratio severalfold. Usage:
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
use rand::{Rng, SeedableRng};
use sbox_circuits::{SboxCircuit, Scheme};
use sca_bench::json_f64;
use sca_frontend::fixtures::present_layer;

struct Leg {
    name: &'static str,
    /// Wall-clock seconds of each timed pass, in pass order.
    pass_seconds: Vec<f64>,
    traces: usize,
    events: usize,
}

impl Leg {
    fn seconds(&self) -> f64 {
        self.pass_seconds.iter().sum()
    }

    fn traces_per_sec(&self) -> f64 {
        self.traces as f64 / self.seconds()
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.seconds()
    }
}

/// The throughput of one leg over another: the median of the per-pass
/// ratios, and their minimum and maximum. Passes run round-robin, so
/// pass `i` of both legs saw the same machine state; a median over the
/// pairs shrugs off the odd pass a scheduler hiccup stretched.
struct Ratio {
    median: f64,
    min: f64,
    max: f64,
}

impl Ratio {
    /// Leg `a`'s throughput over leg `b`'s. Every pass captures the
    /// same schedule, so a pass's ratio is `b`'s seconds over `a`'s.
    fn of(a: &Leg, b: &Leg) -> Self {
        let mut ratios: Vec<f64> = a
            .pass_seconds
            .iter()
            .zip(&b.pass_seconds)
            .map(|(sa, sb)| sb / sa)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        let median = if ratios.len().is_multiple_of(2) {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        };
        Ratio {
            median,
            min: ratios[0],
            max: ratios[ratios.len() - 1],
        }
    }
}

/// Schedule repeats per timed ISW pass, so a bit-sliced pass lasts tens
/// of milliseconds (the other netlists' passes already do).
const ISW_REPEATS: usize = 16;

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
/// whichever leg runs first. Each pass captures the schedule `repeats`
/// times in a row.
fn measure(
    schedule: &[(Stimulus, u64)],
    passes: usize,
    repeats: usize,
    mut runners: Vec<Runner<'_>>,
) -> Vec<Leg> {
    // Warmup pass per leg: fault in allocations and caches.
    for r in &mut runners {
        let mut events = 0usize;
        for (s, seed) in schedule {
            events += (r.capture)(s, *seed).events;
        }
        let _ = events;
    }

    let mut legs: Vec<Leg> = runners
        .iter()
        .map(|r| Leg {
            name: r.name,
            pass_seconds: Vec::with_capacity(passes),
            traces: passes * repeats * schedule.len(),
            events: 0,
        })
        .collect();
    for _ in 0..passes {
        for (leg, r) in legs.iter_mut().zip(&mut runners) {
            let start = Instant::now();
            for (s, seed) in schedule.iter().cycle().take(repeats * schedule.len()) {
                leg.events += (r.capture)(s, *seed).events;
            }
            leg.pass_seconds.push(start.elapsed().as_secs_f64());
        }
    }
    legs
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

/// Pair each stimulus with the protocol's noise seed for its index.
fn seeded(stimuli: Vec<Stimulus>, seed: u64) -> Vec<(Stimulus, u64)> {
    stimuli
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, trace_seed(seed, i as u64)))
        .collect()
}

/// Assert that every lane of the bit-sliced schedule equals the event
/// session's capture of the same stimulus and noise seed.
fn check_lanes(sim: &Simulator<'_>, schedule: &[(Stimulus, u64)], sampling: &SamplingConfig) {
    let name = sim.netlist().name();
    let mut batch = sim
        .bitsliced_session()
        .unwrap_or_else(|e| panic!("{name}: not bitslice-supported: {e}"));
    let mut session = sim.session();
    let mut buf = Vec::new();
    for chunk in schedule.chunks(LANES) {
        let (traces, _) = batch.capture_batch(&lanes(chunk), sampling);
        for ((s, seed), trace) in chunk.iter().zip(traces) {
            let mut rng = SmallRng::seed_from_u64(*seed);
            session.capture_into(&s.initial, &s.final_inputs, sampling, &mut rng, &mut buf);
            assert_eq!(*trace, buf, "{name}: bitsliced and scalar paths diverge");
        }
    }
}

/// The `session_capture_into` leg: one event session rendering into
/// one reused sample buffer.
fn session_into_runner<'s>(sim: &'s Simulator<'_>, sampling: SamplingConfig) -> Runner<'s> {
    let mut session = sim.session();
    let mut buf = Vec::new();
    Runner {
        name: "session_capture_into",
        capture: Box::new(move |s, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            session.capture_into(&s.initial, &s.final_inputs, &sampling, &mut rng, &mut buf)
        }),
    }
}

/// The `bitsliced_batch` leg. It batches [`LANES`] stimuli per engine
/// pass; the per-trace [`Runner`] contract is kept by simulating the
/// whole schedule on the first call of a pass and serving each trace's
/// stats from the batch.
fn bitsliced_runner<'s>(
    sim: &'s Simulator<'_>,
    schedule: &'s [(Stimulus, u64)],
    sampling: SamplingConfig,
) -> Runner<'s> {
    let mut session = sim.bitsliced_session().expect("checked by check_lanes");
    let mut stats: Vec<CaptureStats> = Vec::new();
    let mut at = 0usize;
    Runner {
        name: "bitsliced_batch",
        capture: Box::new(move |_s, _seed| {
            if at == 0 {
                stats.clear();
                for chunk in schedule.chunks(LANES) {
                    let (_, batch_stats) = session.capture_batch(&lanes(chunk), &sampling);
                    stats.extend_from_slice(batch_stats);
                }
            }
            let out = stats[at];
            at = (at + 1) % schedule.len();
            out
        }),
    }
}

fn print_legs(legs: &[Leg]) {
    for leg in legs {
        eprintln!(
            "  {:<22} {:>9.0} traces/s  {:>11.0} events/s  ({:.3}s)",
            leg.name,
            leg.traces_per_sec(),
            leg.events_per_sec(),
            leg.seconds(),
        );
    }
}

fn print_ratio(key: &str, r: &Ratio) {
    eprintln!(
        "  {key}: {:.3}x (passes {:.3}-{:.3})",
        r.median, r.min, r.max
    );
}

/// A netlist timed on the two capture engines alone.
struct Section {
    netlist: &'static str,
    gates: usize,
    traces_per_pass: usize,
    legs: Vec<Leg>,
    speedup: Ratio,
}

/// Check, then time, `session_capture_into` against `bitsliced_batch`
/// on `sim`'s netlist over `schedule`.
fn engine_section(
    netlist: &'static str,
    sim: &Simulator<'_>,
    schedule: &[(Stimulus, u64)],
    sampling: SamplingConfig,
    passes: usize,
) -> Section {
    let gates = sim.netlist().gates().len();
    eprintln!("capture_bench: {netlist}, {gates} gates");
    check_lanes(sim, schedule, &sampling);
    let legs = measure(
        schedule,
        passes,
        1,
        vec![
            session_into_runner(sim, sampling),
            bitsliced_runner(sim, schedule, sampling),
        ],
    );
    print_legs(&legs);
    let speedup = Ratio::of(&legs[1], &legs[0]);
    print_ratio("speedup_bitsliced_vs_session_into", &speedup);
    Section {
        netlist,
        gates,
        traces_per_pass: schedule.len(),
        legs,
        speedup,
    }
}

/// The ledger's `legs` array, each line prefixed by `indent`.
fn write_legs(json: &mut String, indent: &str, legs: &[Leg]) {
    let _ = writeln!(json, "{indent}\"legs\": [");
    for (i, leg) in legs.iter().enumerate() {
        let passes: Vec<String> = leg
            .pass_seconds
            .iter()
            .map(|&t| format!("{t:.5}"))
            .collect();
        let _ = writeln!(
            json,
            "{indent}  {{\"name\": \"{}\", \"seconds\": {}, \"pass_seconds\": [{}], \"traces\": {}, \"events\": {}, \"traces_per_sec\": {}, \"events_per_sec\": {}}}{}",
            leg.name,
            json_f64(leg.seconds()),
            passes.join(", "),
            leg.traces,
            leg.events,
            json_f64(leg.traces_per_sec()),
            json_f64(leg.events_per_sec()),
            if i + 1 < legs.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "{indent}],");
}

/// One ratio and its per-pass range, as a ledger line ending in `end`.
fn write_ratio(json: &mut String, indent: &str, key: &str, r: &Ratio, end: &str) {
    let _ = writeln!(
        json,
        "{indent}\"{key}\": {}, \"{key}_range\": [{}, {}]{end}",
        json_f64(r.median),
        json_f64(r.min),
        json_f64(r.max),
    );
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
    let schedule = seeded(classified_schedule(&circuit, &protocol), protocol.seed);
    eprintln!(
        "capture_bench: {} gates, {} traces x {ISW_REPEATS} repeats/pass x {passes} passes{}",
        circuit.netlist().gates().len(),
        schedule.len(),
        if quick { " (quick)" } else { "" },
    );
    check_lanes(&sim, &schedule, &sampling);

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
        ISW_REPEATS,
        vec![
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
            session_into_runner(&sim, sampling),
            streaming_runner,
            bitsliced_runner(&sim, &schedule, sampling),
            bitsliced_fold_runner,
        ],
    );
    print_legs(&legs);
    let leg = |name: &str| {
        legs.iter()
            .find(|leg| leg.name == name)
            .unwrap_or_else(|| panic!("no leg named {name}"))
    };
    // Each ledger ratio: its key, and the legs whose throughputs it divides.
    let ratios: Vec<(&str, Ratio)> = [
        (
            "speedup_session_vs_alloc",
            "session_reuse",
            "alloc_per_capture",
        ),
        (
            "throughput_streaming_exact_vs_batch",
            "streaming_fold_exact",
            "session_capture_into",
        ),
        (
            "speedup_bitsliced_vs_session_into",
            "bitsliced_batch",
            "session_capture_into",
        ),
        (
            "throughput_bitsliced_fold_exact_vs_batch",
            "bitsliced_fold_exact",
            "bitsliced_batch",
        ),
    ]
    .into_iter()
    .map(|(key, a, b)| (key, Ratio::of(leg(a), leg(b))))
    .collect();
    for (key, r) in &ratios {
        print_ratio(key, r);
    }

    let schemes = [
        ("ti", Scheme::Ti),
        ("glut", Scheme::Glut),
        ("rsm_rom", Scheme::RsmRom),
    ];
    let mut sections: Vec<Section> = schemes
        .into_iter()
        .map(|(name, scheme)| {
            let circuit = SboxCircuit::build(scheme);
            let sim = Simulator::new(circuit.netlist(), &protocol.sim);
            let schedule = seeded(classified_schedule(&circuit, &protocol), protocol.seed);
            engine_section(name, &sim, &schedule, sampling, passes)
        })
        .collect();
    let layer = present_layer();
    let layer_sim = Simulator::new(&layer, &protocol.sim);
    // The layer has no classified protocol: each trace switches it
    // between two seeded random 64-bit words (input `xi` is bit `i`).
    let mut rng = SmallRng::seed_from_u64(protocol.seed);
    let bits = |w: u64| (0..64).map(|i| w >> i & 1 == 1).collect();
    let layer_pairs = (0..schedule.len())
        .map(|_| {
            let (initial, last) = (rng.gen::<u64>(), rng.gen::<u64>());
            Stimulus {
                label: (last & 0xF) as u16,
                initial: bits(initial),
                final_inputs: bits(last),
            }
        })
        .collect();
    let layer_schedule = seeded(layer_pairs, protocol.seed);
    sections.push(engine_section(
        "present_layer",
        &layer_sim,
        &layer_schedule,
        sampling,
        passes,
    ));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"capture_throughput\",");
    let _ = writeln!(json, "  \"netlist\": \"isw\",");
    let _ = writeln!(json, "  \"gates\": {},", circuit.netlist().gates().len());
    let _ = writeln!(json, "  \"samples_per_trace\": {},", sampling.samples);
    let _ = writeln!(json, "  \"schedule_repeats\": {ISW_REPEATS},");
    let _ = writeln!(
        json,
        "  \"traces_per_pass\": {},",
        ISW_REPEATS * schedule.len()
    );
    let _ = writeln!(json, "  \"passes\": {passes},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    write_legs(&mut json, "  ", &legs);
    for (key, r) in &ratios {
        write_ratio(&mut json, "  ", key, r, ",");
    }
    json.push_str("  \"netlists\": [\n");
    for (i, section) in sections.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"netlist\": \"{}\",", section.netlist);
        let _ = writeln!(json, "      \"gates\": {},", section.gates);
        let _ = writeln!(
            json,
            "      \"traces_per_pass\": {},",
            section.traces_per_pass
        );
        write_legs(&mut json, "      ", &section.legs);
        let key = "speedup_bitsliced_vs_session_into";
        write_ratio(&mut json, "      ", key, &section.speedup, "");
        let end = if i + 1 < sections.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{end}");
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_capture.json");
    eprintln!("wrote {out_path}");
}
