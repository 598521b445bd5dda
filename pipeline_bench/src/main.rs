//! `pipeline_bench`: the end-to-end and per-layer benchmark of the
//! paper-reproduction pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_bench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--reps N] [--seconds S] [--trace [0|1]] [--quick]
//! ```
//!
//! `--seconds S` is how long each workload is measured (default 20, or
//! 0 with `--quick`; the measured loop always runs at least once).
//!
//! Each rep of each workload runs in a fresh child process (this binary
//! re-executed with `--child`), one at a time; the workload order
//! alternates between reps. `--reps N` runs N reps (default 3), each of
//! which sets up and then runs passes over the workload's cells for
//! S/N seconds. `wall_s` is one pass: the sum over cells of each cell's
//! fastest time over all passes. Then each workload is replayed
//! single-threaded, and its digest must equal the end-to-end digest —
//! and, at the default seed, the pinned one in `golden/<workload>.digest`
//! (refresh with `SCA_BLESS=1`).
//!
//! With `--trace` the run takes one end-to-end rep of one pass (or
//! `--reps N`) for the run log and the digest, then measures S seconds
//! of replays with spans off and on, in alternating pairs, and writes
//! the spans to `<target>/pipeline_bench/trace-<workload>.json`.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted` and `failed` traces, and `metrics`: the end-to-end
//! metrics, or with `--trace` the per-layer ones. Exits 1 when any
//! output is wrong, 2 on a usage error.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gatesim::LANES;
use pipeline_bench::catalog::{END_TO_END, PER_LAYER};
use pipeline_bench::e2e::{self, Rep};
use pipeline_bench::replay;
use pipeline_bench::stats::{summarize, Summary};
use pipeline_bench::trace::{Counters, Layer, Tracer};
use pipeline_bench::workload::{Plan, Workload, DEFAULT_SEED, WORKERS};

/// How long each workload is measured by default, in seconds.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: pipeline_bench [--workload NAME|all] [--seed S] [--reps N] \
                     [--seconds S] [--trace [0|1]] [--quick]";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    child: bool,
}

impl Args {
    /// How long each workload is measured.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.0 } else { DEFAULT_SECONDS })
    }

    fn plan(&self, workload: Workload) -> Plan {
        Plan {
            workload,
            seed: self.seed,
            quick: self.quick,
        }
    }
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        reps: None,
        seconds: None,
        trace: false,
        quick: false,
        child: false,
    };
    let mut it = raw.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--reps" => {
                let v = value()?;
                args.reps = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad --reps {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                // A bare `--trace` means on; `--trace 0|1` is explicit.
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => args.quick = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child takes exactly one workload".into());
    }
    Ok(args)
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {s:?}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let dir = RunDir::new("rep");
        let rep = e2e::run(
            &args.plan(args.workloads[0]),
            dir.path(),
            started,
            args.seconds(),
        );
        println!("{}", rep.to_line());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where runs keep their temporary stores and trace files: under the
/// Cargo target directory of the invocation.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("pipeline_bench")
}

/// A temporary directory under [`work_dir`], deleted on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new(kind: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work_dir().join(format!("{kind}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("the run directory is creatable");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pipeline_bench seed={:#x} cores={cores} workers={WORKERS} commit={} quick={} trace={} seconds={}",
        args.seed,
        commit(),
        args.quick,
        args.trace,
        args.seconds()
    );
    for &w in &args.workloads {
        let config = args.plan(w).campaign_config(Path::new("<run-dir>"));
        println!("config {}: {config:?}", w.name());
    }

    let reps = run_reps(args)?;
    let multi = args.workloads.len() > 1;
    let mut correct = true;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (&w, reps) in args.workloads.iter().zip(&reps) {
        let plan = args.plan(w);
        let replays = run_replays(args, &plan);
        let prefix = if multi {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        let passes: usize = reps.iter().map(|r| r.passes.len()).sum();
        println!(
            "\n== {}: {} scheduled traces per pass, {} reps, {passes} passes, {} replays ==",
            w.name(),
            plan.scheduled_traces(),
            reps.len(),
            replays.digests.len()
        );

        let scheduled = plan.scheduled_traces() * passes;
        let lost: usize = reps.iter().map(|r| r.value("failed") as usize).sum();
        attempted += scheduled;
        failed += lost;
        println!(
            "{:<28} {:>9} {:>4} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "value", "median", "q1", "q3"
        );
        for m in END_TO_END {
            let row = e2e_row(m.name, &plan, reps);
            row.print(m.name, m.unit);
            if !args.trace {
                metrics.push((format!("{prefix}{}", m.name), row.value, m.unit));
            }
        }
        println!(
            "failed {lost} of {scheduled} traces (failed_frac {})",
            lost as f64 / scheduled.max(1) as f64
        );
        if args.trace {
            for m in PER_LAYER {
                let row = Row::median(&layer_values(m.name, reps, &replays));
                row.print(m.name, m.unit);
                metrics.push((format!("{prefix}{}", m.name), row.value, m.unit));
            }
            let path = work_dir().join(format!("trace-{}.json", w.name()));
            if let Some(last) = replays.traced.last() {
                let header = format!(
                    "\"workload\":\"{}\",\"seed\":{},\"quick\":{},\"wall_s\":{},\"coverage\":{}",
                    w.name(),
                    args.seed,
                    args.quick,
                    last.wall_s(),
                    last.coverage()
                );
                fs::write(&path, last.to_json(&header))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("spans written to {}", path.display());
            }
        }
        correct &= check(args, &plan, reps, &replays, lost);
    }

    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// One metric's table row: the reported value, then the sample count,
/// median and quartiles it comes from.
struct Row {
    n: usize,
    value: f64,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Row {
    /// A metric reported as the median of `values`.
    fn median(values: &[f64]) -> Self {
        let s = summarize(values);
        Self {
            n: s.n,
            value: s.median,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
        }
    }

    fn print(&self, name: &str, unit: &str) {
        println!(
            "{name:<28} {unit:>9} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            self.n, self.value, self.median, self.q1, self.q3
        );
    }
}

/// Run the end-to-end reps, one child process at a time, alternating
/// the workload order between rounds. Each rep gets an equal share of
/// the measuring time; with `--trace` each runs a single pass.
fn run_reps(args: &Args) -> Result<Vec<Vec<Rep>>, String> {
    let n = args.workloads.len();
    let reps = args.reps.unwrap_or(if args.trace { 1 } else { 3 });
    let budget = if args.trace {
        0.0
    } else {
        args.seconds() / reps as f64
    };
    let mut out: Vec<Vec<Rep>> = vec![Vec::new(); n];
    for round in 0..reps {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for i in order {
            out[i].push(spawn_rep(args, args.workloads[i], budget)?);
        }
    }
    Ok(out)
}

/// One rep in a fresh child process; waits for it to exit.
fn spawn_rep(args: &Args, workload: Workload, budget: f64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(budget.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting a {} rep: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!("a {} rep failed: {}", workload.name(), out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(Rep::parse)
        .ok_or_else(|| format!("a {} rep printed no result", workload.name()))
}

/// Every replay of one workload.
#[derive(Default)]
struct Replays {
    digests: Vec<u64>,
    off_walls: Vec<f64>,
    traced: Vec<Tracer>,
    counters: Counters,
}

/// Replay `plan` once with spans off, or with `--trace` in alternating
/// off/on pairs for the measuring time (at least one pair).
fn run_replays(args: &Args, plan: &Plan) -> Replays {
    let warm = (plan.workload == Workload::SpectraWarm).then(|| {
        let dir = RunDir::new("replay-warm");
        e2e::fill_warm_store(plan, dir.path());
        dir
    });
    let mut out = Replays::default();
    let once = |spans: bool, out: &mut Replays| {
        // The other workloads write into an empty directory every time.
        let fresh;
        let dir = match &warm {
            Some(warm) => warm.path(),
            None => {
                fresh = RunDir::new("replay");
                fresh.path()
            }
        };
        let mut t = Tracer::new(spans);
        out.digests.push(replay::replay(plan, dir, &mut t));
        out.counters = t.counters;
        if spans {
            out.traced.push(t);
        } else {
            out.off_walls.push(t.wall_s());
        }
    };
    if !args.trace {
        once(false, &mut out);
        return out;
    }
    let begun = Instant::now();
    for pair in 0.. {
        if pair > 0 && begun.elapsed().as_secs_f64() >= args.seconds() {
            break;
        }
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for spans in order {
            once(spans, &mut out);
        }
    }
    out
}

/// An end-to-end metric over a workload's reps.
///
/// `wall_s` is one pass over the cells, reported as the sum over cells
/// of each cell's fastest time over every pass of every rep. Load from
/// other tenants of a shared host only ever adds time, so the fastest
/// of several passes is the steadiest estimate of the work's cost; the
/// median and quartile columns sum each cell's median and quartiles the
/// same way, so a change that makes passes erratic still shows there.
/// `traces_per_s` is a pass's traces over `wall_s`. The other metrics
/// are one value per rep, reported as their median.
fn e2e_row(name: &str, plan: &Plan, reps: &[Rep]) -> Row {
    let passes: Vec<&Vec<f64>> = reps.iter().flat_map(|r| &r.passes).collect();
    let wall = || {
        let cells = passes.first().map_or(0, |p| p.len());
        let per_cell: Vec<Summary> = (0..cells)
            .map(|c| summarize(&passes.iter().map(|p| p[c]).collect::<Vec<_>>()))
            .collect();
        let sum = |f: fn(&Summary) -> f64| per_cell.iter().map(f).sum::<f64>();
        Row {
            n: passes.len(),
            value: sum(|s| s.min),
            median: sum(|s| s.median),
            q1: sum(|s| s.q1),
            q3: sum(|s| s.q3),
        }
    };
    match name {
        "wall_s" => wall(),
        "traces_per_s" => {
            let w = wall();
            let traces = plan.scheduled_traces() as f64;
            Row {
                n: w.n,
                value: traces / w.value,
                median: traces / w.median,
                q1: traces / w.q3,
                q3: traces / w.q1,
            }
        }
        _ => Row::median(&reps.iter().map(|r| r.value(name)).collect::<Vec<_>>()),
    }
}

/// The values of a per-layer metric: one per traced replay for layer
/// times, one per rep for the run log, one for exact counts.
fn layer_values(name: &str, reps: &[Rep], replays: &Replays) -> Vec<f64> {
    if let Some(&layer) = Layer::ALL
        .iter()
        .find(|l| name.strip_suffix("_s") == Some(l.name()))
    {
        return replays
            .traced
            .iter()
            .map(|t| t.layer_seconds(layer))
            .collect();
    }
    let c = &replays.counters;
    let count = match name {
        "gatesim.traces" => c.traces,
        "gatesim.events" => c.events,
        "core.folds" => c.core_folds,
        "core.merges" => c.core_merges,
        "attacks.folds" => c.attack_folds,
        "attacks.rank_evals" => c.rank_evals,
        "campaign.store_write_bytes" => c.store_write_bytes,
        "campaign.store_read_bytes" => c.store_read_bytes,
        "campaign.checkpoint_syncs" => c.checkpoint_syncs,
        "gatesim.lane_util" => {
            let slots = c.lane_batches * LANES as u64;
            return vec![if slots == 0 {
                0.0
            } else {
                c.lane_slots as f64 / slots as f64
            }];
        }
        "trace.wall_s" => return replays.traced.iter().map(Tracer::wall_s).collect(),
        "trace.coverage" => return replays.traced.iter().map(Tracer::coverage).collect(),
        "trace.overhead" => {
            let on: Vec<f64> = replays.traced.iter().map(Tracer::wall_s).collect();
            return vec![summarize(&on).median / summarize(&replays.off_walls).median];
        }
        _ => return reps.iter().map(|r| r.value(name)).collect(),
    };
    vec![count as f64]
}

/// Check one workload's outputs and print its digest line: every rep
/// and replay agree, the replay reproduces the end-to-end digest, the
/// cache behaved as the workload requires, no trace failed, and at the
/// default seed the digest matches the pin (or is blessed).
fn check(args: &Args, plan: &Plan, reps: &[Rep], replays: &Replays, lost: usize) -> bool {
    let e2e = reps[0].digest;
    let replayed = replays.digests[0];
    let mut problems = Vec::new();
    if reps.iter().any(|r| r.digest != e2e || !r.passes_agree) {
        problems.push("end-to-end passes disagree");
    }
    if replays.digests.iter().any(|&d| d != replayed) {
        problems.push("replays disagree");
    }
    if e2e != replayed {
        problems.push("replay differs from end-to-end");
    }
    if !reps.iter().all(|r| r.cache_as_expected) {
        problems.push("unexpected cache hits or misses");
    }
    if lost > 0 {
        problems.push("traces failed");
    }
    if args.trace && replays.traced.iter().any(|t| t.coverage() < 0.95) {
        problems.push("trace coverage below 0.95");
    }
    let mut pinned = "-".to_string();
    if args.seed == DEFAULT_SEED {
        let mode = if args.quick { "quick" } else { "full" };
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.digest", plan.workload.name()));
        let mut pins = read_pins(&path);
        let blessing = std::env::var("SCA_BLESS").is_ok_and(|v| v == "1");
        if blessing && problems.is_empty() {
            pins.retain(|(m, _)| m != mode);
            pins.push((mode.to_string(), e2e));
            pins.sort();
            if let Err(e) = write_pins(&path, plan, &pins) {
                eprintln!("pipeline_bench: blessing {}: {e}", path.display());
                problems.push("pin not written");
            }
        }
        match pins.iter().find(|(m, _)| m == mode) {
            Some(&(_, pin)) => {
                pinned = format!("{pin:016x}");
                if pin != e2e {
                    problems.push("digest differs from the pin");
                }
            }
            None => problems.push("no pinned digest (bless with SCA_BLESS=1)"),
        }
    }
    println!(
        "digest {} e2e={e2e:016x} replay={replayed:016x} pinned={pinned} {}",
        plan.workload.name(),
        if problems.is_empty() {
            "ok".to_string()
        } else {
            format!("MISMATCH: {}", problems.join("; "))
        }
    );
    problems.is_empty()
}

/// `(mode, digest)` pairs of a pin file: lines `full <hex>` / `quick <hex>`.
fn read_pins(path: &Path) -> Vec<(String, u64)> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (mode, hex) = l.split_once(' ')?;
            Some((mode.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

fn write_pins(path: &Path, plan: &Plan, pins: &[(String, u64)]) -> std::io::Result<()> {
    let mut text = format!(
        "# pipeline_bench digest of {} at seed {DEFAULT_SEED:#x}; refresh with SCA_BLESS=1\n",
        plan.workload.name()
    );
    for (mode, digest) in pins {
        let _ = writeln!(text, "{mode} {digest:016x}");
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, text)
}

/// The checked-out commit, read from `.git` beside this package
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
