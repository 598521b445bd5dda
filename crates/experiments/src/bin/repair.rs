//! Witness-guided countermeasure repair driver.
//!
//! ```text
//! repair [SUBJECTS...] [--json-dir DIR] [--expect-dir DIR]
//!        [--check] [--bless] [--no-json] [--quiet] [--tpc N] [--seed N]
//!        [--no-confirm]
//! repair --selftest [TPC]
//! ```
//!
//! For each subject the driver runs the beam-search repair loop from
//! `sca-repair`, prints the episode narrative, writes the byte-stable
//! JSON report under `results/repair/`, and — when a repair actually
//! changed the netlist — replays both versions through the power
//! simulator to confirm the peak NICV did not increase.
//!
//! `--check` byte-compares each report against the pinned expectation
//! under `tests/golden/repair/` and exits 1 on drift; after a reviewed
//! change, refresh the pins with `--bless` (or `SCA_BLESS=1`).
//!
//! `--selftest` is the conformance mode CI runs inside the `SCA_FAULTS`
//! injection matrix: every subject must repair deterministically
//! (byte-identical reports across two runs), preserve its function,
//! agree with a from-scratch re-analysis of the repaired netlist, and
//! confirm with a non-increasing NICV peak. Any environment failure
//! exits 2; any conformance mismatch exits 1; panics are a bug.

use std::path::PathBuf;

use sbox_circuits::{InputRole, SboxCircuit, Scheme};
use sca_repair::search::functionally_equivalent;
use sca_repair::{confirm, repair, report, Confirmation, RepairOutcome, SearchConfig};
use sca_verify::{expect, Subject};

/// Subjects the driver knows how to build, in report order.
const SUBJECTS: [&str; 3] = ["ti", "isw", "foreign-masked"];

/// Seed for the NICV confirmation captures (arbitrary, pinned).
const CONFIRM_SEED: u64 = 0xD0E5_11F7;

struct Args {
    subjects: Vec<String>,
    json_dir: PathBuf,
    expect_dir: PathBuf,
    check: bool,
    bless: bool,
    write_json: bool,
    quiet: bool,
    tpc: usize,
    seed: u64,
    do_confirm: bool,
    selftest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: repair [SUBJECTS...] [--json-dir DIR] [--expect-dir DIR] \
         [--check] [--bless] [--no-json] [--quiet] [--tpc N] [--seed N] \
         [--no-confirm]\n       repair --selftest [TPC]\n  subjects: {} | all",
        SUBJECTS.join(" | ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        subjects: Vec::new(),
        json_dir: PathBuf::from("results/repair"),
        expect_dir: PathBuf::from("tests/golden/repair"),
        check: false,
        bless: expect::blessing(),
        write_json: true,
        quiet: false,
        // 32 traces per class keeps the NICV estimates out of the
        // small-sample noise floor where a genuine repair can show a
        // spuriously negative delta.
        tpc: 32,
        seed: CONFIRM_SEED,
        do_confirm: true,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--selftest" => {
                args.selftest = true;
                if let Some(tpc) = it.next() {
                    match tpc.parse() {
                        Ok(n) => args.tpc = n,
                        Err(_) => usage(),
                    }
                }
            }
            "--json-dir" => match it.next() {
                Some(d) => args.json_dir = PathBuf::from(d),
                None => usage(),
            },
            "--expect-dir" => match it.next() {
                Some(d) => args.expect_dir = PathBuf::from(d),
                None => usage(),
            },
            "--check" => args.check = true,
            "--bless" => args.bless = true,
            "--no-json" => args.write_json = false,
            "--quiet" => args.quiet = true,
            "--no-confirm" => args.do_confirm = false,
            "--tpc" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.tpc = n,
                None => usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.seed = n,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            "all" => args.subjects.extend(SUBJECTS.iter().map(|s| s.to_string())),
            other => args.subjects.push(other.to_string()),
        }
    }
    if args.subjects.is_empty() {
        args.subjects.extend(SUBJECTS.iter().map(|s| s.to_string()));
    }
    args
}

/// Path of the bundled foreign-netlist fixture, resolved relative to
/// this crate so the driver works from any working directory.
fn foreign_fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/frontend/foreign_masked.yosys.json"
    ))
}

/// Build a named subject, or explain why it cannot be built.
fn build_subject(name: &str) -> Result<Subject, String> {
    match name {
        "ti" => Ok(Subject::of_circuit(&SboxCircuit::build(Scheme::Ti))),
        "isw" => Ok(Subject::of_circuit(&SboxCircuit::build(Scheme::Isw))),
        "foreign-masked" => {
            let path = foreign_fixture_path();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("fixture {}: {e}", path.display()))?;
            let design = sca_frontend::import_auto(&text).map_err(|e| format!("import: {e:?}"))?;
            Subject::with_roles(
                "foreign-masked",
                design.netlist,
                vec![
                    InputRole::Share { bit: 0, share: 0 },
                    InputRole::Share { bit: 0, share: 1 },
                    InputRole::Share { bit: 1, share: 0 },
                    InputRole::Share { bit: 1, share: 1 },
                ],
                vec![vec![0, 1]],
            )
        }
        other => Err(format!(
            "unknown subject '{other}' (expected {})",
            SUBJECTS.join(" | ")
        )),
    }
}

/// Run one repair episode, with dynamic confirmation when the netlist
/// actually changed.
fn run_episode(
    subject: &Subject,
    tpc: usize,
    seed: u64,
    do_confirm: bool,
) -> (RepairOutcome, Option<Confirmation>) {
    let outcome = repair(subject, &SearchConfig::default());
    let confirmation = if do_confirm && outcome.repaired && !outcome.steps.is_empty() {
        Some(confirm(subject, &outcome.subject, tpc, seed))
    } else {
        None
    };
    (outcome, confirmation)
}

fn main() {
    let args = parse_args();
    if args.selftest {
        std::process::exit(selftest(args.tpc));
    }

    let mut failures = 0usize;
    for name in &args.subjects {
        let subject = match build_subject(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("repair: {e}");
                std::process::exit(2);
            }
        };
        let (outcome, confirmation) = run_episode(&subject, args.tpc, args.seed, args.do_confirm);
        if !args.quiet {
            print!("{}", report::human(&outcome, confirmation.as_ref()));
        }
        let json = report::json(&outcome, confirmation.as_ref());
        if args.write_json {
            let path = expect::expectation_path(&args.json_dir, name);
            if let Err(e) = expect::bless(&path, &json) {
                eprintln!("repair: writing {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        let pin = expect::expectation_path(&args.expect_dir, name);
        if args.bless {
            if let Err(e) = expect::bless(&pin, &json) {
                eprintln!("repair: blessing {}: {e}", pin.display());
                std::process::exit(2);
            }
            if !args.quiet {
                println!("  blessed {}", pin.display());
            }
        } else if args.check {
            match expect::check(&pin, &json) {
                Ok(()) => {
                    if !args.quiet {
                        println!("  matches {}", pin.display());
                    }
                }
                Err(e) => {
                    eprintln!("repair: {name}: {e}");
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("repair: {failures} subject(s) drifted from pinned expectations");
        std::process::exit(1);
    }
}

/// CI conformance mode; returns the process exit code.
fn selftest(tpc: usize) -> i32 {
    let mut bad = 0usize;
    for name in SUBJECTS {
        let subject = match build_subject(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("selftest: {e}");
                return 2;
            }
        };
        let (a, ca) = run_episode(&subject, tpc, CONFIRM_SEED, true);
        let (b, cb) = run_episode(&subject, tpc, CONFIRM_SEED, true);

        // Determinism: two full episodes must render identical bytes.
        let ja = report::json(&a, ca.as_ref());
        if ja != report::json(&b, cb.as_ref()) {
            eprintln!("selftest: {name}: repair episode is not deterministic");
            bad += 1;
        }
        // Every subject in the suite must end free of Error findings.
        if !a.repaired {
            eprintln!("selftest: {name}: not repaired (skipped: {:?})", a.skipped);
            bad += 1;
        }
        // A repair must never change the computed function.
        if !functionally_equivalent(&subject, &a.subject, 256) {
            eprintln!("selftest: {name}: repair changed the computed function");
            bad += 1;
        }
        // The incremental engine's accepted-path analysis must agree
        // with a from-scratch analysis of the repaired netlist.
        let fresh = sca_verify::analyze_subject(&a.subject);
        if sca_verify::report::json(&fresh) != sca_verify::report::json(&a.final_analysis) {
            eprintln!("selftest: {name}: incremental final analysis drifted from from-scratch");
            bad += 1;
        }
        // Dynamic confirmation: the repair must not raise the NICV peak
        // beyond the estimator's small-sample noise. With K classes and
        // N traces the NICV estimate carries a bias floor near
        // (K-1)/N, so glitch-targeted repairs (invisible to the
        // transition-power model) wobble within it; a repair that
        // actually recombined shares would jump far outside it.
        if let Some(c) = ca {
            let classes = subject.num_classes().min(sca_repair::confirm::MAX_CLASSES) as f64;
            let tol = 2.0 * (classes - 1.0) / c.traces as f64;
            if c.repaired_nicv_max > c.base_nicv_max + tol {
                eprintln!(
                    "selftest: {name}: repaired NICV peak rose past noise ({} -> {}, tol {tol})",
                    c.base_nicv_max, c.repaired_nicv_max
                );
                bad += 1;
            }
        }
        println!(
            "selftest: {name}: ok ({} step(s), {} candidate(s), {}/{} dirty gate stats)",
            a.steps.len(),
            a.candidates_tried,
            a.effort.dirty_gates,
            a.effort.total_gates
        );
    }
    if bad > 0 {
        eprintln!("selftest: {bad} conformance failure(s)");
        1
    } else {
        println!("selftest: all {} subjects conform", SUBJECTS.len());
        0
    }
}
