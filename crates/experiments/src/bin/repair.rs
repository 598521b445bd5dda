//! Witness-guided countermeasure repair driver.
//!
//! ```text
//! repair [SUBJECTS...] [--json-dir DIR] [--quiet] [--tpc N]
//! ```
//!
//! For each subject (default: all) the driver runs the beam-search
//! repair loop from `sca-repair`, prints the episode narrative, writes
//! the byte-stable JSON report under `results/repair/`, and — when a
//! repair actually changed the netlist — replays both versions through
//! the power simulator (`--tpc` traces per class, default 32) to confirm
//! the peak NICV did not increase. A zero or malformed count and an
//! unknown subject are usage errors (exit 2).
//!
//! At the default count the reports are the episodes pinned under
//! `tests/golden/repair/`; `cargo test -p experiments --test
//! repair_expectations` byte-checks them and asserts each episode's
//! invariants.

use std::path::PathBuf;

use experiments::count_from_value;
use experiments::repair_suite::{build_subject, episode, CONFIRM_TPC, SUBJECTS};
use sca_repair::report;
use sca_verify::expect;

struct Args {
    subjects: Vec<String>,
    json_dir: PathBuf,
    quiet: bool,
    tpc: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: repair [SUBJECTS...] [--json-dir DIR] [--quiet] [--tpc N]\n  subjects: {} | all",
        SUBJECTS.join(" | ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        subjects: Vec::new(),
        json_dir: PathBuf::from("results/repair"),
        quiet: false,
        tpc: CONFIRM_TPC,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json-dir" => match it.next() {
                Some(d) => args.json_dir = PathBuf::from(d),
                None => usage(),
            },
            "--quiet" => args.quiet = true,
            "--tpc" => match it.next().map(|v| count_from_value(Some(v), 0)) {
                Some(Ok(n)) => args.tpc = n,
                _ => usage(),
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

fn main() {
    let args = parse_args();
    for name in &args.subjects {
        let subject = build_subject(name).unwrap_or_else(|e| {
            eprintln!("repair: {e}");
            std::process::exit(2);
        });
        let (outcome, confirmation) = episode(&subject, args.tpc).unwrap_or_else(|e| {
            eprintln!("repair: {e}");
            std::process::exit(2);
        });
        if !args.quiet {
            print!("{}", report::human(&outcome, confirmation.as_ref()));
        }
        let path = expect::expectation_path(&args.json_dir, name);
        if let Err(e) = expect::bless(&path, &report::json(&outcome, confirmation.as_ref())) {
            eprintln!("repair: writing {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}
