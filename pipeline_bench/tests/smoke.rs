//! Runs `pipeline_bench --quick` on every workload, end to end and
//! traced, so the benchmark cannot rot unnoticed.

mod common;

use std::process::Command;

use common::{load, parse, Json};
use pipeline_bench::workload::Workload;

/// Run the benchmark; returns its standard output after checking it
/// exited 0.
fn bench(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline_bench"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The JSON result on the last line of the output.
fn result(stdout: &str) -> Json {
    let last = stdout.lines().last().expect("some output");
    let r = parse(last).expect("the last line is JSON");
    assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(
        r.get("failed").and_then(Json::num),
        Some(0.0),
        "failed_frac must be 0"
    );
    assert!(r
        .get("attempted")
        .and_then(Json::num)
        .is_some_and(|n| n >= 1.0));
    r
}

fn metric(r: &Json, name: &str) -> f64 {
    r.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn declared(key: &str) -> Vec<String> {
    load("BENCHMARK.json")
        .get(key)
        .expect(key)
        .arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

/// The `digest <workload> e2e=… replay=…` line's two digests.
fn digests(stdout: &str, workload: &str) -> (String, String) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&format!("digest {workload} ")))
        .expect("a digest line");
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .expect("digest field")
            .to_string()
    };
    (field("e2e="), field("replay="))
}

#[test]
fn every_workload_runs_end_to_end_and_traced() {
    let e2e_names = declared("end_to_end");
    let layer_names = declared("per_layer");
    for w in Workload::ALL {
        let name = w.name();

        let stdout = bench(
            &["--quick", "--trace", "--reps", "1", "--workload", name],
            &[],
        );
        let r = result(&stdout);
        assert_eq!(
            r.get("metrics").expect("metrics").keys(),
            layer_names,
            "{name}"
        );
        let (e2e, replay) = digests(&stdout, name);
        assert_eq!(
            e2e, replay,
            "{name}: the replay reproduces the end-to-end digest"
        );
        assert!(
            metric(&r, "trace.coverage") >= 0.95,
            "{name}: spans cover the replay"
        );
        let hit_ratio = metric(&r, "campaign.hit_ratio");
        if w == Workload::SpectraWarm {
            assert_eq!(hit_ratio, 1.0);
            assert_eq!(metric(&r, "gatesim.events"), 0.0);
        } else {
            assert_eq!(hit_ratio, 0.0, "{name}");
            assert!(metric(&r, "gatesim.events") > 0.0, "{name}");
        }
        // Cold cells checkpoint as the experiment binaries do; the
        // stream runs with the cache off and the warm workload only reads.
        let checkpoints = matches!(w, Workload::SpectraCold | Workload::Attack);
        assert_eq!(
            metric(&r, "campaign.checkpoint_syncs") > 0.0,
            checkpoints,
            "{name}"
        );

        // A seed other than the pinned one: only the replay cross-check
        // applies, and every end-to-end metric is measured (never 0).
        let stdout = bench(
            &[
                "--quick",
                "--reps",
                "1",
                "--seed",
                "7",
                "--trace",
                "0",
                "--workload",
                name,
            ],
            &[],
        );
        let r = result(&stdout);
        assert_eq!(
            r.get("metrics").expect("metrics").keys(),
            e2e_names,
            "{name}"
        );
        for m in &e2e_names {
            assert!(metric(&r, m) > 0.0, "{name}: {m}");
        }
    }
}

#[test]
fn the_environment_cannot_change_what_is_measured() {
    let config = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("config "))
            .map(str::to_string)
            .collect()
    };
    let args = ["--quick", "--reps", "1", "--workload", "spectra-cold"];
    let clean = bench(&args, &[]);
    let knobs = [
        ("SCA_FAULTS", "panic%0.5"),
        ("SCA_BACKEND", "bitsliced"),
        ("SCA_WORKERS", "7"),
        ("SCA_CACHE", "off"),
        ("SCA_STREAM", "welford"),
    ];
    let noisy = bench(&args, &knobs);
    assert!(!config(&clean).is_empty());
    assert_eq!(config(&clean), config(&noisy));
    result(&noisy);
    assert_eq!(
        digests(&clean, "spectra-cold"),
        digests(&noisy, "spectra-cold")
    );
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope"][..],
        &["--reps", "0"],
        &["--seconds", "-1"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pipeline_bench"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
