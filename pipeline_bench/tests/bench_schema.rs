//! `BENCHMARK.json` is well formed and says what the benchmark does;
//! the committed `BENCH_*.json` ratios hold their floors.

mod common;

use common::{load, parse, Json};
use pipeline_bench::catalog::{END_TO_END, PER_LAYER};
use pipeline_bench::workload::Workload;

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn parser_reads_nested_documents() {
    let v = parse(r#"{"a": [1, -2.5e1, true, null], "b": {"c": "x\"A"}}"#).expect("valid");
    assert_eq!(v.keys(), ["a", "b"]);
    assert_eq!(v.get("a").expect("a").arr()[1].num(), Some(-25.0));
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Json::str),
        Some("x\"A")
    );
    assert!(parse("{\"a\":1} x").is_err());
    assert!(parse("[1,").is_err());
}

#[test]
fn benchmark_json_has_the_required_shape() {
    let b = load("BENCHMARK.json");
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = b.get("command").expect("command").arr();
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.str().expect("command arguments are strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.split('/').any(|p| p == ".."),
            "{arg}"
        );
    }
    let paths = b.get("paths").expect("paths").arr();
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.str().expect("paths are strings");
        assert!(
            p.len() <= 200
                && p.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
        assert!(
            command
                .iter()
                .any(|a| a.str().is_some_and(|a| a.starts_with(p))),
            "the command runs {p}"
        );
    }
    let secs = b
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let mut names = Vec::new();
    let workloads = b.get("workloads").expect("workloads").arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = str_field(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        names.push(str_field(w, "name"));
    }

    let e2e = b.get("end_to_end").expect("end_to_end").arr();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        assert!(valid_unit(str_field(m, "unit")));
        assert!(["lower", "higher"].contains(&str_field(m, "better")));
        let bound = m.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        names.push(str_field(m, "name"));
    }
    let setup = e2e
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_field(setup, "unit"), str_field(setup, "better")),
        ("s", "lower")
    );

    let layers = b.get("per_layer").expect("per_layer").arr();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
        assert!(valid_unit(str_field(m, "unit")));
        assert!(["lower", "higher"].contains(&str_field(m, "better")));
        names.push(str_field(m, "name"));
    }

    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
}

/// The bound policy: memory does not move with the host's speed, so
/// `peak_rss_mb` is held tighter than every time metric, and no time
/// metric's bound is wider than set-up time's.
#[test]
fn bounds_follow_the_policy() {
    let b = load("BENCHMARK.json");
    let e2e = b.get("end_to_end").expect("end_to_end").arr();
    let bound = |name: &str| {
        e2e.iter()
            .find(|m| str_field(m, "name") == name)
            .and_then(|m| m.get("bound"))
            .and_then(Json::num)
            .unwrap_or_else(|| panic!("{name} has a bound"))
    };
    for time in ["wall_s", "traces_per_s"] {
        assert!(bound("peak_rss_mb") < bound(time), "{time}");
        assert!(bound(time) <= bound("setup_s"), "{time}");
    }
}

#[test]
fn declared_workloads_and_metrics_are_the_ones_the_bench_runs() {
    let b = load("BENCHMARK.json");
    let declared: Vec<&str> = b
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);

    let metrics = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .expect(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_string(),
                    str_field(m, "unit").to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(metrics("end_to_end"), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(metrics("per_layer"), layers);
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let b = load("BENCHMARK.json");
    let e2e: Vec<&str> = b
        .get("end_to_end")
        .expect("e2e")
        .arr()
        .iter()
        .map(|m| str_field(m, "name"))
        .collect();
    let workloads: Vec<&str> = b
        .get("workloads")
        .expect("w")
        .arr()
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    for m in PER_LAYER {
        // The trace's own metrics describe the measurement, not a layer.
        assert_eq!(
            m.moves.is_empty(),
            m.name.starts_with("trace."),
            "{} must name what it moves unless it describes the trace",
            m.name
        );
        for (metric, workload) in m.moves {
            assert!(e2e.contains(metric), "{}: {metric} is not declared", m.name);
            assert!(
                workloads.contains(workload),
                "{}: {workload} is not declared",
                m.name
            );
        }
        for workload in m.flat_on {
            assert!(
                workloads.contains(workload),
                "{}: {workload} is not declared",
                m.name
            );
            assert!(
                m.moves.iter().all(|(_, w)| w != workload),
                "{}: moves and stays flat on {workload}",
                m.name
            );
        }
    }
}

#[test]
fn committed_bench_ratios_hold_their_floors() {
    let capture = load("BENCH_capture.json");
    let bitsliced = capture
        .get("speedup_bitsliced_vs_session_into")
        .and_then(Json::num)
        .expect("bit-sliced speedup");
    assert!(
        bitsliced >= 3.0,
        "bit-sliced capture is {bitsliced}x session_capture_into, floor 3x"
    );
    let repair = load("BENCH_repair.json");
    let speedup = repair
        .get("speedup")
        .and_then(Json::num)
        .expect("repair speedup");
    assert!(
        speedup >= 5.0,
        "incremental repair is {speedup}x full re-analysis, floor 5x"
    );
}
