//! Regression: `sr_curves` under the CI fault matrix.
//!
//! The fault-injection matrix runs every reproduction binary with a
//! tiny trace budget (`run_all -- 2`) and transient capture panics
//! armed (`SCA_FAULTS=panic%0.05`). A budget below the
//! smallest success-rate snapshot (16) used to leave the snapshot list
//! empty and trip the `no snapshot counts` assert in the attack
//! engine; the binary must instead degrade to a single snapshot at the
//! full budget and exit cleanly.

use std::process::Command;

fn run_sr_curves(max_traces: &str) -> std::process::Output {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "sr-curves-fault-{}-{max_traces}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_sr_curves"))
        .arg(max_traces)
        .current_dir(&dir)
        .env("SCA_FAULTS", "seed=7,panic%0.05")
        .output()
        .expect("spawn sr_curves");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn survives_tiny_budget_under_injected_panics() {
    let out = run_sr_curves("2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "sr_curves 2 failed under fault injection\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("no snapshot counts"),
        "empty-counts assert resurfaced:\n{stderr}"
    );
    // The degraded run still produces one snapshot column, at the
    // full 2-trace budget, for every scheme.
    assert!(
        stdout.contains(" 2") && stdout.contains("TI"),
        "expected a single sr column at 2 traces:\n{stdout}"
    );
}

#[test]
fn zero_budget_is_a_usage_error() {
    // A zero budget is rejected before any capture, like a malformed
    // strict knob.
    let out = run_sr_curves("0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "sr_curves 0 must exit 2\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("\"0\""),
        "the error names the value:\n{stderr}"
    );
    assert!(!stdout.contains("miss"), "no capture may run:\n{stdout}");
}
