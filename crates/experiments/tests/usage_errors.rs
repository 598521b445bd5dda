//! A zero or malformed trace count is a usage error: every binary that
//! takes one exits 2 before any capture, never capturing nothing (a
//! vacuous pass) or panicking inside library code.

use std::process::Command;

fn run(case: usize, bin: &str, args: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("usage-errors-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp cwd");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn zero_and_malformed_counts_exit_2_before_any_capture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/frontend/isw.yosys.json"
    );
    let cases: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_cpa"), &["0"]),
        (env!("CARGO_BIN_EXE_cpa"), &["x16"]),
        (env!("CARGO_BIN_EXE_import"), &[fixture, "--tpc", "0"]),
        (env!("CARGO_BIN_EXE_import"), &[fixture, "--tpc", "x"]),
        (env!("CARGO_BIN_EXE_repair"), &["ti", "--tpc", "0"]),
        (env!("CARGO_BIN_EXE_repair"), &["ti", "--tpc", "x"]),
    ];
    for (case, (bin, args)) in cases.into_iter().enumerate() {
        let out = run(case, bin, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?} must exit 2\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{bin} {args:?} panicked:\n{stderr}"
        );
        assert!(
            !stdout.contains("miss"),
            "{bin} {args:?}: no capture may run:\n{stdout}"
        );
    }
}
