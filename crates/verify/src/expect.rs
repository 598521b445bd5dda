//! Pinned per-scheme expectation files and the bless/check flow.
//!
//! The test suite is the only place the pins are checked: `cargo test
//! --test verify_expectations` regenerates every scheme's JSON report
//! and byte-compares it against the pinned copy under
//! `tests/golden/verify/`, and `cargo test -p experiments --test
//! repair_expectations` does the same for `tests/golden/repair/`. Any
//! drift in the static security profile — a new finding, a changed
//! verdict, a moved score — fails the build. After an *intentional*
//! change, re-run the test with `SCA_BLESS=1` to refresh the pins and
//! review the diff.

use std::fs;
use std::path::{Path, PathBuf};

/// Whether the environment requests re-blessing pinned expectations
/// (`SCA_BLESS=1`, the same switch the golden-vector suite uses).
pub fn blessing() -> bool {
    std::env::var("SCA_BLESS").is_ok_and(|v| v == "1")
}

/// The expectation file for one scheme label inside `dir`
/// (label lowercased: `LUT-OPT` → `lut-opt.json`).
pub fn expectation_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{}.json", label.to_lowercase()))
}

/// Compare an actual report against the pinned expectation.
///
/// Returns `Ok(())` on a byte-exact match, otherwise a human-readable
/// explanation with the first differing line.
pub fn check(path: &Path, actual: &str) -> Result<(), String> {
    let expected = fs::read_to_string(path).map_err(|e| {
        format!(
            "missing expectation {} ({e}); run with SCA_BLESS=1 to create it",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    for (lineno, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return Err(format!(
                "{} line {}:\n  expected: {e}\n  actual:   {a}",
                path.display(),
                lineno + 1
            ));
        }
    }
    Err(format!(
        "{}: length differs (expected {} lines, actual {})",
        path.display(),
        expected.lines().count(),
        actual.lines().count()
    ))
}

/// Write (bless) the expectation file, creating parent directories.
pub fn bless(path: &Path, actual: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_first_diff_line() {
        let dir = std::env::temp_dir().join("sca-verify-expect-test");
        fs::create_dir_all(&dir).unwrap();
        let path = expectation_path(&dir, "LUT-OPT");
        assert!(path.ends_with("lut-opt.json"));
        bless(&path, "a\nb\nc\n").unwrap();
        assert!(check(&path, "a\nb\nc\n").is_ok());
        let err = check(&path, "a\nX\nc\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = check(&path, "a\nb\nc\nd\n").unwrap_err();
        assert!(err.contains("length differs"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
