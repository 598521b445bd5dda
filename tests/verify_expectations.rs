//! Pinned static-analysis expectations: the `sca-verify` JSON report of
//! every scheme, byte-for-byte.
//!
//! The fixtures under `tests/golden/verify/` are the same documents the
//! `sca-verify` CLI writes to `results/verify/`; this test re-runs the
//! analyzer and diffs against them, so any drift in a verdict, rule
//! count, or score is a reviewed change, never an accident.
//!
//! Regenerate after an intentional analyzer change with:
//!
//! ```text
//! SCA_BLESS=1 cargo test --test verify_expectations
//! ```
//!
//! and review the fixture diff like any other code change (see
//! `DESIGN.md`, "Static leakage model").

use std::path::PathBuf;

use sbox_leakage::circuits::{SboxCircuit, Scheme};
use sbox_leakage::verify::{analyze, expect, report};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verify")
}

#[test]
fn static_reports_match_the_pinned_expectations() {
    let mut failures = Vec::new();
    for scheme in Scheme::ALL {
        let analysis = analyze(&SboxCircuit::build(scheme));
        let actual = report::json(&analysis);
        let path = expect::expectation_path(&golden_dir(), scheme.label());
        if expect::blessing() {
            expect::bless(&path, &actual).expect("write fixture");
            continue;
        }
        if let Err(drift) = expect::check(&path, &actual) {
            failures.push(format!("{scheme}: {drift}"));
        }
    }
    assert!(
        failures.is_empty(),
        "static reports drifted from tests/golden/verify \
         (re-bless with SCA_BLESS=1 after review):\n{}",
        failures.join("\n")
    );
}
