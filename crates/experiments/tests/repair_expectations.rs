//! Pinned repair episodes: the `repair` binary's JSON report of every
//! suite subject, byte for byte, and the invariants each episode must
//! keep.
//!
//! The fixtures under `tests/golden/repair/` are the documents `repair`
//! writes to `results/repair/` at its default confirmation budget: patch
//! trace, costs, incremental effort and NICV confirmation. Regenerate
//! them after a reviewed change to the searcher or the generators with:
//!
//! ```text
//! SCA_BLESS=1 cargo test -p experiments --test repair_expectations
//! ```
//!
//! and review the fixture diff like any other code change.

use std::path::PathBuf;

use experiments::repair_suite::{build_subject, episode, CONFIRM_TPC, SUBJECTS};
use sca_repair::search::functionally_equivalent;
use sca_repair::{confirm::MAX_CLASSES, report};
use sca_verify::expect;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/repair"
    ))
}

#[test]
fn repair_episodes_match_the_pinned_reports_and_keep_their_invariants() {
    let mut failures = Vec::new();
    for name in SUBJECTS {
        let subject = build_subject(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (outcome, confirmation) =
            episode(&subject, CONFIRM_TPC).unwrap_or_else(|e| panic!("{name}: {e}"));
        let actual = report::json(&outcome, confirmation.as_ref());

        // Determinism: a second full episode renders identical bytes.
        let (again, again_confirmation) =
            episode(&subject, CONFIRM_TPC).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            actual,
            report::json(&again, again_confirmation.as_ref()),
            "{name}: repair episode is not deterministic"
        );
        // Every suite subject ends free of Error findings.
        assert!(
            outcome.repaired,
            "{name}: not repaired (skipped: {:?})",
            outcome.skipped
        );
        // A repair never changes the computed function.
        assert!(
            functionally_equivalent(&subject, &outcome.subject, 256),
            "{name}: repair changed the computed function"
        );
        // The incremental engine's accepted-path analysis agrees with a
        // from-scratch analysis of the repaired netlist.
        assert_eq!(
            sca_verify::report::json(&sca_verify::analyze_subject(&outcome.subject)),
            sca_verify::report::json(&outcome.final_analysis),
            "{name}: incremental final analysis drifted from from-scratch"
        );
        // The repair must not raise the NICV peak beyond the estimator's
        // small-sample noise. With K classes and N traces the estimate
        // carries a bias floor near (K-1)/N, so glitch-targeted repairs
        // (invisible to the transition-power model) wobble within it; a
        // repair that recombined shares would jump far outside it.
        if let Some(c) = confirmation {
            let classes = subject.num_classes().min(MAX_CLASSES) as f64;
            let tol = 2.0 * (classes - 1.0) / c.traces as f64;
            assert!(
                c.repaired_nicv_max <= c.base_nicv_max + tol,
                "{name}: repaired NICV peak rose past noise ({} -> {}, tol {tol})",
                c.base_nicv_max,
                c.repaired_nicv_max
            );
        }

        let path = expect::expectation_path(&golden_dir(), name);
        if expect::blessing() {
            expect::bless(&path, &actual).expect("write fixture");
        } else if let Err(drift) = expect::check(&path, &actual) {
            failures.push(format!("{name}: {drift}"));
        }
    }
    assert!(
        failures.is_empty(),
        "repair episodes drifted from tests/golden/repair \
         (re-bless with SCA_BLESS=1 after review):\n{}",
        failures.join("\n")
    );
}
