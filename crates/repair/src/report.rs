//! Repair-episode reports: a human narrative and a byte-stable JSON
//! document.
//!
//! Like `sca_verify::report`, the JSON is hand-rolled (the workspace is
//! offline, no serde) with fixed key order and Rust's shortest-round-trip
//! float `Display`, so identical episodes render identical bytes — the
//! property the golden suite under `tests/golden/repair/` pins.

use std::fmt::Write as _;

use sca_verify::report::json_escape;
use sca_verify::{Analysis, RuleId, Severity};

use crate::confirm::Confirmation;
use crate::search::RepairOutcome;

/// Version tag of the JSON schema, bumped on layout changes so stale
/// pinned expectations fail loudly rather than diffing confusingly.
pub const SCHEMA: &str = "sca-repair/1";

fn severity_counts(a: &Analysis) -> (usize, usize, usize) {
    let of = |s: Severity| a.diagnostics.iter().filter(|d| d.severity == s).count();
    (
        of(Severity::Error),
        of(Severity::Warning),
        of(Severity::Advice),
    )
}

fn json_analysis_summary(out: &mut String, key: &str, a: &Analysis, indent: &str) {
    let (errors, warnings, advice) = severity_counts(a);
    let _ = writeln!(out, "{indent}\"{key}\": {{");
    let _ = writeln!(out, "{indent}  \"errors\": {errors},");
    let _ = writeln!(out, "{indent}  \"warnings\": {warnings},");
    let _ = writeln!(out, "{indent}  \"advice\": {advice},");
    let _ = writeln!(out, "{indent}  \"depth\": \"{}\",", a.depth.label());
    let _ = writeln!(out, "{indent}  \"error_rules\": [");
    let error_rules: Vec<RuleId> = RuleId::ALL
        .into_iter()
        .filter(|r| r.severity() == Severity::Error && a.count(*r) > 0)
        .collect();
    for (i, rule) in error_rules.iter().enumerate() {
        let comma = if i + 1 < error_rules.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{indent}    {{\"rule\": \"{}\", \"count\": {}, \"max_measure\": {}}}{comma}",
            rule.code(),
            a.count(*rule),
            a.max_measure(*rule)
        );
    }
    let _ = writeln!(out, "{indent}  ]");
    let _ = writeln!(out, "{indent}}},");
}

/// Render the stable JSON document for one repair episode, optionally
/// with its dynamic confirmation.
pub fn json(outcome: &RepairOutcome, confirmation: Option<&Confirmation>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"subject\": \"{}\",", json_escape(&outcome.label));
    let _ = writeln!(
        out,
        "  \"netlist\": \"{}\",",
        json_escape(&outcome.initial.netlist_name)
    );
    let _ = writeln!(out, "  \"repaired\": {},", outcome.repaired);
    json_analysis_summary(&mut out, "initial", &outcome.initial, "  ");
    let _ = writeln!(out, "  \"patch_trace\": [");
    for (i, step) in outcome.steps.iter().enumerate() {
        let comma = if i + 1 < outcome.steps.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"step\": {},", i + 1);
        let _ = writeln!(out, "      \"patch\": \"{}\",", json_escape(&step.patch));
        let _ = writeln!(
            out,
            "      \"description\": \"{}\",",
            json_escape(&step.description)
        );
        let _ = writeln!(out, "      \"cost_fj\": {},", step.cost_fj);
        let _ = writeln!(out, "      \"added_gates\": {},", step.added_gates);
        let _ = writeln!(out, "      \"added_inputs\": {},", step.added_inputs);
        let _ = writeln!(out, "      \"errors_before\": {},", step.errors_before);
        let _ = writeln!(out, "      \"errors_after\": {}", step.errors_after);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    json_analysis_summary(&mut out, "final", &outcome.final_analysis, "  ");
    let _ = writeln!(out, "  \"total_cost_fj\": {},", outcome.total_cost_fj);
    let _ = writeln!(out, "  \"candidates_tried\": {},", outcome.candidates_tried);
    let _ = writeln!(out, "  \"skipped\": [");
    for (i, s) in outcome.skipped.iter().enumerate() {
        let comma = if i + 1 < outcome.skipped.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{}\"{comma}", json_escape(s));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"effort\": {{");
    let _ = writeln!(out, "    \"reanalyses\": {},", outcome.effort.reanalyses);
    let _ = writeln!(out, "    \"dirty_gates\": {},", outcome.effort.dirty_gates);
    let _ = writeln!(out, "    \"total_gates\": {}", outcome.effort.total_gates);
    let _ = writeln!(out, "  }},");
    match confirmation {
        Some(c) => {
            let _ = writeln!(out, "  \"confirmation\": {{");
            let _ = writeln!(out, "    \"traces\": {},", c.traces);
            let _ = writeln!(out, "    \"samples\": {},", c.samples);
            let _ = writeln!(out, "    \"base_nicv_max\": {},", c.base_nicv_max);
            let _ = writeln!(out, "    \"repaired_nicv_max\": {},", c.repaired_nicv_max);
            let _ = writeln!(out, "    \"delta\": {}", c.delta);
            let _ = writeln!(out, "  }}");
        }
        None => {
            let _ = writeln!(out, "  \"confirmation\": null");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render the human-readable episode narrative.
pub fn human(outcome: &RepairOutcome, confirmation: Option<&Confirmation>) -> String {
    let mut out = String::new();
    let (errors, warnings, _) = severity_counts(&outcome.initial);
    let _ = writeln!(
        out,
        "{} ({}): {} error(s), {} warning(s) before repair",
        outcome.label, outcome.initial.netlist_name, errors, warnings
    );
    for (i, step) in outcome.steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  step {}: {} [{:.1} fJ, +{} gates, +{} fresh] errors {} -> {}",
            i + 1,
            step.patch,
            step.cost_fj,
            step.added_gates,
            step.added_inputs,
            step.errors_before,
            step.errors_after
        );
        let _ = writeln!(out, "          {}", step.description);
    }
    let (errors, warnings, _) = severity_counts(&outcome.final_analysis);
    let verdict = if outcome.repaired {
        "REPAIRED"
    } else {
        "NOT REPAIRED"
    };
    let _ = writeln!(
        out,
        "  {verdict}: {} error(s), {} warning(s) remain; total cost {:.1} fJ over {} candidate(s)",
        errors, warnings, outcome.total_cost_fj, outcome.candidates_tried
    );
    if outcome.effort.reanalyses > 0 {
        let _ = writeln!(
            out,
            "  incremental effort: {} re-analyses touched {}/{} gate statistics",
            outcome.effort.reanalyses, outcome.effort.dirty_gates, outcome.effort.total_gates
        );
    }
    if let Some(c) = confirmation {
        let _ = writeln!(
            out,
            "  dynamic confirmation: peak NICV {:.6} -> {:.6} (delta {:+.6}) over {} traces",
            c.base_nicv_max, c.repaired_nicv_max, c.delta, c.traces
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{repair, SearchConfig};
    use sbox_circuits::{SboxCircuit, Scheme};
    use sca_verify::Subject;

    #[test]
    fn json_is_byte_stable_and_carries_the_schema() {
        let subject = Subject::of_circuit(&SboxCircuit::build(Scheme::Ti));
        let a = repair(&subject, &SearchConfig::default());
        let b = repair(&subject, &SearchConfig::default());
        assert_eq!(json(&a, None), json(&b, None));
        assert!(json(&a, None).starts_with("{\n  \"schema\": \"sca-repair/1\""));
        let h = human(&a, None);
        assert!(h.contains("REPAIRED"), "{h}");
    }
}
