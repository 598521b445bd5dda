//! Report rendering: a human-readable table and a byte-stable JSON
//! document.
//!
//! The JSON layout is hand-rolled (the workspace is offline, no serde)
//! with a fixed key order, deterministic float formatting (Rust's
//! shortest-round-trip `Display`), and witness lists capped at
//! [`MAX_WITNESSES`] per rule — so two runs over the same netlist produce
//! byte-identical documents, which is what the pinned CI expectations
//! diff against.

use std::fmt::Write as _;

use crate::analyze::Analysis;
use crate::rules::{Diagnostic, RuleId};
use crate::score::COMPOSITION_WEIGHT;

/// Most witnesses (strongest-first) retained per rule in the JSON
/// report; the summary keeps the full count and max measure.
pub const MAX_WITNESSES: usize = 16;

/// Version tag of the JSON schema, bumped on layout changes so stale
/// pinned expectations fail loudly rather than diffing confusingly.
/// `/2` added the `depth` field and the TRANSITION-HD / SHARE-UNIFORM
/// rule entries.
pub const SCHEMA: &str = "sca-verify/2";

/// `s` escaped for a JSON string body (without the quotes): `"`, `\`,
/// newline and every other control character. Shared by the verify and
/// repair reports, whose bytes the golden suites pin.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn verdict(secure: bool) -> &'static str {
    if secure {
        "secure"
    } else {
        "leaky"
    }
}

fn json_diag(d: &Diagnostic) -> String {
    let gate = match d.location.gate {
        Some(g) => g.to_string(),
        None => "null".to_string(),
    };
    let cell = match d.location.cell {
        Some(c) => format!("\"{}\"", json_escape(c)),
        None => "null".to_string(),
    };
    let witness: Vec<String> = d
        .witness
        .iter()
        .map(|w| format!("\"{}\"", json_escape(w)))
        .collect();
    format!(
        "{{\"gate\": {gate}, \"cell\": {cell}, \"net\": {net}, \"net_name\": \"{name}\", \"measure\": {measure}, \"witness\": [{wit}], \"message\": \"{msg}\"}}",
        net = d.location.net,
        name = json_escape(&d.location.net_name),
        measure = d.measure,
        wit = witness.join(", "),
        msg = json_escape(&d.message),
    )
}

/// Render the stable JSON report.
pub fn json(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"scheme\": \"{}\",", json_escape(&a.label));
    let _ = writeln!(out, "  \"netlist\": \"{}\",", json_escape(&a.netlist_name));
    let _ = writeln!(out, "  \"gates\": {},", a.gates);
    let _ = writeln!(out, "  \"nets\": {},", a.nets);
    let _ = writeln!(out, "  \"mask_bits\": {},", a.mask_bits);
    let _ = writeln!(out, "  \"depth\": \"{}\",", a.depth.label());
    let _ = writeln!(out, "  \"verdicts\": {{");
    let _ = writeln!(
        out,
        "    \"value_first_order\": \"{}\",",
        verdict(a.verdicts.value_first_order)
    );
    let _ = writeln!(
        out,
        "    \"glitch_local\": \"{}\",",
        verdict(a.verdicts.glitch_local)
    );
    let _ = writeln!(
        out,
        "    \"gx_boundary\": \"{}\",",
        verdict(a.verdicts.gx_boundary)
    );
    let _ = writeln!(
        out,
        "    \"glitch_first_order\": \"{}\"",
        verdict(a.verdicts.glitch_first_order())
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"score\": {{");
    let _ = writeln!(out, "    \"local\": {},", a.scores.local);
    let _ = writeln!(out, "    \"exposure\": {},", a.scores.exposure);
    let _ = writeln!(out, "    \"total\": {},", a.scores.scheme_score());
    let _ = writeln!(out, "    \"composition_weight\": {COMPOSITION_WEIGHT},");
    let _ = writeln!(
        out,
        "    \"energy_weight_total_fj\": {}",
        a.scores.energy_weight_total
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"rules\": [");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        let diags = a.of_rule(*rule);
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"rule\": \"{}\",", rule.code());
        let _ = writeln!(out, "      \"severity\": \"{}\",", rule.severity().label());
        let _ = writeln!(out, "      \"count\": {},", diags.len());
        let _ = writeln!(out, "      \"max_measure\": {},", a.max_measure(*rule));
        if diags.is_empty() {
            let _ = writeln!(out, "      \"witnesses\": []");
        } else {
            let _ = writeln!(out, "      \"witnesses\": [");
            let shown = diags.len().min(MAX_WITNESSES);
            for (j, d) in diags[..shown].iter().enumerate() {
                let comma = if j + 1 < shown { "," } else { "" };
                let _ = writeln!(out, "        {}{comma}", json_diag(d));
            }
            let _ = writeln!(out, "      ]");
        }
        let comma = if i + 1 < RuleId::ALL.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Render the human-readable report table.
pub fn human(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({}): {} gates, {} nets, mask space 2^{}, {} depth",
        a.label,
        a.netlist_name,
        a.gates,
        a.nets,
        a.mask_bits,
        a.depth.label()
    );
    let _ = writeln!(
        out,
        "  verdicts: value={} glitch-local={} boundary={} glitch-extended={}",
        verdict(a.verdicts.value_first_order),
        verdict(a.verdicts.glitch_local),
        verdict(a.verdicts.gx_boundary),
        verdict(a.verdicts.glitch_first_order()),
    );
    let _ = writeln!(
        out,
        "  score: local={:.6} exposure={:.6} total={:.6}",
        a.scores.local,
        a.scores.exposure,
        a.scores.scheme_score()
    );
    let _ = writeln!(
        out,
        "  {:<13} {:<8} {:>6} {:>8}  finding",
        "rule", "severity", "count", "max"
    );
    for rule in RuleId::ALL {
        let count = a.count(rule);
        let max = if count == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", a.max_measure(rule))
        };
        let _ = writeln!(
            out,
            "  {:<13} {:<8} {:>6} {:>8}  {}",
            rule.code(),
            rule.severity().label(),
            count,
            max,
            rule.summary()
        );
    }
    let top: Vec<&Diagnostic> = a
        .diagnostics
        .iter()
        .filter(|d| d.severity == crate::rules::Severity::Error)
        .take(5)
        .collect();
    if !top.is_empty() {
        let _ = writeln!(out, "  strongest findings:");
        for d in top {
            let gate = match d.location.gate {
                Some(g) => format!("gate {g}"),
                None => "port".to_string(),
            };
            let _ = writeln!(
                out,
                "    [{}] {} {} ({}): {}",
                d.rule.code(),
                gate,
                d.location.net_name,
                d.location.cell.unwrap_or("-"),
                d.message
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use sbox_circuits::{SboxCircuit, Scheme};

    #[test]
    fn json_is_byte_stable_across_runs() {
        let a1 = analyze(&SboxCircuit::build(Scheme::Rsm));
        let a2 = analyze(&SboxCircuit::build(Scheme::Rsm));
        assert_eq!(json(&a1), json(&a2));
        assert_eq!(human(&a1), human(&a2));
    }

    #[test]
    fn json_mentions_every_rule_exactly_once() {
        let a = analyze(&SboxCircuit::build(Scheme::Isw));
        let j = json(&a);
        for rule in RuleId::ALL {
            assert_eq!(
                j.matches(&format!("\"rule\": \"{}\"", rule.code())).count(),
                1
            );
        }
        assert!(j.starts_with("{\n  \"schema\": \"sca-verify/2\""));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
