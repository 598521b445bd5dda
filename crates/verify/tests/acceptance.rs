//! Acceptance profile: the static security portrait of the seven
//! schemes, and the scheme-level ordering against the paper's
//! TotalLeakagePower ranking.

use sbox_circuits::{SboxCircuit, Scheme};
use sca_verify::{analyze, report, Analysis};

fn portraits() -> Vec<(Scheme, Analysis)> {
    Scheme::ALL
        .iter()
        .map(|&s| (s, analyze(&SboxCircuit::build(s))))
        .collect()
}

#[test]
fn static_profiles_match_the_paper_reading() {
    // (value-secure, glitch-local-secure, boundary-secure) per scheme.
    let expected = [
        (Scheme::Lut, false, false, false),
        (Scheme::Opt, false, false, false),
        (Scheme::Glut, false, false, true),
        (Scheme::Rsm, false, false, false),
        (Scheme::RsmRom, false, false, false),
        (Scheme::Isw, true, true, true),
        (Scheme::Ti, true, true, false),
    ];
    for ((scheme, analysis), (escheme, value, local, boundary)) in portraits().iter().zip(expected)
    {
        assert_eq!(*scheme, escheme);
        assert_eq!(
            analysis.verdicts.value_first_order, value,
            "{scheme} value verdict"
        );
        assert_eq!(
            analysis.verdicts.glitch_local, local,
            "{scheme} glitch-local verdict"
        );
        assert_eq!(
            analysis.verdicts.gx_boundary, boundary,
            "{scheme} boundary verdict"
        );
    }
}

#[test]
fn headline_contrasts_hold() {
    let by_scheme = portraits();
    let get = |s: Scheme| &by_scheme.iter().find(|(x, _)| *x == s).unwrap().1;
    // Both unprotected netlists leak at first order under value probes.
    assert!(!get(Scheme::Lut).verdicts.value_first_order);
    assert!(!get(Scheme::Opt).verdicts.value_first_order);
    // TI: clean under value probes, flagged under glitch-extended ones —
    // the distinction plain value probing cannot draw.
    assert!(get(Scheme::Ti).verdicts.value_first_order);
    assert!(!get(Scheme::Ti).verdicts.glitch_first_order());
    // ISW: clean under first-order glitch-extended probing.
    assert!(get(Scheme::Isw).verdicts.glitch_first_order());
}

#[test]
fn scheme_scores_reproduce_total_leakage_power_ordering() {
    // Paper ordering: unprotected ≫ TI > GLUT/RSM/RSM-ROM > ISW.
    let by_scheme = portraits();
    let score = |s: Scheme| {
        by_scheme
            .iter()
            .find(|(x, _)| *x == s)
            .unwrap()
            .1
            .scores
            .scheme_score()
    };
    let ti = score(Scheme::Ti);
    let isw = score(Scheme::Isw);
    for unprotected in [Scheme::Lut, Scheme::Opt] {
        assert!(
            score(unprotected) > ti,
            "{unprotected} must out-leak TI statically"
        );
    }
    for tabulated in [Scheme::Glut, Scheme::Rsm, Scheme::RsmRom] {
        let s = score(tabulated);
        assert!(ti > s, "TI must out-leak {tabulated} statically");
        assert!(s > isw, "{tabulated} must out-leak ISW statically");
    }
    assert_eq!(isw, 0.0, "ISW's static glitch score is exactly zero");
}

#[test]
fn reports_are_byte_stable_across_runs() {
    for scheme in [Scheme::Opt, Scheme::Rsm, Scheme::Isw] {
        let a = analyze(&SboxCircuit::build(scheme));
        let b = analyze(&SboxCircuit::build(scheme));
        assert_eq!(report::json(&a), report::json(&b), "{scheme}");
        assert_eq!(report::human(&a), report::human(&b), "{scheme}");
    }
}
