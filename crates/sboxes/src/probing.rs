//! First-order probing analysis of the masked netlists.
//!
//! For every internal net, compute the conditional distribution of its
//! *value* given the unmasked class `t`, exhaustively over the mask space.
//! A net whose distribution depends on `t` is a first-order probe point:
//! an adversary measuring just that net's (average) value learns something
//! about the secret. This is the "bit probing model" the paper notes
//! masking schemes are usually assessed in — and the static counterpart of
//! the dynamic (glitch) leakage the simulator measures.
//!
//! # Deprecation note
//!
//! This module is kept for API stability, but it is now a thin wrapper
//! over [`crate::exhaustive`], which performs the same enumeration once
//! and also collects the per-gate fan-in joint distributions the
//! `sca-verify` crate needs for glitch-extended probing. New analyses
//! should consume [`crate::exhaustive::SweepCounts`] (or the `sca-verify`
//! diagnostics) directly; the value-bias numbers here are bit-identical
//! to [`crate::exhaustive::SweepCounts::net_value_bias`].

use sbox_netlist::Netlist;

use crate::SboxCircuit;

/// The probing profile of one netlist: per-net worst-case bias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbingProfile {
    /// For each net: `max_t |P(net = 1 | t) − P(net = 1 | 0)|` over all
    /// classes, with the probability taken over the full mask space.
    pub value_bias: Vec<f64>,
}

impl ProbingProfile {
    /// The largest bias over all *driven* (internal/output) nets.
    pub fn max_bias(&self, netlist: &Netlist) -> f64 {
        self.value_bias
            .iter()
            .enumerate()
            .filter(|(i, _)| netlist.nets()[*i].driver().is_some())
            .map(|(_, &b)| b)
            .fold(0.0, f64::max)
    }
}

/// Exhaustively evaluate the circuit over its whole (class × mask) space
/// and profile every net's class-conditional value distribution.
///
/// # Panics
///
/// Panics if the scheme has more than 16 mask bits (the enumeration would
/// exceed 2²⁰ evaluations).
pub fn analyze(circuit: &SboxCircuit) -> ProbingProfile {
    let counts = crate::exhaustive::sweep(circuit);
    ProbingProfile {
        value_bias: counts.net_value_bias(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    #[test]
    fn unprotected_nets_are_maximally_biased() {
        let profile = analyze(&SboxCircuit::build(Scheme::Opt));
        let circuit = SboxCircuit::build(Scheme::Opt);
        // With no masks, every output net's value is a deterministic
        // function of t: bias 1 for at least one net.
        assert_eq!(profile.max_bias(circuit.netlist()), 1.0);
    }

    #[test]
    fn isw_nets_are_unbiased_in_the_value_domain() {
        // ISW's first-order security: every single wire's value
        // distribution is class-independent (the leakage the paper finds
        // is *dynamic* — glitches — not value bias).
        let circuit = SboxCircuit::build(Scheme::Isw);
        let profile = analyze(&circuit);
        assert!(
            profile.max_bias(circuit.netlist()) < 1e-9,
            "max bias {}",
            profile.max_bias(circuit.netlist())
        );
    }

    #[test]
    fn ti_nets_are_unbiased_in_the_value_domain() {
        let circuit = SboxCircuit::build(Scheme::Ti);
        let profile = analyze(&circuit);
        assert!(
            profile.max_bias(circuit.netlist()) < 1e-9,
            "max bias {}",
            profile.max_bias(circuit.netlist())
        );
    }

    #[test]
    fn tabulated_masking_has_static_product_bias() {
        // The flat SOP of a masked table necessarily contains product
        // terms that pin (A_i, MI_i) pairs — their mean activity is
        // class-dependent. This is the structural root of the paper's
        // "tabulated masking provides less security" finding.
        let circuit = SboxCircuit::build(Scheme::Rsm);
        let profile = analyze(&circuit);
        let max = profile.max_bias(circuit.netlist());
        assert!(max > 0.01, "expected product-term bias, got {max}");
        // But the *outputs* stay perfectly masked.
        for (_, net) in circuit.netlist().outputs() {
            assert!(
                profile.value_bias[net.index()] < 1e-9,
                "masked output is biased"
            );
        }
    }
}
