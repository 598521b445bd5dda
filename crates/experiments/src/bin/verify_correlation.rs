//! Static-vs-dynamic cross-validation of the `sca-verify` glitch model.
//!
//! For every scheme, each gate gets two numbers:
//!
//! * **static** — the analyzer's energy-weighted glitch score
//!   (`sca_verify::Scores::gate_glitch`), computed from the netlist alone;
//! * **dynamic** — the multi-bit spectral leakage of the gate's switching
//!   energy: drive the event-driven simulator over the paper's classified
//!   stimulus protocol, average each gate's per-transition supply energy
//!   per class, Walsh–Hadamard-transform the 16 class means, and keep
//!   `Σ a_u²` over the glitch modes `wH(u) > 1`.
//!
//! The two are rank-correlated (Spearman, midranks for ties) per scheme
//! and pooled; rows go to `results/verify/correlation.csv`, the scheme
//! summary to `results/verify/correlation_summary.csv`. A positive pooled
//! coefficient is the acceptance bar: the static model must rank gates
//! the way the simulator actually leaks.

use acquisition::{classified_schedule, ProtocolConfig, NUM_CLASSES};
use experiments::{protocol_from_args, sci, CsvSink};
use gatesim::Simulator;
use leakage_core::{spectrum_of, stats::spearman};
use sbox_circuits::{SboxCircuit, Scheme};
use sca_verify::analyze;

/// Per-gate dynamic multi-bit spectral leakage under the classified
/// stimulus protocol (fJ² in spectral units).
fn dynamic_multibit(circuit: &SboxCircuit, config: &ProtocolConfig) -> Vec<f64> {
    let netlist = circuit.netlist();
    let sim = Simulator::new(netlist, &config.sim);
    let mut session = sim.session();
    let mut energy = vec![[0.0f64; NUM_CLASSES]; netlist.gates().len()];
    let mut counts = [0usize; NUM_CLASSES];
    for stimulus in classified_schedule(circuit, config) {
        let record = session.transition(&stimulus.initial, &stimulus.final_inputs);
        let class = usize::from(stimulus.label);
        counts[class] += 1;
        for e in &record.events {
            energy[e.gate.index()][class] += e.energy_fj;
        }
    }
    energy
        .iter()
        .map(|per_class| {
            let means: Vec<f64> = per_class
                .iter()
                .zip(&counts)
                .map(|(&sum, &n)| sum / n as f64)
                .collect();
            spectrum_of(&means)
                .iter()
                .enumerate()
                .filter(|(u, _)| u.count_ones() > 1)
                .map(|(_, &a)| a * a)
                .sum()
        })
        .collect()
}

fn main() {
    let config = protocol_from_args();

    let mut csv = CsvSink::new(
        "verify/correlation",
        [
            "scheme",
            "gate",
            "cell",
            "net",
            "static_glitch",
            "dynamic_multibit",
        ],
    );
    let mut summary = CsvSink::new(
        "verify/correlation_summary",
        [
            "scheme",
            "gates",
            "spearman",
            "static_score",
            "dynamic_multibit_total",
        ],
    );
    println!(
        "static-vs-dynamic glitch cross-validation, {} traces/class",
        config.traces_per_class
    );
    println!(
        "{:9} {:>6} {:>10} {:>14} {:>14}",
        "scheme", "gates", "spearman", "static", "dyn multi-bit"
    );

    let mut pooled_static = Vec::new();
    let mut pooled_dynamic = Vec::new();
    let mut static_scores = Vec::new();
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let analysis = analyze(&circuit);
        let dynamic = dynamic_multibit(&circuit, &config);
        let statics = &analysis.scores.gate_glitch;
        assert_eq!(statics.len(), dynamic.len());

        let netlist = circuit.netlist();
        for (g, (&s, &d)) in statics.iter().zip(&dynamic).enumerate() {
            let gate = &netlist.gates()[g];
            csv.fields([
                scheme.label().to_string(),
                g.to_string(),
                gate.cell().mnemonic().to_string(),
                netlist.nets()[gate.output().index()]
                    .name()
                    .unwrap_or("?")
                    .to_string(),
                format!("{s:.6e}"),
                format!("{d:.6e}"),
            ]);
        }

        let rho = spearman(statics, &dynamic);
        let dyn_total: f64 = dynamic.iter().sum();
        println!(
            "{:9} {:>6} {:>10.4} {:>14} {:>14}",
            scheme.label(),
            statics.len(),
            rho,
            sci(analysis.scores.scheme_score()),
            sci(dyn_total)
        );
        summary.fields([
            scheme.label().to_string(),
            statics.len().to_string(),
            format!("{rho:.6}"),
            format!("{:.6e}", analysis.scores.scheme_score()),
            format!("{dyn_total:.6e}"),
        ]);
        static_scores.push((scheme, analysis.scores.scheme_score()));
        pooled_static.extend_from_slice(statics);
        pooled_dynamic.extend(dynamic);
    }

    let pooled = spearman(&pooled_static, &pooled_dynamic);
    println!(
        "\npooled Spearman over {} gates: {pooled:.4}",
        pooled_static.len()
    );
    summary.fields([
        "ALL".to_string(),
        pooled_static.len().to_string(),
        format!("{pooled:.6}"),
        String::new(),
        String::new(),
    ]);
    assert!(
        pooled > 0.0,
        "static glitch scores must rank with dynamic multi-bit leakage"
    );

    println!("\nstatic scheme ordering (most leaky first):");
    static_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (scheme, score) in &static_scores {
        println!("  {:8} {}", scheme.label(), sci(*score));
    }

    csv.finish();
    summary.finish();
}
