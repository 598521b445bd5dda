//! Compare all seven S-box implementations on one die: area, depth,
//! switching energy and Walsh–Hadamard leakage — a compact version of the
//! paper's Figs. 6/7.
//!
//! ```sh
//! cargo run --release --example masking_comparison
//! ```

use campaign::{Campaign, CampaignConfig};
use sbox_circuits::{SboxCircuit, Scheme};

fn main() {
    let mut campaign = Campaign::new(CampaignConfig::default());
    println!(
        "{:9} {:>6} {:>9} {:>7} {:>12} {:>12} {:>9}",
        "scheme", "gates", "equ", "depth", "total-leak", "multi-bit", "1b-ratio"
    );
    let mut ranking = Vec::new();
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let stats = circuit.netlist().stats();
        let outcome = campaign.acquire_aged(scheme, 0.0);
        let sp = &outcome.spectrum;
        println!(
            "{:9} {:>6} {:>9.1} {:>7} {:>12.4e} {:>12.4e} {:>9.3}",
            scheme.label(),
            stats.total_gates,
            stats.equivalent_gates,
            stats.delay_gates,
            sp.total_leakage_power(),
            sp.total_multi_bit(),
            sp.single_bit_ratio()
        );
        ranking.push((scheme, sp.total_leakage_power()));
    }
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("\nsecurity ranking at the paper's 1024-trace budget (best first):");
    for (i, (scheme, leak)) in ranking.iter().enumerate() {
        println!("  {}. {:8} {:.4e}", i + 1, scheme.label(), leak);
    }
    println!();
    let _ = campaign.finish();
}
