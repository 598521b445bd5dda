//! Quickstart: build a masked S-box, capture the paper's trace protocol
//! through the campaign engine, and project the class means onto the
//! Walsh–Hadamard basis.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The campaign persists the acquired traces under `results/traces/`;
//! run the example twice and the second run serves them from the cache
//! without simulating (see the campaign report it prints).

use campaign::{Campaign, CampaignConfig};
use sbox_circuits::{SboxCircuit, Scheme};

fn main() {
    // 1. Build a gate-level netlist of the ISW-masked PRESENT S-box.
    let circuit = SboxCircuit::build(Scheme::Isw);
    let stats = circuit.netlist().stats();
    println!("netlist: {stats}\n");

    // 2. Check it actually computes the S-box under the masks.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(1);
    let inputs = circuit.encoding().encode(0x6, &mut rng);
    let outputs = circuit.netlist().evaluate(&inputs);
    let unmasked = circuit.encoding().unmask_output(&inputs, &outputs);
    println!(
        "S(0x6) = {:X} (reference {:X})\n",
        unmasked,
        present_cipher::sbox(0x6)
    );

    // 3. Acquire the paper's 1024-trace protocol (parallel, cached) and
    //    compute the leakage.
    let mut campaign = Campaign::new(CampaignConfig::default());
    let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);
    let spectrum = &outcome.spectrum;
    println!(
        "total leakage power      : {:.4e}",
        spectrum.total_leakage_power()
    );
    println!(
        "single-bit contribution  : {:.4e} ({:.1}%)",
        spectrum.total_single_bit(),
        100.0 * spectrum.single_bit_ratio()
    );
    println!("strongest leakage sources:");
    for (u, e) in spectrum.dominant_sources().iter().take(3) {
        println!("  u = {u:2} ({u:04b}): {e:.4e}");
    }
    println!();
    let _ = campaign.finish();
}
