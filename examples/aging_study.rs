//! Age a masked S-box over four years of operation: threshold drift,
//! delay/current derating, and the resulting leakage decay (paper §V-B.2).
//!
//! ```sh
//! cargo run --release --example aging_study
//! ```

use acquisition::{LeakageStudy, ProtocolConfig};
use campaign::{Campaign, CampaignConfig};
use sbox_circuits::{SboxCircuit, Scheme};

fn main() {
    let scheme = Scheme::Glut;
    let study = LeakageStudy::new(ProtocolConfig::default());
    let circuit = SboxCircuit::build(scheme);
    let device = study.aged_device(&circuit);

    println!("aging the {scheme} S-box under its own acquisition workload\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "months", "ΔVth g0 (mV)", "mean delay ×", "mean current ×"
    );
    for months in [0.0, 6.0, 12.0, 24.0, 36.0, 48.0] {
        let derating = device.derating_at_months(months);
        println!(
            "{:>6.0} {:>12.2} {:>14.4} {:>14.4}",
            months,
            1000.0 * device.delta_vth_v(0, months),
            derating.mean_delay_factor(),
            derating.mean_current_factor()
        );
    }

    println!("\nleakage over the device lifetime:");
    let mut campaign = Campaign::new(CampaignConfig::default());
    let outcomes =
        [0.0, 12.0, 24.0, 36.0, 48.0].map(|months| campaign.acquire_aged(scheme, months));
    let fresh = outcomes[0].spectrum.total_leakage_power();
    for aged in &outcomes {
        let total = aged.spectrum.total_leakage_power();
        println!(
            "  {:>3.0} months: {:.4e} ({:+.1}% vs fresh)",
            aged.age_months,
            total,
            100.0 * (total - fresh) / fresh
        );
    }
    println!("\nmasking does not weaken with age: leakage only decreases, so a");
    println!("device secure when new stays at least as secure through its lifetime.\n");
    let _ = campaign.finish();
}
