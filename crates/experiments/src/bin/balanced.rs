//! Glitch ablation via delay balancing: re-run the leakage study on
//! buffer-balanced variants of each netlist.
//!
//! The paper's introduction contrasts two schools: *eliminate* glitches
//! (conservative, e.g. GliFreD) versus *tolerate* them (TI). This
//! experiment quantifies the split directly: whatever leakage survives
//! delay balancing is value/amplitude leakage; the remainder was
//! glitch-borne.

use campaign::Subject;
use experiments::{campaign_from_args, finish_campaign, sci, CsvSink};
use sbox_circuits::{SboxCircuit, Scheme};
use sbox_netlist::timing;
use sbox_netlist::transform::balance_delays;
use sca_frontend::netlist_digest;

fn main() {
    let mut campaign = campaign_from_args();
    let mut csv = CsvSink::new(
        "balanced",
        [
            "scheme",
            "leak_plain",
            "leak_balanced",
            "skew_plain_ps",
            "skew_balanced_ps",
            "gates_plain",
            "gates_balanced",
        ],
    );
    println!(
        "Delay-balancing ablation ({} traces/class)",
        campaign.config().protocol.traces_per_class
    );
    println!(
        "{:9} {:>12} {:>12} {:>9} {:>10} {:>8} {:>9}",
        "scheme", "plain", "balanced", "skew(ps)", "skew-bal", "gates", "gates-bal"
    );
    // RSM-ROM's synchronization chains already are its balancing; the
    // giant tabulated netlists balloon under buffering — study the four
    // compact schemes where the question is sharpest.
    for scheme in [Scheme::Lut, Scheme::Opt, Scheme::Isw, Scheme::Ti] {
        let plain = SboxCircuit::build(scheme);
        let skew_plain = timing::analyze(plain.netlist()).total_skew_ps(plain.netlist());
        let balanced_nl = balance_delays(plain.netlist(), 6.0).expect("balance");
        let skew_bal = timing::analyze(&balanced_nl).total_skew_ps(&balanced_nl);
        let gates_plain = plain.netlist().gates().len();
        let gates_bal = balanced_nl.gates().len();
        let balanced = SboxCircuit::from_parts(scheme, balanced_nl);

        let leak_plain = campaign
            .acquire_aged(scheme, 0.0)
            .spectrum
            .total_leakage_power();
        // Cached under the buffered netlist's content hash, as imported
        // designs are: a change to the balancing pass misses the store.
        let label = format!(
            "balanced-{}-{:016x}",
            scheme.label().to_lowercase(),
            netlist_digest(balanced.netlist())
        );
        let subject = Subject::Imported {
            circuit: &balanced,
            label: &label,
        };
        let leak_balanced = campaign
            .acquire_aged(subject, 0.0)
            .spectrum
            .total_leakage_power();
        println!(
            "{:9} {:>12} {:>12} {:>9.0} {:>10.0} {:>8} {:>9}",
            scheme.label(),
            sci(leak_plain),
            sci(leak_balanced),
            skew_plain,
            skew_bal,
            gates_plain,
            gates_bal
        );
        csv.fields([
            scheme.label().to_string(),
            format!("{leak_plain:.6e}"),
            format!("{leak_balanced:.6e}"),
            format!("{skew_plain:.1}"),
            format!("{skew_bal:.1}"),
            gates_plain.to_string(),
            gates_bal.to_string(),
        ]);
        eprintln!("balanced {scheme}");
    }
    println!(
        "\nleakage removed by balancing is glitch-borne; the remainder is value/amplitude leakage."
    );
    csv.finish();
    finish_campaign(&campaign);
}
