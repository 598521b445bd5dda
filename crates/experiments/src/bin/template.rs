//! Profiled template attack per implementation: the strongest first-order
//! adversary, needing no leakage model at all.
//!
//! Profiling uses a clone device with a known key; the attack set comes
//! from the target. Unprotected circuits must fall with a handful of
//! traces; masked ones force the adversary to higher orders.

use acquisition::ProtocolConfig;
use campaign::Campaign;
use experiments::{campaign_config, count_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;
use sca_attacks::template::{template_attack, TemplateSet};

fn main() {
    let attack_traces = count_from_args(256);
    let key = 0xA;
    // Profiling set on the clone (same die model, different mask seed);
    // the attack set, with the secret key folded in, from the target.
    let mut clone = Campaign::new(campaign_config(ProtocolConfig {
        seed: 0xFACE,
        ..ProtocolConfig::default()
    }));
    let mut target = Campaign::new(campaign_config(ProtocolConfig::default()));
    let mut csv = CsvSink::new(
        "template",
        ["scheme", "attack_traces", "best_guess", "rank"],
    );
    println!("template attack (profiling: 64/class on a clone; true key {key:X})");
    println!(
        "{:9} {:>7} {:>6} {:>5}",
        "scheme", "traces", "guess", "rank"
    );
    for scheme in Scheme::ALL {
        let templates = TemplateSet::profile(&clone.acquire_aged(scheme, 0.0).traces);
        let data = target.acquire_cpa(scheme, key, attack_traces);
        let result = template_attack(&templates, &data.plaintexts, &data.traces);
        println!(
            "{:9} {:>7} {:>6X} {:>5}",
            scheme.label(),
            attack_traces,
            result.best_guess(),
            result.key_rank(key)
        );
        csv.fields([
            scheme.label().to_string(),
            attack_traces.to_string(),
            format!("{:X}", result.best_guess()),
            result.key_rank(key).to_string(),
        ]);
        eprintln!("attacked {scheme}");
    }
    println!("\nprofiled attacks need no leakage model: every unprotected circuit");
    println!("must fall; the masked ones survive first-order template matching.");
    csv.finish();
    finish_campaign(&clone);
    finish_campaign(&target);
}
