//! Higher-order attack demonstration (paper §II-A: "implementations that
//! are protected against dth-order attacks can be still vulnerable to
//! higher-order attacks"): first- vs second-order CPA against ISW.

use acquisition::ProtocolConfig;
use campaign::Campaign;
use experiments::{campaign_config, count_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;
use sca_attacks::second_order::{second_order_cpa, window_pairs};
use sca_attacks::{cpa_attack, LeakageModel};

fn main() {
    let traces = count_from_args(2048);
    let key = 0x6;
    let mut campaign = Campaign::new(campaign_config(ProtocolConfig::default()));
    let data = campaign.acquire_cpa(Scheme::Isw, key, traces);

    println!("ISW, true key {key:X}, {traces} traces");
    let mut csv = CsvSink::new("second_order", ["order", "best_guess", "rank", "peak_corr"]);

    let first = cpa_attack(
        &data.plaintexts,
        &data.traces,
        LeakageModel::OutputTransition,
    );
    println!(
        "1st-order CPA : guess {:X}, rank {}, peak ρ {:.4}",
        first.best_guess(),
        first.key_rank(key),
        first.scores[usize::from(first.best_guess())]
    );
    csv.fields([
        "1".to_string(),
        format!("{:X}", first.best_guess()),
        first.key_rank(key).to_string(),
        format!("{:.6}", first.scores[usize::from(first.best_guess())]),
    ]);

    // Combine the active window (first 16 samples — ISW settles in ~300 ps).
    let pairs = window_pairs(0..16);
    let second = second_order_cpa(
        &data.plaintexts,
        &data.traces,
        &pairs,
        LeakageModel::OutputTransition,
    );
    println!(
        "2nd-order CPA : guess {:X}, rank {}, peak ρ {:.4}  ({} sample pairs)",
        second.best_guess(),
        second.key_rank(key),
        second.scores[usize::from(second.best_guess())],
        pairs.len()
    );
    csv.fields([
        "2".to_string(),
        format!("{:X}", second.best_guess()),
        second.key_rank(key).to_string(),
        format!("{:.6}", second.scores[usize::from(second.best_guess())]),
    ]);
    println!(
        "\nsecond-order rank {} vs first-order rank {}: the centered product\nrecombines the two ISW shares.",
        second.key_rank(key),
        first.key_rank(key)
    );
    csv.finish();
    finish_campaign(&campaign);
}
