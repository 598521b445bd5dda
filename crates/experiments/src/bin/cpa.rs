//! CPA baseline: first-order key recovery against every implementation —
//! the attack the paper's leakage metrics predict.

use acquisition::ProtocolConfig;
use campaign::Campaign;
use experiments::{campaign_config, count_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;
use sca_attacks::{cpa_attack, guessing_entropy, success_rate_curve, LeakageModel};

fn main() {
    let traces = count_from_args(1024);
    let key = 0xB;
    let mut campaign = Campaign::new(campaign_config(ProtocolConfig::default()));

    let mut csv = CsvSink::new(
        "cpa",
        [
            "scheme",
            "model",
            "traces",
            "best_guess",
            "key_rank",
            "peak_corr",
            "guessing_entropy",
            "sr_256",
            "sr_all",
        ],
    );
    println!("CPA key recovery (true key = {key:X}, {traces} traces, transition model)");
    println!(
        "{:9} {:>6} {:>5} {:>9} {:>8} {:>8} {:>8}",
        "scheme", "guess", "rank", "peak-ρ", "GE@256", "SR@256", "SR@all"
    );
    for scheme in Scheme::ALL {
        let data = campaign.acquire_cpa(scheme, key, traces);
        // The attacker tries both standard models and keeps the stronger
        // (lower rank of the true key, then higher peak correlation).
        let (model, result) = [LeakageModel::OutputTransition, LeakageModel::HammingWeight]
            .into_iter()
            .map(|m| (m, cpa_attack(&data.plaintexts, &data.traces, m)))
            .min_by(|(_, a), (_, b)| {
                a.key_rank(key).cmp(&b.key_rank(key)).then(
                    b.scores[usize::from(b.best_guess())]
                        .total_cmp(&a.scores[usize::from(a.best_guess())]),
                )
            })
            .expect("two models");
        let rank = result.key_rank(key);
        let ge = guessing_entropy(
            &data.plaintexts,
            &data.traces,
            key,
            model,
            256.min(traces),
            8,
        );
        let sr = success_rate_curve(
            &data.plaintexts,
            &data.traces,
            key,
            model,
            &[256.min(traces), traces],
            8,
        );
        println!(
            "{:9} {:>6X} {:>5} {:>9.4} {:>8.2} {:>8.2} {:>8.2}",
            scheme.label(),
            result.best_guess(),
            rank,
            result.scores[usize::from(result.best_guess())],
            ge,
            sr[0].1,
            sr[1].1
        );
        csv.fields([
            scheme.label().to_string(),
            "transition".to_string(),
            traces.to_string(),
            format!("{:X}", result.best_guess()),
            rank.to_string(),
            format!("{:.6}", result.scores[usize::from(result.best_guess())]),
            format!("{ge:.4}"),
            format!("{:.4}", sr[0].1),
            format!("{:.4}", sr[1].1),
        ]);
        eprintln!("attacked {scheme}");
    }
    println!("\nunprotected implementations should fall to first-order CPA;");
    println!("masked ones should hold at this trace budget.");
    csv.finish();
    finish_campaign(&campaign);
}
