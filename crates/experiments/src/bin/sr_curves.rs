//! Success-rate curves: CPA success probability versus trace count, per
//! implementation — the classic security graph behind the paper's claim
//! that "points of interest … increase the probability of attack
//! success".

use acquisition::ProtocolConfig;
use campaign::Campaign;
use experiments::{campaign_config, count_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;
use sca_attacks::{success_rate_curve, LeakageModel};

fn main() {
    let max_traces = count_from_args(1024);
    let key = 0x5;
    let mut campaign = Campaign::new(campaign_config(ProtocolConfig::default()));
    let mut counts: Vec<usize> = [16usize, 32, 64, 128, 256, 512, 1024]
        .into_iter()
        .filter(|&c| c <= max_traces)
        .collect();
    if counts.is_empty() {
        // A budget below the smallest snapshot (the CI fault matrix runs
        // the sweep with 2 traces) still gets one snapshot at the full
        // budget instead of tripping the empty-counts assert downstream.
        counts.push(max_traces);
    }
    let mut header = vec!["scheme".to_string()];
    header.extend(counts.iter().map(|c| format!("sr_{c}")));
    let mut csv = CsvSink::new("sr_curves", header);
    println!("CPA success rate vs traces (transition model, true key {key:X})");
    print!("{:9}", "scheme");
    for c in &counts {
        print!(" {c:>6}");
    }
    println!();
    for scheme in Scheme::ALL {
        let data = campaign.acquire_cpa(scheme, key, max_traces);
        let curve = success_rate_curve(
            &data.plaintexts,
            &data.traces,
            key,
            LeakageModel::OutputTransition,
            &counts,
            8,
        );
        print!("{:9}", scheme.label());
        for (_, sr) in &curve {
            print!(" {sr:>6.2}");
        }
        println!();
        let mut row = vec![scheme.label().to_string()];
        row.extend(curve.iter().map(|(_, sr)| format!("{sr:.3}")));
        csv.fields(row);
        eprintln!("swept {scheme}");
    }
    csv.finish();
    finish_campaign(&campaign);
}
