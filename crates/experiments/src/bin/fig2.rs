//! Fig. 2: average power of ISW classified by the 16 unmasked final
//! values, 100 samples over 2 ns.

use experiments::{campaign_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);
    let means = outcome.traces.class_means();

    let mut header = vec!["sample".to_string()];
    header.extend((0..16).map(|c| format!("class{c}")));
    let mut csv = CsvSink::new("fig2", header);
    println!(
        "Fig. 2 — ISW average power per class (mW), {} traces/class",
        campaign.config().protocol.traces_per_class
    );
    println!("showing every 5th of 100 samples; full resolution in results/fig2.csv");
    print!("{:>6}", "T");
    for c in 0..16 {
        print!(" {c:>7}");
    }
    println!();
    for t in 0..100 {
        if t % 5 == 0 {
            print!("{t:>6}");
            for mean in &means {
                print!(" {:>7.3}", mean[t]);
            }
            println!();
        }
        let mut row = vec![t.to_string()];
        row.extend(means.iter().map(|m| format!("{:.6}", m[t])));
        csv.fields(row);
    }
    // The headline property of the figure: the 16 class curves separate.
    let energies: Vec<f64> = means.iter().map(|m| m.iter().sum::<f64>() * 20.0).collect();
    let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = energies.iter().cloned().fold(0.0, f64::max);
    println!("class mean energies span {min:.1} – {max:.1} fJ (classes are distinguishable)");
    csv.finish();
    finish_campaign(&campaign);
}
