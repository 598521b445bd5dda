//! Fig. 6: `LeakagePower(T)` over the first 20 sample points for every
//! implementation — the "points of interest" where leakage shows up.

use experiments::{campaign_from_args, finish_campaign, sci, CsvSink};
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let mut series = Vec::new();
    for scheme in Scheme::ALL {
        let outcome = campaign.acquire_aged(scheme, 0.0);
        series.push((scheme, outcome.spectrum.leakage_power_series()));
        eprintln!("measured {scheme}");
    }

    let mut header = vec!["sample".to_string()];
    header.extend(
        Scheme::ALL
            .iter()
            .map(|s| s.label().to_lowercase().replace('-', "_")),
    );
    let mut csv = CsvSink::new("fig6", header);
    println!(
        "Fig. 6 — LeakagePower(T) = Σ_u≠0 a_u²(T), first 20 samples, {} traces/class",
        campaign.config().protocol.traces_per_class
    );
    print!("{:>4}", "T");
    for (s, _) in &series {
        print!(" {:>11}", s.label());
    }
    println!();
    for t in 0..100 {
        if t < 20 {
            print!("{t:>4}");
            for (_, lp) in &series {
                print!(" {:>11}", sci(lp[t]));
            }
            println!();
        }
        let mut row = vec![t.to_string()];
        row.extend(series.iter().map(|(_, lp)| format!("{:.6e}", lp[t])));
        csv.fields(row);
    }
    println!("\npoints of interest (argmax per scheme):");
    for (s, lp) in &series {
        let (t, v) = lp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        println!("  {:8} peak at T={t:<3} ({})", s.label(), sci(*v));
    }
    csv.finish();
    finish_campaign(&campaign);
}
