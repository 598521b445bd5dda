//! Fig. 8: leakage power of the ISW implementation over 4 years of usage —
//! leakage decreases with age, fastest in the first year.

use experiments::{campaign_from_args, finish_campaign, sci, CsvSink};
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let ages = [0.0, 12.0, 24.0, 36.0, 48.0];
    let outcomes: Vec<_> = ages
        .iter()
        .map(|&months| campaign.acquire_aged(Scheme::Isw, months))
        .collect();

    let mut csv = CsvSink::new(
        "fig8",
        [
            "sample", "month0", "month12", "month24", "month36", "month48",
        ],
    );
    println!("Fig. 8 — ISW LeakagePower(T) at ages 0–48 months");
    print!("{:>4}", "T");
    for a in &ages {
        print!(" {:>11}", format!("{a:.0} mo"));
    }
    println!();
    let series: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|o| o.spectrum.leakage_power_series())
        .collect();
    for t in 0..100 {
        if t < 20 {
            print!("{t:>4}");
            for s in &series {
                print!(" {:>11}", sci(s[t]));
            }
            println!();
        }
        let mut row = vec![t.to_string()];
        row.extend(series.iter().map(|s| format!("{:.6e}", s[t])));
        csv.fields(row);
    }

    println!("\ntotal leakage vs age:");
    let totals: Vec<f64> = outcomes
        .iter()
        .map(|o| o.spectrum.total_leakage_power())
        .collect();
    for (o, total) in outcomes.iter().zip(&totals) {
        println!("  {:>3.0} months: {}", o.age_months, sci(*total));
    }
    let y1 = totals[0] - totals[1];
    let y4 = totals[3] - totals[4];
    println!(
        "degradation year 1: {} vs year 4: {} (fast-then-slow: {})",
        sci(y1),
        sci(y4),
        y1 > y4
    );
    csv.finish();
    finish_campaign(&campaign);
}
