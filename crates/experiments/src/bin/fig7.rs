//! Fig. 7: total leakage power per implementation for fresh and 1–4-year
//! aged devices, split into single-bit and multi-bit (glitch) components,
//! with the single-bit/total ratios reported in §V-B.2.
//!
//! The sweep goes through `acquire_spectrum_aged`, so `SCA_STREAM=on`
//! reproduces the figure bit-for-bit in bounded memory: the streamed
//! fold sums exactly, and no cell's trace set is materialized. What a
//! cell holds is bounded by the worker count, not the trace budget:
//! each worker's claim in flight (up to 1,024 lanes on the bit-sliced
//! backend) and the fold chain's parked leaves.

use experiments::{campaign_from_args, finish_campaign, sci, CsvSink};
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let ages = [0.0, 12.0, 24.0, 36.0, 48.0];

    let mut csv = CsvSink::new(
        "fig7",
        [
            "scheme",
            "age_months",
            "total",
            "single_bit",
            "multi_bit",
            "single_bit_ratio",
        ],
    );
    println!(
        "Fig. 7 — total leakage power over device age, {} traces/class",
        campaign.config().protocol.traces_per_class
    );
    println!(
        "{:9} {:>5} {:>12} {:>12} {:>12} {:>8}",
        "scheme", "age", "total", "1-bit", "multi-bit", "1b/total"
    );

    let mut ratio_by_age: Vec<(f64, Vec<f64>, Vec<f64>)> =
        ages.iter().map(|&a| (a, Vec::new(), Vec::new())).collect();
    let mut fresh_totals = Vec::new();
    for scheme in Scheme::ALL {
        for (i, &months) in ages.iter().enumerate() {
            let aged = campaign.acquire_spectrum_aged(scheme, months);
            let sp = &aged.spectrum;
            let (total, single, multi) = (
                sp.total_leakage_power(),
                sp.total_single_bit(),
                sp.total_multi_bit(),
            );
            println!(
                "{:9} {:>5.0} {:>12} {:>12} {:>12} {:>8.4}",
                scheme.label(),
                aged.age_months,
                sci(total),
                sci(single),
                sci(multi),
                sp.single_bit_ratio()
            );
            csv.fields([
                scheme.label().to_string(),
                aged.age_months.to_string(),
                format!("{total:.6e}"),
                format!("{single:.6e}"),
                format!("{multi:.6e}"),
                format!("{:.6}", sp.single_bit_ratio()),
            ]);
            if scheme.is_protected() {
                ratio_by_age[i].1.push(sp.single_bit_ratio());
            } else {
                ratio_by_age[i].2.push(sp.single_bit_ratio());
            }
            if aged.age_months == 0.0 {
                fresh_totals.push((scheme, total));
            }
        }
        eprintln!("aged sweep done for {scheme}");
    }

    println!("\naverage single-bit/total ratio (the §V-B.2 statistic):");
    println!("{:>6} {:>12} {:>12}", "age", "protected", "unprotected");
    for (age, prot, unprot) in &ratio_by_age {
        let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        println!("{:>6.0} {:>12.4} {:>12.4}", age, avg(prot), avg(unprot));
    }

    println!("\nfresh-device security ordering (least leaky first):");
    fresh_totals.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (s, total) in &fresh_totals {
        println!("  {:8} {}", s.label(), sci(*total));
    }
    csv.finish();
    finish_campaign(&campaign);
}
