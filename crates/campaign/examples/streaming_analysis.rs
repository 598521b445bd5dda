//! Memory-bounded leakage analysis: fold every trace into online
//! accumulators instead of materializing the set.
//!
//! Run with `cargo run --release -p sca-campaign --example
//! streaming_analysis`. The streamed spectrum is bit-identical to the
//! batch path (the fold's exact sums are order- and merge-invariant),
//! but peak memory is O(classes × samples) instead of
//! O(traces): the run report's `peak_resident` counts the traces that
//! were ever simultaneously in flight — at most one per worker.

use campaign::{CacheMode, Campaign, CampaignConfig};
use sbox_circuits::Scheme;

fn main() {
    let config = CampaignConfig {
        streaming: true,       // exact fold: bit-identical to batch
        cache: CacheMode::Off, // demo: always simulate
        ..CampaignConfig::default()
    };
    let workers = config.workers;
    let mut campaign = Campaign::new(config);

    println!("scheme     traces      TLP            peak-resident  merge-depth");
    for scheme in [Scheme::Lut, Scheme::Glut, Scheme::Isw] {
        let outcome = campaign.acquire_spectrum_aged(scheme, 0.0);
        let report = campaign.log().reports().last().expect("one report per run");
        println!(
            "{:10} {:>6}      {:.6e}   {:>13} {:>12}",
            scheme.label(),
            outcome.traces_analyzed,
            outcome.spectrum.total_leakage_power(),
            report.peak_resident,
            report.merge_depth,
        );
    }
    println!(
        "\n(workers = {}; a batch run would have held all traces of a cell in memory)",
        if workers == 0 {
            "all cores".to_string()
        } else {
            workers.to_string()
        }
    );
}
