//! Fig. 4: ISW leakage coefficients per sample — the multi-bit
//! (bit-1·bit-2 conjunction, `u = 0110`) component dominates.

use experiments::{campaign_from_args, finish_campaign, CsvSink};
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let outcome = campaign.acquire_aged(Scheme::Isw, 0.0);
    let spectrum = &outcome.spectrum;

    let mut header = vec!["sample".to_string()];
    header.extend((1..16).map(|u| format!("a{u}")));
    let mut csv = CsvSink::new("fig4", header);
    println!("Fig. 4 — ISW leakage coefficients a_u(T) (u ≠ 0)");
    println!("showing the 6 strongest sources; all 15 in results/fig4.csv");
    let dominant = spectrum.dominant_sources();
    print!("{:>6}", "T");
    for (u, _) in dominant.iter().take(6) {
        print!(" u={u:>2}({u:04b})");
    }
    println!();
    for t in 0..spectrum.samples() {
        if t % 2 == 0 && t <= 30 {
            print!("{t:>6}");
            for (u, _) in dominant.iter().take(6) {
                print!(" {:>10.4}", spectrum.coefficient(*u, t));
            }
            println!();
        }
        let mut row = vec![t.to_string()];
        row.extend((1..16).map(|u| format!("{:.6}", spectrum.coefficient(u, t))));
        csv.fields(row);
    }
    println!("\nsource ranking by window-summed energy:");
    for (u, e) in dominant.iter().take(8) {
        let kind = if (*u as u32).count_ones() == 1 {
            "single-bit"
        } else {
            "multi-bit (glitch-type)"
        };
        println!("  u={u:2} ({u:04b})  {e:10.4e}  {kind}");
    }
    let (top, _) = dominant[0];
    if (top as u32).count_ones() > 1 {
        println!("→ the dominant source is a bit interaction, as in the paper's Fig. 4");
    }
    csv.finish();
    finish_campaign(&campaign);
}
