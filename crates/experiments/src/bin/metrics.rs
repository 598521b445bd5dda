//! Auxiliary side-channel metrics: SNR / NICV per scheme, and the
//! PRESENT S-box confusion coefficients that make it "the most leaking
//! function in symmetric cryptography" (paper §IV, citing Fei et al.).

use experiments::{campaign_from_args, finish_campaign, CsvSink};
use leakage_core::metrics::{confusion_contrast, nicv, snr};
use present_cipher::SBOX;
use sbox_circuits::Scheme;

fn main() {
    let mut campaign = campaign_from_args();
    let mut csv = CsvSink::new(
        "metrics",
        ["scheme", "max_snr", "max_nicv", "argmax_sample"],
    );
    println!(
        "SNR / NICV per implementation ({} traces/class)",
        campaign.config().protocol.traces_per_class
    );
    println!(
        "{:9} {:>10} {:>10} {:>8}",
        "scheme", "max SNR", "max NICV", "at T"
    );
    for scheme in Scheme::ALL {
        let set = campaign.acquire_aged(scheme, 0.0).traces;
        let s = snr(&set);
        let v = nicv(&set);
        let (t, &max_nicv) = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        // Deterministic traces (unmasked LUT variants) have exactly zero
        // within-class variance under the compensated metrics pipeline,
        // so their SNR is a genuine infinity — report it as such instead
        // of silently dropping it to the finite maximum.
        let max_snr = s.iter().cloned().fold(0.0, f64::max);
        let snr_text = if max_snr.is_infinite() {
            "inf".to_string()
        } else {
            format!("{max_snr:.4}")
        };
        println!(
            "{:9} {:>10} {:>10.4} {:>8}",
            scheme.label(),
            snr_text,
            max_nicv,
            t
        );
        csv.fields([
            scheme.label().to_string(),
            format!("{max_snr:.6}"),
            format!("{max_nicv:.6}"),
            t.to_string(),
        ]);
        eprintln!("measured {scheme}");
    }

    println!("\nPRESENT S-box confusion-coefficient contrast per output bit:");
    for bit in 0..4 {
        let (mean, var) = confusion_contrast(&SBOX, bit);
        println!("  bit {bit}: mean κ = {mean:.4}, Var κ = {var:.5}");
    }
    println!("non-degenerate variance of κ across key pairs = good CPA distinguishability.");
    csv.finish();
    finish_campaign(&campaign);
}
