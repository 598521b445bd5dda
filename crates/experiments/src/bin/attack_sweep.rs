//! Campaign-scale key-recovery sweep: CPA, DPA, and MLPA against every
//! scheme at several device ages, in one streaming pass per cell.
//!
//! For each `(scheme, age)` the campaign folds the attack accumulators
//! of all three distinguishers alongside the spectral state, then
//! reports measurements-to-disclosure, the success-rate and
//! guessing-entropy curves, and the recovered key. The closing table
//! ranks the schemes by MLPA measurements-to-disclosure — the paper's
//! protection ordering (unprotected fastest to fall, masked schemes
//! holding out).
//!
//! `arg1` is the per-trial trace budget (default 256).

use acquisition::ProtocolConfig;
use campaign::{AttackPlan, Campaign, SumMode};
use experiments::{campaign_config, finish_campaign, CsvSink};
use sbox_circuits::Scheme;
use sca_attacks::{Distinguisher, LeakageModel};

fn main() {
    let traces: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(256);
    let key = 0x5;
    let ages_months = [0.0f64, 24.0, 60.0];
    let plan = AttackPlan {
        key,
        traces,
        trials: 4,
        distinguishers: vec![
            Distinguisher::Cpa(LeakageModel::OutputTransition),
            Distinguisher::Dpa { bit: 0 },
            Distinguisher::Mlpa,
        ],
        sr_threshold: 0.8,
        mode: SumMode::Exact,
    };
    let mut campaign = Campaign::new(campaign_config(ProtocolConfig::default()));

    let mut summary = CsvSink::new(
        "attacks/summary",
        [
            "scheme",
            "age_months",
            "distinguisher",
            "mtd",
            "recovered",
            "trials_recovered",
            "trials",
            "final_sr",
            "final_ge",
            "mean_tlp",
        ],
    );
    let mut curves = CsvSink::new(
        "attacks/curves",
        [
            "scheme",
            "age_months",
            "distinguisher",
            "traces",
            "success_rate",
            "guessing_entropy",
        ],
    );

    println!(
        "Streaming key recovery: {} traces/trial x {} trials, true key {key:X}",
        plan.traces, plan.trials
    );
    println!(
        "{:9} {:>4} {:>16} {:>5} {:>9} {:>8} {:>8}",
        "scheme", "age", "distinguisher", "mtd", "recovered", "final-sr", "final-ge"
    );

    let mut mlpa_fresh_mtd: Vec<(Scheme, Option<usize>)> = Vec::new();
    for scheme in Scheme::ALL {
        for &months in &ages_months {
            let outcome = campaign.attack_aged(scheme, months, &plan);
            for report in &outcome.reports {
                let (final_sr, final_ge) = report
                    .success_rate
                    .last()
                    .zip(report.guessing_entropy.last())
                    .map(|(&(_, sr), &(_, ge))| (sr, ge))
                    .unwrap_or((0.0, 15.0));
                let mtd_text = report
                    .mtd
                    .map_or_else(|| "-".to_string(), |m| m.to_string());
                println!(
                    "{:9} {:>4} {:>16} {:>5} {:>9} {:>8.2} {:>8.2}",
                    scheme.label(),
                    outcome.age_months,
                    report.distinguisher.label(),
                    mtd_text,
                    format!("{:X}", report.recovered),
                    final_sr,
                    final_ge
                );
                summary.fields([
                    scheme.label().to_string(),
                    format!("{}", outcome.age_months),
                    report.distinguisher.label().to_string(),
                    mtd_text.clone(),
                    format!("{:X}", report.recovered),
                    report.trials_recovered.to_string(),
                    outcome.trials.to_string(),
                    format!("{final_sr:.3}"),
                    format!("{final_ge:.3}"),
                    format!("{:.6e}", outcome.mean_total_leakage_power),
                ]);
                for (&(n, sr), &(_, ge)) in report.success_rate.iter().zip(&report.guessing_entropy)
                {
                    curves.fields([
                        scheme.label().to_string(),
                        format!("{}", outcome.age_months),
                        report.distinguisher.label().to_string(),
                        n.to_string(),
                        format!("{sr:.3}"),
                        format!("{ge:.3}"),
                    ]);
                }
            }
            if outcome.age_months == 0.0 {
                if let Some(r) = outcome.report(Distinguisher::Mlpa) {
                    mlpa_fresh_mtd.push((scheme, r.mtd));
                }
            }
        }
        eprintln!("swept {scheme}");
    }
    summary.finish();
    curves.finish();

    // The headline ordering: fresh-device MLPA MTD, weakest scheme first
    // (undisclosed schemes sort last).
    mlpa_fresh_mtd.sort_by_key(|&(_, mtd)| mtd.unwrap_or(usize::MAX));
    let ranking: Vec<String> = mlpa_fresh_mtd
        .iter()
        .map(|(s, mtd)| match mtd {
            Some(m) => format!("{} ({m})", s.label()),
            None => format!("{} (>{})", s.label(), plan.traces),
        })
        .collect();
    println!("MLPA measurements-to-disclosure, fresh device:");
    println!("  {}", ranking.join(" < "));
    finish_campaign(&campaign);
}
