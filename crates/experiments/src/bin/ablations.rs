//! Ablations of the power-model design choices called out in DESIGN.md:
//! absorbed-glitch energy fraction, process-variation σ, measurement
//! noise, and trace budget — each swept against the LUT (unprotected) and
//! ISW (masked) leakage estimates. The first three sweeps run at the
//! traces-per-class argument (default 64); the trace-budget sweep runs
//! its own 16, 64 and 256.

use acquisition::ProtocolConfig;
use campaign::{CacheMode, Campaign, CampaignConfig};
use experiments::{campaign_config, finish_campaign, protocol_from_args, sci, CsvSink};
use gatesim::SimConfig;
use sbox_circuits::Scheme;

/// Total leakage of LUT and ISW under one swept protocol, acquired by an
/// uncached campaign of its own, which joins `campaigns`. Most settings
/// are cells no other experiment reads, so storing them would only
/// cost disk and time.
fn leak(config: ProtocolConfig, campaigns: &mut Vec<Campaign>) -> (f64, f64) {
    let mut campaign = Campaign::new(CampaignConfig {
        cache: CacheMode::Off,
        ..campaign_config(config)
    });
    let [lut, isw] = [Scheme::Lut, Scheme::Isw].map(|scheme| {
        campaign
            .acquire_aged(scheme, 0.0)
            .spectrum
            .total_leakage_power()
    });
    campaigns.push(campaign);
    (lut, isw)
}

fn main() {
    let mut campaigns = Vec::new();
    let mut csv = CsvSink::new("ablations", ["knob", "value", "lut", "isw"]);
    println!("Power-model ablations (total leakage, LUT vs ISW)\n");

    println!("absorbed-glitch energy fraction:");
    for absorbed in [0.0, 0.15, 0.35, 0.7] {
        let cfg = ProtocolConfig {
            sim: SimConfig {
                absorbed_energy_fraction: absorbed,
                ..SimConfig::default()
            },
            ..protocol_from_args()
        };
        let (l, i) = leak(cfg, &mut campaigns);
        println!("  {absorbed:>4}: LUT {:>10}  ISW {:>10}", sci(l), sci(i));
        csv.fields([
            "absorbed".into(),
            absorbed.to_string(),
            format!("{l:.6e}"),
            format!("{i:.6e}"),
        ]);
    }

    println!("process-variation σ:");
    for sigma in [0.0, 0.05, 0.1, 0.2] {
        let cfg = ProtocolConfig {
            sim: SimConfig {
                process_sigma: sigma,
                ..SimConfig::default()
            },
            ..protocol_from_args()
        };
        let (l, i) = leak(cfg, &mut campaigns);
        println!("  {sigma:>4}: LUT {:>10}  ISW {:>10}", sci(l), sci(i));
        csv.fields([
            "sigma".into(),
            sigma.to_string(),
            format!("{l:.6e}"),
            format!("{i:.6e}"),
        ]);
    }

    println!("measurement noise σ (mW):");
    for noise in [0.0, 0.5, 2.0] {
        let cfg = ProtocolConfig {
            sim: SimConfig {
                noise_mw: noise,
                ..SimConfig::default()
            },
            ..protocol_from_args()
        };
        let (l, i) = leak(cfg, &mut campaigns);
        println!("  {noise:>4}: LUT {:>10}  ISW {:>10}", sci(l), sci(i));
        csv.fields([
            "noise".into(),
            noise.to_string(),
            format!("{l:.6e}"),
            format!("{i:.6e}"),
        ]);
    }

    println!("traces per class (estimation floor):");
    for tpc in [16usize, 64, 256] {
        let cfg = ProtocolConfig {
            traces_per_class: tpc,
            ..ProtocolConfig::default()
        };
        let (l, i) = leak(cfg, &mut campaigns);
        println!("  {tpc:>4}: LUT {:>10}  ISW {:>10}", sci(l), sci(i));
        csv.fields([
            "traces_per_class".into(),
            tpc.to_string(),
            format!("{l:.6e}"),
            format!("{i:.6e}"),
        ]);
    }
    csv.finish();
    for campaign in &campaigns {
        finish_campaign(campaign);
    }
}
