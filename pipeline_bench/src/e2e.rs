//! One end-to-end rep: set-up, then timed passes over the workload's
//! cells through the campaign's user entry points,
//! `Campaign::acquire_spectrum_aged` and `Campaign::attack_aged`. Each
//! rep runs in a fresh process, so its set-up time and peak memory are
//! its own.
//!
//! Every call is timed per cell, so the parent can estimate one pass as
//! the sum of each cell's fastest time over all passes: a burst of host
//! load then costs only the cells it hit in the passes it hit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use acquisition::NUM_CLASSES;
use campaign::{CacheMode, Campaign, CampaignConfig, Digest};
use sbox_circuits::Scheme;

use crate::workload::{cell_label, digest_attack_cell, digest_spectrum_cell, Plan, Workload};

/// What one rep measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Digest of every output of the first pass.
    pub digest: u64,
    /// Whether every pass produced that digest.
    pub passes_agree: bool,
    /// Whether every pass's run log shows the cache behaviour the
    /// workload requires: all hits and no simulated events on the warm
    /// workload, no hits elsewhere.
    pub cache_as_expected: bool,
    /// Named measurements: `setup_s`, `scheduled` (per pass), `failed`
    /// (over all passes), `peak_rss_mb` and the first pass's
    /// `campaign.*` run-log summary.
    pub values: BTreeMap<String, f64>,
    /// Seconds of each cell, one row per pass.
    pub passes: Vec<Vec<f64>>,
}

impl Rep {
    /// The named value (0 if absent).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// One line for the parent process:
    /// `rep digest=… agree=… cache=… name=value… pass=t,t,…`.
    pub fn to_line(&self) -> String {
        let mut s = format!(
            "rep digest={:016x} agree={} cache={}",
            self.digest,
            u8::from(self.passes_agree),
            u8::from(self.cache_as_expected)
        );
        for (k, v) in &self.values {
            let _ = write!(s, " {k}={v}");
        }
        for pass in &self.passes {
            let cells: Vec<String> = pass.iter().map(f64::to_string).collect();
            let _ = write!(s, " pass={}", cells.join(","));
        }
        s
    }

    /// Parse a line written by [`Rep::to_line`].
    pub fn parse(line: &str) -> Option<Rep> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "rep" {
            return None;
        }
        let mut rep = Rep {
            digest: 0,
            passes_agree: false,
            cache_as_expected: false,
            values: BTreeMap::new(),
            passes: Vec::new(),
        };
        for field in fields {
            let (k, v) = field.split_once('=')?;
            match k {
                "digest" => rep.digest = u64::from_str_radix(v, 16).ok()?,
                "agree" => rep.passes_agree = v == "1",
                "cache" => rep.cache_as_expected = v == "1",
                "pass" => rep.passes.push(
                    v.split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .ok()?,
                ),
                _ => {
                    rep.values.insert(k.to_string(), v.parse().ok()?);
                }
            }
        }
        Some(rep)
    }
}

/// Run one rep of `plan` with its stores under `run_dir`: set up, then
/// passes until `budget_s` seconds have been spent on them (at least
/// one). `started` is the process start: set-up time runs from it to
/// the first pass.
pub fn run(plan: &Plan, run_dir: &Path, started: Instant, budget_s: f64) -> Rep {
    let warm_store = run_dir.join("warm");
    set_up(plan, &warm_store);
    let first = Instant::now();
    let setup_s = first.duration_since(started).as_secs_f64();

    let warm = plan.workload == Workload::SpectraWarm;
    let mut rep = Rep {
        digest: 0,
        passes_agree: true,
        cache_as_expected: true,
        values: BTreeMap::new(),
        passes: Vec::new(),
    };
    let mut failed = 0;
    loop {
        let n = rep.passes.len();
        // Cold workloads start every pass from an empty store.
        let store = if warm {
            warm_store.clone()
        } else {
            run_dir.join(format!("pass-{n}"))
        };
        let mut campaign = Campaign::new(plan.campaign_config(&store));
        let pass = run_pass(plan, &mut campaign);
        if !warm {
            let _ = fs::remove_dir_all(&store);
        }

        let reports = campaign.log().reports();
        rep.cache_as_expected &= reports
            .iter()
            .all(|r| r.cache_hit == warm && (!warm || r.stats.events == 0));
        if n == 0 {
            rep.digest = pass.digest;
            rep.values = run_log_summary(&campaign);
        }
        rep.passes_agree &= pass.digest == rep.digest;
        failed += pass.failed;
        rep.passes.push(pass.cell_seconds);

        // Stop at the pass count that lands nearest the budget.
        let spent = first.elapsed().as_secs_f64();
        let per_pass = spent / rep.passes.len() as f64;
        if spent + per_pass / 2.0 >= budget_s {
            break;
        }
    }

    rep.values.insert("setup_s".to_string(), setup_s);
    rep.values
        .insert("scheduled".to_string(), plan.scheduled_traces() as f64);
    rep.values.insert("failed".to_string(), failed as f64);
    rep.values.insert("peak_rss_mb".to_string(), peak_rss_mb());
    rep
}

/// One pass over the cells.
struct Pass {
    digest: u64,
    cell_seconds: Vec<f64>,
    /// Scheduled traces that were not analyzed (quarantined or cut).
    failed: usize,
}

fn run_pass(plan: &Plan, campaign: &mut Campaign) -> Pass {
    let mut d = Digest::new();
    let mut cell_seconds = Vec::new();
    let mut failed = 0;
    let attack_plan = plan.attack_plan();
    for (scheme, months) in plan.cells() {
        let cell = cell_label(scheme, months);
        let begun = Instant::now();
        if plan.workload == Workload::Attack {
            let outcome = campaign.attack_aged(scheme, months, &attack_plan);
            cell_seconds.push(begun.elapsed().as_secs_f64());
            digest_attack_cell(&mut d, &cell, &outcome.reports);
        } else {
            let outcome = campaign.acquire_spectrum_aged(scheme, months);
            cell_seconds.push(begun.elapsed().as_secs_f64());
            let events = campaign
                .log()
                .reports()
                .last()
                .map_or(0, |r| r.stats.events);
            digest_spectrum_cell(
                &mut d,
                &cell,
                &outcome.spectrum,
                &outcome.class_counts,
                events,
            );
            failed += plan.traces_per_class() * NUM_CLASSES - outcome.traces_analyzed;
        }
    }
    if plan.workload == Workload::Attack {
        failed = campaign
            .log()
            .reports()
            .iter()
            .map(|r| r.quarantined + if r.partial.is_some() { r.traces } else { 0 })
            .sum();
    }
    Pass {
        digest: d.finish(),
        cell_seconds,
        failed,
    }
}

/// Fill the store the warm workload reads under `dir`: every cell, as
/// a cold run of the same sweep leaves it.
pub fn fill_warm_store(plan: &Plan, dir: &Path) {
    let mut fill = Campaign::new(plan.campaign_config(dir));
    for (scheme, months) in plan.cells() {
        fill.acquire_spectrum_aged(scheme, months);
    }
}

/// Work before the first pass. The warm workload fills its store under
/// `warm_store`. The others run one warm-up cell of the largest netlist
/// (TI) with the cache off, so page faults, allocator and session
/// growth land here, not in the first timed cells.
fn set_up(plan: &Plan, warm_store: &Path) {
    match plan.workload {
        Workload::SpectraWarm => fill_warm_store(plan, warm_store),
        workload => {
            let mut warm_up = Campaign::new(CampaignConfig {
                cache: CacheMode::Off,
                ..plan.campaign_config(warm_store)
            });
            if workload == Workload::Attack {
                warm_up.attack_aged(Scheme::Ti, 0.0, &plan.attack_plan());
            } else {
                warm_up.acquire_spectrum_aged(Scheme::Ti, 0.0);
            }
        }
    }
}

/// The `campaign.*` summary of one pass's run log.
fn run_log_summary(campaign: &Campaign) -> BTreeMap<String, f64> {
    let reports = campaign.log().reports();
    let mut values = BTreeMap::new();
    for stage in ["load", "age", "acquire", "store", "analyze"] {
        let secs: f64 = reports.iter().map(|r| r.stage_seconds(stage)).sum();
        values.insert(format!("campaign.stage.{stage}_s"), secs);
    }
    let n = reports.len().max(1) as f64;
    let misses: Vec<_> = reports.iter().filter(|r| !r.cache_hit).collect();
    let lanes: Vec<f64> = reports.iter().filter_map(|r| r.lane_utilization).collect();
    let summary = [
        (
            "campaign.hit_ratio",
            (reports.len() - misses.len()) as f64 / n,
        ),
        (
            "campaign.worker_util",
            mean(misses.iter().map(|r| r.worker_utilization)),
        ),
        ("campaign.lane_util", mean(lanes.iter().copied())),
        (
            "campaign.retried",
            reports.iter().map(|r| r.retried).sum::<usize>() as f64,
        ),
        (
            "campaign.quarantined",
            reports.iter().map(|r| r.quarantined).sum::<usize>() as f64,
        ),
        (
            "campaign.merge_depth_max",
            reports.iter().map(|r| r.merge_depth).max().unwrap_or(0) as f64,
        ),
        (
            "campaign.peak_resident_max",
            reports.iter().map(|r| r.peak_resident).max().unwrap_or(0) as f64,
        ),
    ];
    for (k, v) in summary {
        values.insert(k.to_string(), v);
    }
    values
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// This process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_lines_round_trip() {
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_string(), 1.25);
        values.insert("campaign.hit_ratio".to_string(), 0.0);
        let rep = Rep {
            digest: 0xDEAD_BEEF,
            passes_agree: true,
            cache_as_expected: false,
            values,
            passes: vec![vec![0.5, 0.25], vec![0.125, 1e-3]],
        };
        assert_eq!(Rep::parse(&rep.to_line()), Some(rep));
        assert_eq!(Rep::parse("not a rep"), None);
    }

    #[test]
    fn peak_rss_is_measured_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
