//! Deterministic fault injection for exercising the campaign's
//! degradation paths.
//!
//! A [`FaultPlan`] describes *which* faults fire *where*: capture panics
//! at chosen (or seeded-random) trace indices, store write errors, and
//! torn store files. It is **off by default** — an empty plan injects
//! nothing and costs one branch per trace — and is enabled either
//! programmatically (tests, benches) or through the `SCA_FAULTS`
//! environment variable, which [`crate::CampaignConfig::default`] picks
//! up so the whole test suite can run under injected faults in CI.
//!
//! Everything is deterministic: explicit indices are exact, and
//! rate-based injection derives a per-index coin flip from the plan's
//! seed with the same SplitMix64 finalizer the acquisition protocol uses
//! for per-trace noise seeds. Two runs with the same plan inject the
//! same faults at the same indices regardless of worker count. The
//! `SCA_FAULTS` grammar is documented on [`FaultPlan`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::sync::{Once, OnceLock};
use std::time::Duration;

use acquisition::trace_seed;

use crate::iofault::WriteFaults;
use crate::store::StoreError;

/// The panic payload of an injected capture fault. Carried as a typed
/// payload (via [`std::panic::panic_any`]) so the quiet panic hook can
/// recognize injected faults and keep them out of test logs, while real
/// panics still print normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The trace index whose capture was failed.
    pub index: usize,
    /// The capture attempt (0 = first try) that was failed.
    pub attempt: u32,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected capture fault at index {} (attempt {})",
            self.index, self.attempt
        )
    }
}

/// Domain separation between the measurement-noise seed stream and the
/// fault-injection coin flips (both go through [`trace_seed`]).
const FAULT_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// A deterministic schedule of injected faults.
///
/// # `SCA_FAULTS` grammar
///
/// Comma-separated tokens (whitespace around tokens is ignored):
///
/// | token | meaning |
/// |---|---|
/// | `seed=N` | seed for rate-based injection (default 0) |
/// | `panic@IDX` | capture of trace `IDX` panics on its **first** attempt (a retry succeeds) |
/// | `panic@IDX!` | capture of trace `IDX` panics on **every** attempt (the index is quarantined) |
/// | `panic%RATE` | each trace's first capture attempt panics with probability `RATE` (seeded, transient) |
/// | `store` | every trace-store write fails with an injected I/O error |
/// | `torn@N` | every written store file is truncated to `N` bytes (a torn write) |
/// | `enospc@N` | store/checkpoint/report writes fail once `N` bytes have been written (a full disk) |
/// | `eio%RATE` | each write operation fails with probability `RATE` (seeded, an injected `EIO`) |
/// | `torn-checkpoint` | the run's checkpoint file loses its last few bytes after the run (a torn tail) |
/// | `slow@IDX:MS` | capture of trace `IDX` stalls `MS` ms on its **first** attempt (watchdog fodder) |
///
/// `SCA_FAULTS=""` and `SCA_FAULTS=off` mean "no faults".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_panics: BTreeSet<usize>,
    sticky_panics: BTreeSet<usize>,
    panic_rate: f64,
    store_errors: bool,
    torn_store_bytes: Option<u64>,
    enospc_after: Option<u64>,
    eio_rate: f64,
    torn_checkpoint: bool,
    slow_captures: BTreeMap<usize, u64>,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        *self != Self::default()
    }

    /// Add trace indices whose first capture attempt panics (a retry
    /// with the re-derived per-trace seed then succeeds bit-identically).
    pub fn with_transient_panics(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        self.transient_panics.extend(indices);
        self
    }

    /// Add trace indices whose capture panics on every attempt, so the
    /// executor quarantines them.
    pub fn with_sticky_panics(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        self.sticky_panics.extend(indices);
        self
    }

    /// Fail each trace's first capture attempt with probability `rate`,
    /// decided per index from `seed` (deterministic across runs and
    /// worker counts).
    pub fn with_panic_rate(mut self, seed: u64, rate: f64) -> Self {
        self.seed = seed;
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fail every trace-store write with an injected I/O error.
    pub fn with_store_errors(mut self) -> Self {
        self.store_errors = true;
        self
    }

    /// Truncate every written store file to `bytes` bytes (a torn
    /// write: the writer reports success but the file is corrupt).
    pub fn with_torn_store(mut self, bytes: u64) -> Self {
        self.torn_store_bytes = Some(bytes);
        self
    }

    /// Fail store/checkpoint/report writes once `bytes` bytes have been
    /// written through any one sink (an injected full disk).
    pub fn with_enospc_after(mut self, bytes: u64) -> Self {
        self.enospc_after = Some(bytes);
        self
    }

    /// Fail each write *operation* with probability `rate`, decided by a
    /// per-operation coin derived from the plan's seed.
    pub fn with_eio_rate(mut self, seed: u64, rate: f64) -> Self {
        self.seed = seed;
        self.eio_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Tear the tail off the run's checkpoint file after the run
    /// finishes writing it (the crash-mid-flush case the salvage scan
    /// must absorb).
    pub fn with_torn_checkpoint(mut self) -> Self {
        self.torn_checkpoint = true;
        self
    }

    /// Stall the capture of trace `index` for `millis` ms on its first
    /// attempt only, so a watchdog-discarded attempt retries at full
    /// speed and stays bit-identical.
    pub fn with_slow_capture(mut self, index: usize, millis: u64) -> Self {
        self.slow_captures.insert(index, millis);
        self
    }

    /// Parse an `SCA_FAULTS` specification.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" {
            return Ok(plan);
        }
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            if let Some(v) = token.strip_prefix("seed=") {
                plan.seed = v
                    .parse()
                    .map_err(|_| format!("bad seed {v:?} in fault spec"))?;
            } else if let Some(v) = token.strip_prefix("panic@") {
                let (v, sticky) = match v.strip_suffix('!') {
                    Some(v) => (v, true),
                    None => (v, false),
                };
                let index: usize = v
                    .parse()
                    .map_err(|_| format!("bad index {v:?} in fault spec"))?;
                if sticky {
                    plan.sticky_panics.insert(index);
                } else {
                    plan.transient_panics.insert(index);
                }
            } else if let Some(v) = token.strip_prefix("panic%") {
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("bad rate {v:?} in fault spec"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("fault rate {rate} outside [0, 1]"));
                }
                plan.panic_rate = rate;
            } else if let Some(v) = token.strip_prefix("torn@") {
                plan.torn_store_bytes = Some(
                    v.parse()
                        .map_err(|_| format!("bad byte count {v:?} in fault spec"))?,
                );
            } else if let Some(v) = token.strip_prefix("enospc@") {
                plan.enospc_after = Some(
                    v.parse()
                        .map_err(|_| format!("bad byte count {v:?} in fault spec"))?,
                );
            } else if let Some(v) = token.strip_prefix("eio%") {
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("bad rate {v:?} in fault spec"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("fault rate {rate} outside [0, 1]"));
                }
                plan.eio_rate = rate;
            } else if let Some(v) = token.strip_prefix("slow@") {
                let (index, millis) = v
                    .split_once(':')
                    .ok_or_else(|| format!("slow fault {v:?} needs IDX:MS"))?;
                let index: usize = index
                    .parse()
                    .map_err(|_| format!("bad index {index:?} in fault spec"))?;
                let millis: u64 = millis
                    .parse()
                    .map_err(|_| format!("bad delay {millis:?} in fault spec"))?;
                plan.slow_captures.insert(index, millis);
            } else if token == "torn-checkpoint" {
                plan.torn_checkpoint = true;
            } else if token == "store" {
                plan.store_errors = true;
            } else {
                return Err(format!("unknown fault token {token:?}"));
            }
        }
        Ok(plan)
    }

    /// The plan described by the `SCA_FAULTS` environment variable,
    /// parsed once per process. A malformed spec warns on stderr (naming
    /// the bad value) and degrades to no injection — a typo must never
    /// silently arm or disarm the harness differently than intended.
    pub fn from_env() -> &'static FaultPlan {
        static PLAN: OnceLock<FaultPlan> = OnceLock::new();
        PLAN.get_or_init(|| match Self::try_from_env() {
            Ok(plan) => plan,
            Err((spec, e)) => {
                eprintln!("warning: SCA_FAULTS={spec:?} is invalid ({e}); injecting nothing");
                Self::default()
            }
        })
    }

    /// Like [`FaultPlan::from_env`], but a malformed spec is returned as
    /// `Err((spec, message))` instead of degrading to no injection — the
    /// experiment binaries turn this into a hard config error (exit 2).
    pub fn try_from_env() -> Result<FaultPlan, (String, String)> {
        match std::env::var("SCA_FAULTS") {
            Ok(spec) => Self::parse(&spec).map_err(|e| (spec, e)),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Whether the capture of trace `index` should fail on `attempt`
    /// (0 = first try).
    pub fn capture_fault_due(&self, index: usize, attempt: u32) -> bool {
        if self.sticky_panics.contains(&index) {
            return true;
        }
        if attempt > 0 {
            // Transient faults hit the first attempt only, so a retry
            // (same per-trace seed) reproduces the clean trace.
            return false;
        }
        if self.transient_panics.contains(&index) {
            return true;
        }
        self.panic_rate > 0.0 && {
            let coin = trace_seed(self.seed ^ FAULT_SALT, index as u64);
            (coin as f64 / u64::MAX as f64) < self.panic_rate
        }
    }

    /// Panic (with an [`InjectedFault`] payload) if the plan schedules a
    /// capture fault for `(index, attempt)`. Call inside the executor's
    /// `catch_unwind` region.
    pub fn maybe_inject_capture(&self, index: usize, attempt: u32) {
        if self.capture_fault_due(index, attempt) {
            quiet_injected_panics();
            std::panic::panic_any(InjectedFault { index, attempt });
        }
    }

    /// The injected store-write error, if store faults are armed.
    pub fn store_write_error(&self) -> Option<StoreError> {
        self.store_errors.then(|| {
            StoreError::Io(io::Error::other(
                "injected store write fault (SCA_FAULTS: store)",
            ))
        })
    }

    /// The byte length store files should be torn down to, if torn-write
    /// faults are armed.
    pub fn torn_store_bytes(&self) -> Option<u64> {
        self.torn_store_bytes
    }

    /// The injected *write*-level faults (`enospc@N`, `eio%RATE`) as a
    /// [`WriteFaults`] plan for the fallible-writer layer.
    pub fn write_faults(&self) -> WriteFaults {
        let mut faults = WriteFaults::none();
        if let Some(bytes) = self.enospc_after {
            faults = faults.with_enospc_after(bytes);
        }
        if self.eio_rate > 0.0 {
            faults = faults.with_eio_rate(self.seed, self.eio_rate);
        }
        faults
    }

    /// The injected stall for `(index, attempt)`, if any. Slow faults
    /// hit the first attempt only, mirroring transient panics.
    pub fn capture_delay(&self, index: usize, attempt: u32) -> Option<Duration> {
        if attempt > 0 {
            return None;
        }
        self.slow_captures
            .get(&index)
            .map(|&ms| Duration::from_millis(ms))
    }

    /// Whether the run's checkpoint should lose its tail after the run
    /// (the torn-checkpoint fault).
    pub fn torn_checkpoint(&self) -> bool {
        self.torn_checkpoint
    }
}

/// Install (once) a panic hook that swallows [`InjectedFault`] payloads
/// and delegates everything else to the previous hook, so fault-injection
/// runs don't flood stderr with expected panics while real ones still
/// print.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert!(!plan.capture_fault_due(i, 0));
        }
        assert!(plan.store_write_error().is_none());
        assert!(plan.torn_store_bytes().is_none());
    }

    #[test]
    fn parse_round_trips_every_token() {
        let plan = FaultPlan::parse(
            "seed=42, panic@3, panic@7!, panic%0.25, store, torn@99, \
             enospc@4096, eio%0.1, torn-checkpoint, slow@11:250",
        )
        .expect("parse");
        assert!(plan.is_active());
        assert!(plan.capture_fault_due(3, 0), "transient fires on attempt 0");
        assert!(!plan.capture_fault_due(3, 1), "transient clears on retry");
        assert!(plan.capture_fault_due(7, 0) && plan.capture_fault_due(7, 5));
        assert!(plan.store_write_error().is_some());
        assert_eq!(plan.torn_store_bytes(), Some(99));
        assert!(plan.write_faults().is_active());
        assert!(plan.torn_checkpoint());
        assert_eq!(
            plan.capture_delay(11, 0),
            Some(Duration::from_millis(250)),
            "slow fault armed at index 11"
        );
        assert_eq!(plan.capture_delay(11, 1), None, "slow clears on retry");
        assert_eq!(plan.capture_delay(12, 0), None);
        assert_eq!(
            plan,
            FaultPlan::default()
                .with_panic_rate(42, 0.25)
                .with_transient_panics([3])
                .with_sticky_panics([7])
                .with_store_errors()
                .with_torn_store(99)
                .with_enospc_after(4096)
                .with_eio_rate(42, 0.1)
                .with_torn_checkpoint()
                .with_slow_capture(11, 250)
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "panic@x",
            "panic%2.0",
            "panic%nan-ish",
            "torn@lots",
            "seed=banana",
            "explode",
            "enospc@many",
            "eio%1.5",
            "slow@3",
            "slow@x:100",
            "slow@3:soon",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::default());
        assert_eq!(FaultPlan::parse("off").expect("off"), FaultPlan::default());
    }

    #[test]
    fn inert_plan_has_no_write_faults_or_delays() {
        let plan = FaultPlan::none();
        assert!(!plan.write_faults().is_active());
        assert!(!plan.torn_checkpoint());
        assert_eq!(plan.capture_delay(0, 0), None);
    }

    #[test]
    fn rate_injection_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::default().with_panic_rate(7, 0.1);
        let hits: Vec<usize> = (0..10_000)
            .filter(|&i| plan.capture_fault_due(i, 0))
            .collect();
        let again: Vec<usize> = (0..10_000)
            .filter(|&i| plan.capture_fault_due(i, 0))
            .collect();
        assert_eq!(hits, again, "same plan, same faults");
        assert!(
            (500..2000).contains(&hits.len()),
            "10% of 10k ~ 1000, got {}",
            hits.len()
        );
        assert!(hits.iter().all(|&i| !plan.capture_fault_due(i, 1)));
        let reseeded = FaultPlan::default().with_panic_rate(8, 0.1);
        let other: Vec<usize> = (0..10_000)
            .filter(|&i| reseeded.capture_fault_due(i, 0))
            .collect();
        assert_ne!(hits, other, "seed must move the fault sites");
    }

    #[test]
    fn injected_capture_panics_carry_a_typed_payload() {
        let plan = FaultPlan::default().with_sticky_panics([4]);
        let caught = std::panic::catch_unwind(|| plan.maybe_inject_capture(4, 2))
            .expect_err("must panic at a scheduled index");
        let fault = caught
            .downcast_ref::<InjectedFault>()
            .expect("typed payload");
        assert_eq!(
            *fault,
            InjectedFault {
                index: 4,
                attempt: 2
            }
        );
        assert!(fault.to_string().contains("index 4"));
        // Unscheduled indices pass through silently.
        plan.maybe_inject_capture(5, 0);
    }
}
