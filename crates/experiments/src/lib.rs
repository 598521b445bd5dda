//! Shared plumbing for the per-figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper: it prints
//! the same rows/series the paper reports and mirrors them into
//! `results/<name>.csv` for plotting. Run them with `--release`; pass a
//! number as the first argument to override the traces-per-class budget
//! (default 64, the paper's 1024-trace protocol), or the trace budget of
//! the attack binaries. A zero or malformed count is a usage error
//! (exit status 2).
//!
//! Trace acquisition goes through the [`campaign`] engine: acquisitions
//! are sharded across worker threads (`SCA_WORKERS`, default all cores),
//! persisted as `SCTR` stores under `results/traces/`, and re-served from
//! that cache on every later run of the same cell (`SCA_CACHE=off` to
//! disable, `SCA_CACHE=refresh` to re-simulate but still persist).
//! Failure handling is tunable too: `SCA_RETRIES` (capture retries per
//! trace, default 2), `SCA_CHECKPOINT` (traces between checkpoint syncs,
//! default 64, `0` disables resume), and `SCA_FAULTS` (the deterministic
//! fault-injection harness; see the `campaign` crate docs for the
//! grammar). `SCA_STREAM` switches spectral figures to the bounded-memory
//! streaming fold (`on`/`1`/`exact`, default `off`), whose exact sums
//! give spectra bit-identical to the batch path; streamed cells keep no
//! raw traces, so they are not persisted to the trace store.
//! No knob selects the capture engine: each netlist is captured on the
//! bit-sliced levelized engine (64 traces per machine word) when its
//! static support check passes, and on the event-driven reference
//! engine otherwise. Both give bit-identical traces. The engine and lane
//! utilization of every run land in the summary table and
//! `results/campaign_runs.jsonl`.
//!
//! Run budgets: `SCA_DEADLINE_MS` (wall-clock limit per acquisition),
//! `SCA_MAX_TRACES` (cap on newly captured traces per acquisition, met
//! within one 16-trace chunk on either engine), and
//! `SCA_CAPTURE_TIMEOUT_MS` (per-capture watchdog, which watches
//! event-engine captures only) — all `0`/unset = unlimited. A
//! budget-stopped run flushes its checkpoint and resumes bit-identically
//! on the next invocation.
//!
//! A malformed value never fails silently: a malformed `SCA_WORKERS`,
//! `SCA_RETRIES`, `SCA_CHECKPOINT`, `SCA_FAULTS`, `SCA_CACHE`,
//! `SCA_STREAM`, or budget knob is named on stderr and the binary exits
//! with status 2 before any capture, as a malformed count argument does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use acquisition::ProtocolConfig;
use campaign::{CacheMode, Campaign, CampaignConfig, CampaignError, FaultPlan, RunBudget};

/// The optional positive count in the first argument (a
/// traces-per-class override or a trace budget), `default` when it is
/// absent. A malformed or zero count is a usage error: it is named on
/// stderr and the process exits with status 2, as a malformed `SCA_*`
/// knob does.
pub fn count_from_args(default: usize) -> usize {
    count_from_value(std::env::args().nth(1), default).unwrap_or_else(|value| {
        eprintln!("error: cannot interpret the count {value:?}: expected a positive integer");
        std::process::exit(2);
    })
}

/// The positive-count parser of [`count_from_args`] and the `import`
/// CLI: `default` when `value` is absent, `Err` carrying a zero or
/// malformed value.
pub fn count_from_value(value: Option<String>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(value) => match value.parse() {
            Ok(count) if count > 0 => Ok(count),
            _ => Err(value),
        },
    }
}

/// Parse the common CLI: optional traces-per-class override.
pub fn protocol_from_args() -> ProtocolConfig {
    ProtocolConfig {
        traces_per_class: count_from_args(64),
        ..ProtocolConfig::default()
    }
}

/// Knob `name`: `default` when unset, else its value read by `parse`. A
/// value `parse` rejects is a [`CampaignError::Config`] naming the knob
/// and the value; a typo must never silently fall back.
fn knob<T>(name: &str, default: T, parse: fn(&str) -> Option<T>) -> Result<T, CampaignError> {
    match std::env::var(name).ok() {
        None => Ok(default),
        Some(value) => parse(&value).ok_or_else(|| CampaignError::Config {
            name: name.to_string(),
            value,
        }),
    }
}

/// A numeric knob's value.
fn parsed<T: std::str::FromStr>(value: &str) -> Option<T> {
    value.parse().ok()
}

/// `SCA_CACHE`: `off`, `refresh` (re-simulate but still persist), or
/// `on` / empty for read-write.
fn cache_mode(value: &str) -> Option<CacheMode> {
    match value {
        "off" => Some(CacheMode::Off),
        "refresh" => Some(CacheMode::WriteOnly),
        "" | "on" => Some(CacheMode::ReadWrite),
        _ => None,
    }
}

/// `SCA_STREAM`: `off`/`0`/empty keeps the batch path; `on`/`1`/`exact`
/// streams with the bit-identical exact fold.
fn streaming(value: &str) -> Option<bool> {
    match value {
        "" | "0" | "off" => Some(false),
        "1" | "on" | "exact" => Some(true),
        _ => None,
    }
}

/// The campaign policy shared by every binary, parsing each `SCA_*`
/// knob of the crate docs once; stores and the run log live under
/// `results/`. A malformed knob is named on stderr and the process exits
/// with status 2.
pub fn campaign_config(protocol: ProtocolConfig) -> CampaignConfig {
    config_from_env(protocol).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`campaign_config`]'s parser: the first malformed knob is a
/// [`CampaignError::Config`].
fn config_from_env(protocol: ProtocolConfig) -> Result<CampaignConfig, CampaignError> {
    let streaming = knob("SCA_STREAM", false, streaming)?;
    let faults = FaultPlan::try_from_env().map_err(|(value, reason)| {
        eprintln!("error: SCA_FAULTS={value:?}: {reason}");
        CampaignError::Config {
            name: "SCA_FAULTS".to_string(),
            value,
        }
    })?;
    let workers = knob("SCA_WORKERS", 0, parsed)?;
    let cache = knob("SCA_CACHE", CacheMode::ReadWrite, cache_mode)?;
    let max_retries = knob("SCA_RETRIES", 2, parsed)?;
    let checkpoint_every = knob("SCA_CHECKPOINT", 64, parsed)?;
    let mut budget = RunBudget::unlimited();
    let deadline_ms = knob("SCA_DEADLINE_MS", 0, parsed)?;
    if deadline_ms > 0 {
        budget = budget.with_time_limit(Duration::from_millis(deadline_ms));
    }
    let max_traces = knob("SCA_MAX_TRACES", 0, parsed)?;
    if max_traces > 0 {
        budget = budget.with_max_new_traces(max_traces);
    }
    let timeout_ms = knob("SCA_CAPTURE_TIMEOUT_MS", 0, parsed)?;
    Ok(CampaignConfig {
        protocol,
        workers,
        cache,
        max_retries,
        checkpoint_every,
        streaming,
        faults,
        budget,
        capture_timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        ..CampaignConfig::default()
    })
}

/// A [`Campaign`] wired to the common CLI and environment.
pub fn campaign_from_args() -> Campaign {
    Campaign::new(campaign_config(protocol_from_args()))
}

/// Print the campaign's summary table and append its run reports to
/// `results/campaign_runs.jsonl` (best-effort; the figures themselves
/// are the primary artifact).
pub fn finish_campaign(campaign: &Campaign) {
    if campaign.log().reports().is_empty() {
        return;
    }
    println!("\ncampaign report:");
    if let Err(e) = campaign.finish() {
        eprintln!("warning: cannot append campaign log: {e}");
    }
}

/// Escape one CSV field per RFC 4180: fields containing a comma, quote,
/// or line break are quoted, with embedded quotes doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Join fields into one escaped CSV row (no trailing newline; the sink
/// adds exactly one per row).
pub fn csv_row<I>(fields: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    fields
        .into_iter()
        .map(|f| csv_escape(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// A CSV sink under `results/` that echoes nothing (stdout printing is the
/// caller's job — the file is for plotting). All rows go through
/// [`csv_row`], so fields are escaped and every row ends in a newline.
#[derive(Debug)]
pub struct CsvSink {
    path: PathBuf,
    rows: Vec<String>,
}

impl CsvSink {
    /// Start a CSV file named `results/<name>.csv` with a header row.
    pub fn new<I>(name: &str, header: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut path = PathBuf::from("results");
        path.push(format!("{name}.csv"));
        Self {
            path,
            rows: vec![csv_row(header)],
        }
    }

    /// Append one row of fields.
    pub fn fields<I>(&mut self, fields: I)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.rows.push(csv_row(fields));
    }

    /// Write the file atomically — temp file, fsync, rename — so a crash
    /// or full disk mid-write never leaves a truncated CSV behind
    /// (best-effort; failures are reported, not fatal — the stdout
    /// report is the primary artifact).
    pub fn finish(self) {
        if let Some(dir) = self.path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
        }
        let mut contents = String::with_capacity(self.rows.iter().map(|r| r.len() + 1).sum());
        for r in &self.rows {
            contents.push_str(r);
            contents.push('\n');
        }
        match campaign::write_atomic(&self.path, contents.as_bytes()) {
            Ok(()) => eprintln!("wrote {}", self.path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", self.path.display()),
        }
    }
}

/// Render a float in the paper's compact scientific style.
pub fn sci(x: f64) -> String {
    format!("{x:.4e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_scientific() {
        assert_eq!(sci(0.000123), "1.2300e-4");
    }

    #[test]
    fn counts_parse_and_reject_zero_and_garbage() {
        let v = |s: &str| Some(s.to_string());
        assert_eq!(count_from_value(None, 64), Ok(64));
        assert_eq!(count_from_value(v("2"), 64), Ok(2));
        assert_eq!(count_from_value(v("1024"), 1), Ok(1024));
        for bad in ["0", "x16", "", "-1", "1.5", " 4"] {
            assert_eq!(
                count_from_value(v(bad), 64),
                Err(bad.to_string()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn default_protocol_is_the_paper() {
        let p = ProtocolConfig::default();
        assert_eq!(p.traces_per_class, 64);
        assert_eq!(p.sampling.samples, 100);
    }

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(csv_escape("RSM-ROM"), "RSM-ROM");
        assert_eq!(csv_escape("1.25e-3"), "1.25e-3");
        assert_eq!(csv_escape(""), "");
    }

    #[test]
    fn special_fields_are_quoted() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn rows_join_escaped_fields() {
        assert_eq!(csv_row(["a", "b,c", "d"]), "a,\"b,c\",d");
        assert_eq!(csv_row(Vec::<String>::new()), "");
    }

    #[test]
    fn campaign_config_defaults_are_sane() {
        let c = campaign_config(ProtocolConfig::default());
        assert_eq!(c.store_dir, PathBuf::from("results/traces"));
        assert_eq!(c.log_path, PathBuf::from("results/campaign_runs.jsonl"));
        assert_eq!(c.max_retries, 2);
        assert_eq!(c.checkpoint_every, 64);
    }

    #[test]
    fn cache_and_stream_knobs_parse_and_reject_garbage() {
        // Values go in directly: a garbage SCA_CACHE or SCA_STREAM in the
        // shared process environment would make the campaign_config
        // calls of other tests exit the test process.
        assert_eq!(cache_mode(""), Some(CacheMode::ReadWrite));
        assert_eq!(cache_mode("on"), Some(CacheMode::ReadWrite));
        assert_eq!(cache_mode("off"), Some(CacheMode::Off));
        assert_eq!(cache_mode("refresh"), Some(CacheMode::WriteOnly));
        assert_eq!(cache_mode("refrsh"), None);
        assert_eq!(streaming(""), Some(false));
        assert_eq!(streaming("off"), Some(false));
        assert_eq!(streaming("exact"), Some(true));
        assert_eq!(streaming("1"), Some(true));
        assert_eq!(streaming("banana"), None);
        // The value of the deleted approximate fold is rejected like any
        // other typo.
        assert_eq!(streaming("welford"), None);
    }

    #[test]
    fn budget_knobs_reach_the_campaign_config() {
        // Unique-per-test env names are impossible here (the knobs are
        // fixed), so this test owns all three and restores them; the
        // defaults test above deliberately does not assert on budget.
        std::env::set_var("SCA_DEADLINE_MS", "1500");
        std::env::set_var("SCA_MAX_TRACES", "32");
        std::env::set_var("SCA_CAPTURE_TIMEOUT_MS", "250");
        let c = config_from_env(ProtocolConfig::default()).expect("valid knobs");
        assert_eq!(c.budget.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(c.budget.max_new_traces, Some(32));
        assert_eq!(c.capture_timeout, Some(Duration::from_millis(250)));

        // Garbage values for these fixed knobs are deliberately NOT set
        // here: other tests call campaign_config concurrently, and a
        // racing garbage value would exit the whole test process. The
        // typed-error path is covered with a private variable name below.

        std::env::remove_var("SCA_DEADLINE_MS");
        std::env::remove_var("SCA_MAX_TRACES");
        std::env::remove_var("SCA_CAPTURE_TIMEOUT_MS");
    }

    #[test]
    fn malformed_knobs_are_typed_config_errors() {
        // A set-but-garbage value is a CampaignError::Config naming the
        // knob; unset falls back to the given default. Unique variable
        // names: the test process' environment is shared across threads.
        std::env::set_var("SCA_TEST_KNOB_BAD", "banana");
        let err = knob::<usize>("SCA_TEST_KNOB_BAD", 0, parsed).expect_err("typed error");
        assert!(matches!(err, CampaignError::Config { ref name, ref value }
            if name == "SCA_TEST_KNOB_BAD" && value == "banana"));
        std::env::remove_var("SCA_TEST_KNOB_BAD");
        std::env::set_var("SCA_TEST_KNOB_GOOD", "7");
        assert_eq!(
            knob::<u32>("SCA_TEST_KNOB_GOOD", 0, parsed).expect("valid"),
            7
        );
        std::env::remove_var("SCA_TEST_KNOB_GOOD");
        assert_eq!(
            knob::<usize>("SCA_TEST_KNOB_UNSET", 4, parsed).expect("unset is default"),
            4
        );
        let unset = knob("SCA_TEST_KNOB_UNSET", CacheMode::Off, cache_mode);
        assert_eq!(unset.expect("unset is default"), CacheMode::Off);
    }
}
