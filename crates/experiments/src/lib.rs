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
//! A malformed value never fails silently: by default it warns on
//! stderr, naming the bad value and the default used instead; with
//! `SCA_STRICT=1` (used in CI) a malformed `SCA_WORKERS`, `SCA_RETRIES`,
//! `SCA_CHECKPOINT`, `SCA_FAULTS`, `SCA_CACHE`, `SCA_STREAM`, or budget
//! knob is a hard configuration error and the binary exits with status 2.

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
/// stderr and the process exits with status 2, as a strict `SCA_*`
/// knob does.
pub fn count_from_args(default: usize) -> usize {
    count_from_value(std::env::args().nth(1), default).unwrap_or_else(|value| {
        eprintln!("error: cannot interpret the count {value:?}: expected a positive integer");
        std::process::exit(2);
    })
}

/// [`count_from_args`]'s parser: `Err` carries the rejected value.
fn count_from_value(value: Option<String>, default: usize) -> Result<usize, String> {
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

/// The value of knob `name`, `None` when unset. The `*_from_value`
/// parsers take it as an argument so their garbage paths are testable
/// without mutating the (thread-shared) process environment.
fn env_value(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// A set knob whose value is not `expected`: a typed
/// [`CampaignError::Config`] when strict, otherwise a stderr warning
/// naming the value and `default`, which is used instead. A typo must
/// never silently fall back.
fn rejected<T>(
    name: &str,
    value: String,
    strict: bool,
    expected: &str,
    (default, label): (T, &str),
) -> Result<T, CampaignError> {
    if strict {
        return Err(CampaignError::Config {
            name: name.to_string(),
            value,
        });
    }
    eprintln!("warning: {name}={value:?} is not {expected}; using default {label}");
    Ok(default)
}

/// The cache mode named by `SCA_CACHE`: `off`, `refresh` (re-simulate
/// but still persist), or `on` / empty / unset for read-write.
fn cache_mode_from_value(value: Option<String>, strict: bool) -> Result<CacheMode, CampaignError> {
    match value.as_deref().unwrap_or("") {
        "off" => Ok(CacheMode::Off),
        "refresh" => Ok(CacheMode::WriteOnly),
        "" | "on" => Ok(CacheMode::ReadWrite),
        _ => rejected(
            "SCA_CACHE",
            value.unwrap_or_default(),
            strict,
            "one of off/refresh/on",
            (CacheMode::ReadWrite, "read-write"),
        ),
    }
}

/// Whether `SCA_STREAM` asks for the streaming fold: `off`/`0`
/// (default) keeps the batch path; `on`/`1`/`exact` streams with the
/// bit-identical exact fold.
fn stream_from_value(value: Option<String>, strict: bool) -> Result<bool, CampaignError> {
    match value.as_deref().unwrap_or("") {
        "" | "0" | "off" => Ok(false),
        "1" | "on" | "exact" => Ok(true),
        _ => rejected(
            "SCA_STREAM",
            value.unwrap_or_default(),
            strict,
            "one of off/on/exact",
            (false, "off"),
        ),
    }
}

/// Knob `name` parsed as a `T`: `default` when unset, [`rejected`] when
/// set but unparsable.
fn knob<T>(name: &str, default: T, strict: bool) -> Result<T, CampaignError>
where
    T: std::str::FromStr + std::fmt::Display,
{
    match env_value(name) {
        None => Ok(default),
        Some(value) => value.parse().or_else(|_| {
            let label = default.to_string();
            rejected(name, value, strict, "a valid value", (default, &label))
        }),
    }
}

/// The campaign policy shared by every binary, parsing each `SCA_*`
/// knob of the crate docs once; stores and the run log live under
/// `results/`. A malformed knob is a [`CampaignError::Config`] when
/// `strict`, and otherwise a stderr warning plus its default (so only
/// strict parsing can fail).
pub fn try_campaign_config(
    protocol: ProtocolConfig,
    strict: bool,
) -> Result<CampaignConfig, CampaignError> {
    let streaming = stream_from_value(env_value("SCA_STREAM"), strict)?;
    let faults = match FaultPlan::try_from_env() {
        Err((value, reason)) if strict => {
            eprintln!("error: SCA_FAULTS={value:?}: {reason}");
            return Err(CampaignError::Config {
                name: "SCA_FAULTS".to_string(),
                value,
            });
        }
        // A malformed spec warns (once) and injects nothing.
        parsed => parsed.unwrap_or_else(|_| FaultPlan::from_env().clone()),
    };
    let workers = knob("SCA_WORKERS", 0usize, strict)?;
    let cache = cache_mode_from_value(env_value("SCA_CACHE"), strict)?;
    let max_retries = knob("SCA_RETRIES", 2u32, strict)?;
    let checkpoint_every = knob("SCA_CHECKPOINT", 64usize, strict)?;
    let mut budget = RunBudget::unlimited();
    let deadline_ms = knob("SCA_DEADLINE_MS", 0u64, strict)?;
    if deadline_ms > 0 {
        budget = budget.with_time_limit(Duration::from_millis(deadline_ms));
    }
    let max_traces = knob("SCA_MAX_TRACES", 0usize, strict)?;
    if max_traces > 0 {
        budget = budget.with_max_new_traces(max_traces);
    }
    let timeout_ms = knob("SCA_CAPTURE_TIMEOUT_MS", 0u64, strict)?;
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

/// [`try_campaign_config`], strict when `SCA_STRICT` is `1`, `on` or
/// `true` (CI runs strict so a typo'd knob fails the job): a malformed
/// knob then exits the process with status 2; otherwise it warns and
/// defaults.
pub fn campaign_config(protocol: ProtocolConfig) -> CampaignConfig {
    let strict = matches!(
        std::env::var("SCA_STRICT").as_deref(),
        Ok("1" | "on" | "true")
    );
    try_campaign_config(protocol, strict).unwrap_or_else(|e| {
        eprintln!("error: {e} (SCA_STRICT=1 makes this fatal)");
        std::process::exit(2);
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
    fn cache_and_stream_knobs_parse_and_reject_garbage_when_strict() {
        // Values go in directly: a garbage SCA_CACHE or SCA_STREAM in the
        // shared process environment would race the strict
        // try_campaign_config calls of other tests.
        let v = |s: Option<&str>| s.map(String::from);
        for strict in [false, true] {
            let cache = |s| cache_mode_from_value(v(s), strict).expect("valid");
            assert_eq!(cache(None), CacheMode::ReadWrite);
            assert_eq!(cache(Some("")), CacheMode::ReadWrite);
            assert_eq!(cache(Some("on")), CacheMode::ReadWrite);
            assert_eq!(cache(Some("off")), CacheMode::Off);
            assert_eq!(cache(Some("refresh")), CacheMode::WriteOnly);
            let stream = |s| stream_from_value(v(s), strict).expect("valid");
            assert!(!stream(None));
            assert!(!stream(Some("")));
            assert!(!stream(Some("off")));
            assert!(stream(Some("exact")));
            assert!(stream(Some("1")));
        }
        // Lenient: warn and default; strict: typed error naming the knob.
        let bad_cache = cache_mode_from_value(v(Some("refrsh")), false);
        assert_eq!(bad_cache.expect("lenient"), CacheMode::ReadWrite);
        let bad_stream = stream_from_value(v(Some("banana")), false);
        assert!(!bad_stream.expect("lenient"));
        let err = cache_mode_from_value(v(Some("refrsh")), true).expect_err("strict");
        assert!(matches!(err, CampaignError::Config { ref name, ref value }
            if name == "SCA_CACHE" && value == "refrsh"));
        let err = stream_from_value(v(Some("banana")), true).expect_err("strict");
        assert!(matches!(err, CampaignError::Config { ref name, ref value }
            if name == "SCA_STREAM" && value == "banana"));
        // The value of the deleted approximate fold is rejected like any
        // other typo: a config error when strict, the `off` default
        // (after `rejected`'s stderr warning) when lenient.
        let removed = "welford";
        let err = stream_from_value(v(Some(removed)), true).expect_err("strict");
        assert!(matches!(err, CampaignError::Config { ref name, ref value }
            if name == "SCA_STREAM" && value == removed));
        assert!(!stream_from_value(v(Some(removed)), false).expect("lenient"));
    }

    #[test]
    fn budget_knobs_reach_the_campaign_config() {
        // Unique-per-test env names are impossible here (the knobs are
        // fixed), so this test owns all three and restores them; the
        // defaults test above deliberately does not assert on budget.
        std::env::set_var("SCA_DEADLINE_MS", "1500");
        std::env::set_var("SCA_MAX_TRACES", "32");
        std::env::set_var("SCA_CAPTURE_TIMEOUT_MS", "250");
        let c = try_campaign_config(ProtocolConfig::default(), true).expect("valid knobs");
        assert_eq!(c.budget.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(c.budget.max_new_traces, Some(32));
        assert_eq!(c.capture_timeout, Some(Duration::from_millis(250)));

        // Garbage values for these fixed knobs are deliberately NOT set
        // here: other tests call campaign_config concurrently, and under
        // SCA_STRICT=1 (the CI fault matrix) a racing garbage value
        // would exit the whole test process. The typed-error path is
        // covered with a private variable name below.

        std::env::remove_var("SCA_DEADLINE_MS");
        std::env::remove_var("SCA_MAX_TRACES");
        std::env::remove_var("SCA_CAPTURE_TIMEOUT_MS");
    }

    #[test]
    fn strict_parsing_returns_typed_config_errors() {
        // A set-but-garbage value is a CampaignError::Config naming the
        // knob; unset falls back to the given default. Unique variable
        // names: the test process' environment is shared across threads.
        std::env::set_var("SCA_TEST_STRICT_BAD", "banana");
        let err = knob::<usize>("SCA_TEST_STRICT_BAD", 0, true).expect_err("typed error");
        assert!(matches!(err, CampaignError::Config { ref name, ref value }
            if name == "SCA_TEST_STRICT_BAD" && value == "banana"));
        std::env::remove_var("SCA_TEST_STRICT_BAD");
        assert_eq!(
            knob::<usize>("SCA_TEST_STRICT_UNSET", 4, true).expect("unset is default"),
            4
        );
    }

    #[test]
    fn env_parsing_warns_and_defaults_on_garbage() {
        // Unique variable names: the test process' environment is shared
        // across threads.
        std::env::set_var("SCA_TEST_ENV_GOOD", "7");
        let lenient = |name, default| knob::<u32>(name, default, false).expect("lenient");
        assert_eq!(lenient("SCA_TEST_ENV_GOOD", 0), 7);
        std::env::set_var("SCA_TEST_ENV_BAD", "banana");
        assert_eq!(lenient("SCA_TEST_ENV_BAD", 3), 3);
        assert_eq!(lenient("SCA_TEST_ENV_UNSET", 5), 5);
        std::env::remove_var("SCA_TEST_ENV_GOOD");
        std::env::remove_var("SCA_TEST_ENV_BAD");
    }
}
