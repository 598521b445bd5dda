//! Run observability: per-stage wall-clock timings, simulator event
//! counts, cache hit/miss counters, and worker utilization — printed as
//! a summary table and appended as JSON lines to
//! `results/campaign_runs.jsonl` so the repository accumulates a
//! performance trajectory across sessions.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use gatesim::{Backend, CaptureStats};

use crate::iofault::WriteFaults;
use crate::store::write_atomic_with;

/// A named wall-clock span within one campaign run.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (`build`, `age`, `acquire`, `analyze`, `store`, …).
    pub name: &'static str,
    /// Elapsed wall time.
    pub elapsed: Duration,
}

/// Times stages by construction order; hand it back to the report.
#[derive(Debug)]
pub struct StageTimer {
    stages: Vec<Stage>,
    current: Option<(&'static str, Instant)>,
}

impl Default for StageTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTimer {
    /// An empty timer.
    pub fn new() -> Self {
        Self {
            stages: Vec::new(),
            current: None,
        }
    }

    /// Close the running stage (if any) and open a new one.
    pub fn stage(&mut self, name: &'static str) {
        self.close();
        self.current = Some((name, Instant::now()));
    }

    /// Close the running stage and return everything recorded.
    pub fn finish(mut self) -> Vec<Stage> {
        self.close();
        self.stages
    }

    fn close(&mut self) {
        if let Some((name, start)) = self.current.take() {
            self.stages.push(Stage {
                name,
                elapsed: start.elapsed(),
            });
        }
    }
}

/// The record of one campaign acquisition (one `(implementation, age)`
/// cell), whether served from cache or simulated.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Implementation label, e.g. `"ISW"`.
    pub implementation: String,
    /// Device age in months.
    pub age_months: f64,
    /// Total traces in the set.
    pub traces: usize,
    /// Worker threads used (1 when served from cache).
    pub workers: usize,
    /// Whether the set was read from the store instead of simulated.
    pub cache_hit: bool,
    /// Aggregated simulator event counters (all zero on a cache hit).
    pub stats: CaptureStats,
    /// Fraction of `workers × acquire-wall` spent capturing.
    pub worker_utilization: f64,
    /// Per-stage timings, in execution order.
    pub stages: Vec<Stage>,
    /// Trace indices that failed at least once but were recovered by a
    /// seed-stable retry.
    pub retried: usize,
    /// Trace indices that failed every allowed attempt: they fold zero
    /// times, so the fold state lacks them.
    pub quarantined: usize,
    /// Traces folded from a previous run's checkpoint instead of
    /// simulated. A budget stop folds the claimed prefix only, so
    /// checkpointed traces past it are not counted.
    pub resumed: usize,
    /// Whether this run streamed traces through online accumulators
    /// instead of folding them into a trace set.
    pub streamed: bool,
    /// Peak number of newly captured traces in flight outside the fold
    /// state at once (1 on a cache hit, which reads one record at a
    /// time; up to a lane batch per worker on the bit-sliced engine).
    /// What the fold state keeps is not counted.
    pub peak_resident: usize,
    /// Merges in the fold chain: leaves − 1, the same on a cache hit and
    /// a miss, batch and streamed cells alike.
    pub merge_depth: usize,
    /// Records this run healed (re-captured seed-stably by a scrub pass;
    /// 0 for ordinary acquisitions).
    pub healed: usize,
    /// The capture engine that ran (`None` on a cache hit, where no
    /// engine ran at all). [`Backend::Auto`] never appears: the request
    /// resolves to the effective engine before capture starts.
    pub backend: Option<Backend>,
    /// Fraction of bit-sliced lane slots that carried real stimuli
    /// (`None` on the event engine and on cache hits; `< 1.0` when
    /// `traces % LANES` leaves a partial final batch or faulted indices
    /// were routed to the scalar path).
    pub lane_utilization: Option<f64>,
    /// `Some(cause)` when the run budget stopped this run early, e.g.
    /// `"deadline expired"`.
    pub partial: Option<String>,
    /// Non-fatal degradations (store/cache/checkpoint/report write
    /// failures that the run survived).
    pub warnings: Vec<String>,
}

impl RunReport {
    /// Total wall time across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.elapsed.as_secs_f64()).sum()
    }

    /// Wall time of one stage (0.0 if absent).
    pub fn stage_seconds(&self, name: &str) -> f64 {
        // Folded from +0.0 explicitly: an empty `Iterator::<f64>::sum()`
        // yields -0.0, which prints as "-0.000" in the summary table.
        self.stages
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.elapsed.as_secs_f64())
    }

    /// Traces per second of acquire-stage wall time (`None` when served
    /// from cache or the stage is missing).
    pub fn acquire_throughput(&self) -> Option<f64> {
        let secs = self.stage_seconds("acquire");
        (!self.cache_hit && secs > 0.0).then(|| self.traces as f64 / secs)
    }

    /// Simulator events per second of acquire-stage wall time (`None`
    /// when served from cache or the stage is missing) — the
    /// scheme-independent measure of engine throughput, since the seven
    /// netlists differ ~10× in events per trace.
    pub fn event_throughput(&self) -> Option<f64> {
        let secs = self.stage_seconds("acquire");
        (!self.cache_hit && secs > 0.0).then(|| self.stats.events as f64 / secs)
    }

    /// Serialize as one JSON object (hand-rolled: the environment has no
    /// serde, and the schema is flat).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let _ = write!(s, "\"implementation\":{}", json_str(&self.implementation));
        let _ = write!(s, ",\"age_months\":{}", json_f64(self.age_months));
        let _ = write!(s, ",\"traces\":{}", self.traces);
        let _ = write!(s, ",\"workers\":{}", self.workers);
        let _ = write!(s, ",\"cache_hit\":{}", self.cache_hit);
        let _ = write!(s, ",\"sim_events\":{}", self.stats.events);
        let _ = write!(s, ",\"full_transitions\":{}", self.stats.full_transitions);
        let _ = write!(s, ",\"absorbed_glitches\":{}", self.stats.absorbed_glitches);
        let _ = write!(
            s,
            ",\"worker_utilization\":{}",
            json_f64(self.worker_utilization)
        );
        let _ = write!(s, ",\"total_seconds\":{}", json_f64(self.total_seconds()));
        let _ = write!(
            s,
            ",\"traces_per_sec\":{}",
            self.acquire_throughput().map_or("null".into(), json_f64)
        );
        let _ = write!(
            s,
            ",\"events_per_sec\":{}",
            self.event_throughput().map_or("null".into(), json_f64)
        );
        let _ = write!(s, ",\"retried\":{}", self.retried);
        let _ = write!(s, ",\"quarantined\":{}", self.quarantined);
        let _ = write!(s, ",\"resumed\":{}", self.resumed);
        let _ = write!(s, ",\"streamed\":{}", self.streamed);
        let _ = write!(s, ",\"peak_resident_traces\":{}", self.peak_resident);
        let _ = write!(s, ",\"merge_depth\":{}", self.merge_depth);
        let _ = write!(s, ",\"healed\":{}", self.healed);
        let _ = write!(
            s,
            ",\"backend\":{}",
            self.backend.map_or("null".into(), |b| json_str(b.as_str()))
        );
        let _ = write!(
            s,
            ",\"lane_utilization\":{}",
            self.lane_utilization.map_or("null".into(), json_f64)
        );
        let _ = write!(
            s,
            ",\"partial\":{}",
            self.partial.as_deref().map_or("null".into(), json_str)
        );
        s.push_str(",\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_str(w));
        }
        s.push(']');
        s.push_str(",\"stages\":{");
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{}",
                json_str(stage.name),
                json_f64(stage.elapsed.as_secs_f64())
            );
        }
        s.push_str("}}");
        s
    }
}

/// Accumulates every run of one campaign session: cache counters, the
/// summary table, and the JSONL sink.
#[derive(Debug, Default)]
pub struct RunLog {
    reports: Vec<RunReport>,
}

impl RunLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run.
    pub fn push(&mut self, report: RunReport) {
        self.reports.push(report);
    }

    /// All runs so far.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> usize {
        self.reports.iter().filter(|r| r.cache_hit).count()
    }

    /// Cache misses (i.e. real acquisitions) so far.
    pub fn cache_misses(&self) -> usize {
        self.reports.len() - self.cache_hits()
    }

    /// Append every run as one JSON line each; the file accumulates
    /// across sessions. Returns how many lines were written.
    ///
    /// Durable and atomic: the existing log plus the new lines are
    /// staged to a temp file, fsynced, and renamed over the log, so a
    /// crash mid-write can neither tear an existing record nor leave a
    /// half-written line. Callers treat a returned error as a warning —
    /// a broken run log never aborts a campaign.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        self.append_jsonl_with(path, WriteFaults::none())
    }

    /// [`RunLog::append_jsonl`] with injected write faults (the chaos
    /// harness's `enospc@N` / `eio%RATE` route through here).
    pub fn append_jsonl_with(&self, path: &Path, faults: WriteFaults) -> std::io::Result<usize> {
        if self.reports.is_empty() {
            return Ok(0);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut contents = std::fs::read(path).unwrap_or_default();
        for r in &self.reports {
            contents.extend_from_slice(r.to_json().as_bytes());
            contents.push(b'\n');
        }
        write_atomic_with(path, &contents, faults)?;
        Ok(self.reports.len())
    }

    /// The human summary: one row per run plus the cache totals. The
    /// `impl` column is as wide as the longest label, and at least 9.
    pub fn summary_table(&self) -> String {
        let w = self
            .reports
            .iter()
            .map(|r| r.implementation.chars().count())
            .fold(9, usize::max);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<w$} {:>4} {:>7} {:>4} {:>6} {:>9} {:>5} {:>10} {:>6} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9} {:>8} {:>10} partial",
            "impl",
            "age",
            "traces",
            "wrk",
            "cache",
            "engine",
            "lane",
            "events",
            "util",
            "rtry",
            "quar",
            "rsmd",
            "heal",
            "acq(s)",
            "total(s)",
            "tr/s",
            "ev/s",
        );
        for r in &self.reports {
            let _ = writeln!(
                s,
                "{:<w$} {:>4.0} {:>7} {:>4} {:>6} {:>9} {:>5} {:>10} {:>6.2} {:>5} {:>5} {:>5} {:>5} {:>9.3} {:>9.3} {:>8} {:>10} {}",
                r.implementation,
                r.age_months,
                r.traces,
                r.workers,
                if r.cache_hit { "hit" } else { "miss" },
                r.backend.map_or("-", |b| b.as_str()),
                r.lane_utilization
                    .map_or_else(|| "-".into(), |u| format!("{u:.2}")),
                r.stats.events,
                r.worker_utilization,
                r.retried,
                r.quarantined,
                r.resumed,
                r.healed,
                r.stage_seconds("acquire"),
                r.total_seconds(),
                r.acquire_throughput()
                    .map_or_else(|| "-".into(), |t| format!("{t:.0}")),
                r.event_throughput()
                    .map_or_else(|| "-".into(), |t| format!("{t:.0}")),
                r.partial.as_deref().unwrap_or("-"),
            );
        }
        let _ = writeln!(
            s,
            "cache: {} hits / {} misses over {} runs",
            self.cache_hits(),
            self.cache_misses(),
            self.reports.len()
        );
        for r in &self.reports {
            for w in &r.warnings {
                let _ = writeln!(
                    s,
                    "warning: {} age {:.0}: {w}",
                    r.implementation, r.age_months
                );
            }
        }
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null is the conventional degradation.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(hit: bool) -> RunReport {
        RunReport {
            implementation: "ISW".into(),
            age_months: 12.0,
            traces: 64,
            workers: 4,
            cache_hit: hit,
            stats: CaptureStats {
                events: if hit { 0 } else { 4242 },
                full_transitions: if hit { 0 } else { 4000 },
                absorbed_glitches: if hit { 0 } else { 242 },
                settle_time_ps: 900.0,
            },
            worker_utilization: 0.93,
            stages: vec![
                Stage {
                    name: "build",
                    elapsed: Duration::from_millis(5),
                },
                Stage {
                    name: "acquire",
                    elapsed: Duration::from_millis(120),
                },
            ],
            retried: if hit { 0 } else { 1 },
            quarantined: 0,
            resumed: 0,
            streamed: false,
            peak_resident: 0,
            merge_depth: 0,
            healed: 0,
            backend: (!hit).then_some(Backend::Event),
            lane_utilization: None,
            partial: None,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn missing_stage_is_positive_zero_seconds() {
        let secs = report(false).stage_seconds("no-such-stage");
        assert_eq!(secs, 0.0);
        assert!(secs.is_sign_positive(), "must not print as -0.000");
    }

    #[test]
    fn json_lines_are_flat_and_parseable_by_eye() {
        let j = report(false).to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for field in [
            "\"implementation\":\"ISW\"",
            "\"age_months\":12",
            "\"workers\":4",
            "\"cache_hit\":false",
            "\"sim_events\":4242",
            "\"retried\":1",
            "\"quarantined\":0",
            "\"resumed\":0",
            "\"streamed\":false",
            "\"peak_resident_traces\":0",
            "\"merge_depth\":0",
            "\"healed\":0",
            "\"backend\":\"event\"",
            "\"lane_utilization\":null",
            "\"partial\":null",
            "\"warnings\":[]",
            "\"stages\":{\"build\":",
        ] {
            assert!(j.contains(field), "{field} missing from {j}");
        }
        assert!(!j.contains('\n'));

        let mut warned = report(false);
        warned
            .warnings
            .push("store write failed: \"disk full\"".into());
        let j = warned.to_json();
        assert!(j.contains("\"warnings\":[\"store write failed: \\\"disk full\\\"\"]"));
        let table = {
            let mut log = RunLog::new();
            log.push(warned);
            log.summary_table()
        };
        assert!(table.contains("warning: ISW age 12: store write failed"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn stage_timer_orders_and_sums() {
        let mut t = StageTimer::new();
        t.stage("a");
        t.stage("b");
        let stages = t.finish();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "a");
        assert_eq!(stages[1].name, "b");
    }

    #[test]
    fn long_labels_widen_the_impl_column() {
        let mut log = RunLog::new();
        for label in ["ISW", "balanced-lut-opt-1bd10ac90c828a47", "TI"] {
            log.push(RunReport {
                implementation: label.into(),
                ..report(false)
            });
        }
        let table = log.summary_table();
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        let age_at = header.find(" age").unwrap();
        assert_eq!(age_at, 34, "a 33-character column and a space");
        for row in lines.take(3) {
            assert_eq!(&row[age_at - 1..age_at + 5], "   12 ", "{row}");
        }
    }

    #[test]
    fn log_counts_hits_and_appends_jsonl() {
        let mut log = RunLog::new();
        log.push(report(false));
        log.push(report(true));
        log.push(report(true));
        assert_eq!(log.cache_hits(), 2);
        assert_eq!(log.cache_misses(), 1);
        let table = log.summary_table();
        assert!(table.contains("hit") && table.contains("miss"));
        assert!(table.contains("cache: 2 hits / 1 misses over 3 runs"));

        let mut path = std::env::temp_dir();
        path.push(format!("campaign-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(log.append_jsonl(&path).expect("append"), 3);
        assert_eq!(log.append_jsonl(&path).expect("append"), 3);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 6, "appends accumulate");
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn healed_and_partial_land_in_jsonl_and_table() {
        let mut r = report(false);
        r.healed = 3;
        r.partial = Some("deadline expired".into());
        let j = r.to_json();
        assert!(j.contains("\"healed\":3"), "{j}");
        assert!(j.contains("\"partial\":\"deadline expired\""), "{j}");
        let mut log = RunLog::new();
        log.push(r);
        let table = log.summary_table();
        assert!(
            table.contains("heal") && table.contains("partial"),
            "{table}"
        );
        assert!(table.contains("deadline expired"), "{table}");
    }

    #[test]
    fn backend_and_lane_utilization_land_in_jsonl_and_table() {
        let mut r = report(false);
        r.backend = Some(Backend::Bitsliced);
        r.lane_utilization = Some(0.875);
        let j = r.to_json();
        assert!(j.contains("\"backend\":\"bitsliced\""), "{j}");
        assert!(j.contains("\"lane_utilization\":0.875"), "{j}");
        let hit = report(true).to_json();
        assert!(hit.contains("\"backend\":null"), "{hit}");
        assert!(hit.contains("\"lane_utilization\":null"), "{hit}");

        let mut log = RunLog::new();
        log.push(r);
        log.push(report(true));
        let table = log.summary_table();
        assert!(
            table.contains("engine") && table.contains("lane"),
            "{table}"
        );
        assert!(
            table.contains("bitsliced") && table.contains("0.88"),
            "{table}"
        );
        // The hit row shows "-" in the engine and lane columns.
        let hit_row = table.lines().nth(2).expect("hit row");
        assert!(hit_row.contains(" - "), "{hit_row}");
    }

    #[test]
    fn append_jsonl_survives_injected_write_faults_atomically() {
        let mut log = RunLog::new();
        log.push(report(false));
        let mut path = std::env::temp_dir();
        path.push(format!("campaign-log-faulty-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        log.append_jsonl(&path).expect("seed the log");
        let before = std::fs::read_to_string(&path).expect("read");

        // An injected full disk fails the append but must leave the
        // existing log byte-identical (the temp file never replaced it).
        let err = log
            .append_jsonl_with(&path, WriteFaults::none().with_enospc_after(10))
            .expect_err("ENOSPC must surface");
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), before);

        log.append_jsonl(&path).expect("healthy append");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 2, "failed append left no line");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn throughput_only_counts_real_acquisitions() {
        assert!(report(false).acquire_throughput().expect("miss") > 0.0);
        assert!(report(true).acquire_throughput().is_none());
        assert!(report(false).event_throughput().expect("miss") > 0.0);
        assert!(report(true).event_throughput().is_none());
    }

    #[test]
    fn throughput_lands_in_jsonl_and_the_summary_table() {
        let miss = report(false);
        let j = miss.to_json();
        assert!(j.contains("\"traces_per_sec\":"), "{j}");
        assert!(j.contains("\"events_per_sec\":"), "{j}");
        assert!(!j.contains("\"traces_per_sec\":null"), "miss has a rate");
        let hit_json = report(true).to_json();
        assert!(hit_json.contains("\"traces_per_sec\":null"), "{hit_json}");
        assert!(hit_json.contains("\"events_per_sec\":null"), "{hit_json}");

        let mut log = RunLog::new();
        log.push(miss);
        log.push(report(true));
        let table = log.summary_table();
        assert!(table.contains("tr/s") && table.contains("ev/s"), "{table}");
        // The hit row shows "-" in both throughput columns.
        let hit_row = table.lines().nth(2).expect("hit row");
        assert!(hit_row.trim_end().ends_with('-'), "{hit_row}");
    }
}
