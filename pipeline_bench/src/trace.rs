//! Bench-side spans around the calls into each layer.
//!
//! A [`Tracer`] times every call it wraps and aggregates the spans per
//! (cell, layer): each cell span is the parent of its layer spans, and
//! layer spans never nest, so a layer's self time is the sum of its
//! spans. Spans stay in memory; [`Tracer::to_json`] writes them out at
//! the end. With spans off the wrapped calls run untimed, which gives
//! the tracing overhead by comparison.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A layer of the pipeline, as the replay calls into it. Declared in
/// [`Layer::ALL`] order, so `layer as usize` indexes per-layer arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SboxCircuit::build`.
    Build,
    /// The aged device's derating at one age.
    Derate,
    /// `Simulator::with_derating` plus its capture session.
    SimSetup,
    /// `classified_schedule` / `cpa_schedule`.
    Schedule,
    /// Event-driven or bit-sliced capture.
    Capture,
    /// Spectral accumulator folds.
    CoreFold,
    /// Spectral merge tree.
    CoreMerge,
    /// Class means of a materialized set or an accumulator.
    ClassMeans,
    /// The Walsh–Hadamard projection.
    Wht,
    /// Per-guess co-moment folds.
    AttackFold,
    /// Co-moment merges (running prefix and merge tree).
    AttackMerge,
    /// Score extraction and key ranking.
    AttackRank,
    /// `SCTR` store writes.
    StoreWrite,
    /// `SCTR` store reads.
    StoreRead,
    /// `SCKP` checkpoint frames and their syncs.
    Checkpoint,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 15] = [
        Layer::Build,
        Layer::Derate,
        Layer::SimSetup,
        Layer::Schedule,
        Layer::Capture,
        Layer::CoreFold,
        Layer::CoreMerge,
        Layer::ClassMeans,
        Layer::Wht,
        Layer::AttackFold,
        Layer::AttackMerge,
        Layer::AttackRank,
        Layer::StoreWrite,
        Layer::StoreRead,
        Layer::Checkpoint,
    ];

    /// The span name; the layer's self-time metric is this plus `_s`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "sboxes.build",
            Layer::Derate => "aging.derate",
            Layer::SimSetup => "gatesim.setup",
            Layer::Schedule => "acquisition.schedule",
            Layer::Capture => "gatesim.capture",
            Layer::CoreFold => "core.fold",
            Layer::CoreMerge => "core.merge",
            Layer::ClassMeans => "core.class_means",
            Layer::Wht => "core.wht",
            Layer::AttackFold => "attacks.fold",
            Layer::AttackMerge => "attacks.merge",
            Layer::AttackRank => "attacks.rank",
            Layer::StoreWrite => "campaign.store_write",
            Layer::StoreRead => "campaign.store_read",
            Layer::Checkpoint => "campaign.checkpoint",
        }
    }
}

/// Work counted at the same boundaries the spans time. Counted with
/// spans on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Traces captured.
    pub traces: u64,
    /// Simulator supply events.
    pub events: u64,
    /// Bit-sliced passes run.
    pub lane_batches: u64,
    /// Lanes of those passes that carried a stimulus.
    pub lane_slots: u64,
    /// Traces folded into spectral accumulators.
    pub core_folds: u64,
    /// Spectral accumulator merges.
    pub core_merges: u64,
    /// Traces folded into attack accumulators (per distinguisher).
    pub attack_folds: u64,
    /// Key-rank evaluations.
    pub rank_evals: u64,
    /// Bytes of `SCTR` stores written.
    pub store_write_bytes: u64,
    /// Bytes of `SCTR` stores read.
    pub store_read_bytes: u64,
    /// Checkpoint syncs (each pushes the frames written so far to the
    /// device).
    pub checkpoint_syncs: u64,
}

#[derive(Debug, Clone, Copy)]
struct SpanAgg {
    start: Duration,
    end: Duration,
    busy: Duration,
    count: u64,
}

#[derive(Debug)]
struct Cell {
    name: String,
    start: Duration,
    end: Duration,
    /// Indexed by layer position in [`Layer::ALL`].
    spans: [Option<SpanAgg>; Layer::ALL.len()],
}

/// Span recorder for one replay.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    cells: Vec<Cell>,
    busy: [Duration; Layer::ALL.len()],
    wall: Option<Duration>,
    /// Work counters.
    pub counters: Counters,
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled` turns spans on.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            cells: Vec::new(),
            busy: [Duration::ZERO; Layer::ALL.len()],
            wall: None,
            counters: Counters::default(),
        }
    }

    /// Open the span of the next cell (closing the previous one).
    pub fn cell(&mut self, name: String) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        if let Some(prev) = self.cells.last_mut() {
            prev.end = now;
        }
        self.cells.push(Cell {
            name,
            start: now,
            end: now,
            spans: [None; Layer::ALL.len()],
        });
    }

    /// Run `f` as one call into `layer`, timed when spans are on.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let i = layer as usize;
        self.busy[i] += end - start;
        if let Some(cell) = self.cells.last_mut() {
            let agg = cell.spans[i].get_or_insert(SpanAgg {
                start,
                end,
                busy: Duration::ZERO,
                count: 0,
            });
            agg.end = end;
            agg.busy += end - start;
            agg.count += 1;
        }
        out
    }

    /// Stop the clock: the replay's wall time.
    pub fn finish(&mut self) -> Duration {
        let wall = self.origin.elapsed();
        if let Some(last) = self.cells.last_mut() {
            last.end = wall;
        }
        self.wall = Some(wall);
        wall
    }

    /// Wall time in seconds, as stopped by [`Tracer::finish`].
    pub fn wall_s(&self) -> f64 {
        self.wall
            .unwrap_or_else(|| self.origin.elapsed())
            .as_secs_f64()
    }

    /// Self time of `layer` in seconds.
    pub fn layer_seconds(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64()
    }

    /// Layer self time divided by wall time (0 with spans off).
    pub fn coverage(&self) -> f64 {
        let busy: Duration = self.busy.iter().sum();
        busy.as_secs_f64() / self.wall_s()
    }

    /// Every span as JSON: cells in order, each with its layer spans
    /// (`start_s`/`end_s` of the first and last call, summed `busy_s`,
    /// call `count`).
    pub fn to_json(&self, header: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{{header},\"cells\":[");
        for (ci, cell) in self.cells.iter().enumerate() {
            if ci > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"spans\":[",
                cell.name,
                cell.start.as_secs_f64(),
                cell.end.as_secs_f64()
            );
            let mut first = true;
            for (layer, agg) in Layer::ALL.iter().zip(&cell.spans) {
                let Some(agg) = agg else { continue };
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"busy_s\":{},\"count\":{}}}",
                    layer.name(),
                    agg.start.as_secs_f64(),
                    agg.end.as_secs_f64(),
                    agg.busy.as_secs_f64(),
                    agg.count
                );
            }
            s.push_str("]}");
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_declared_in_reporting_order() {
        for (i, &layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(layer as usize, i, "{}", layer.name());
        }
    }

    #[test]
    fn spans_aggregate_per_cell_and_layer() {
        let mut t = Tracer::new(true);
        t.cell("a".into());
        let x = t.span(Layer::Build, || 2 + 2);
        t.span(Layer::Build, || ());
        t.span(Layer::Wht, || ());
        t.cell("b".into());
        t.span(Layer::Wht, || ());
        t.finish();
        assert_eq!(x, 4);
        let json = t.to_json("\"workload\":\"w\"");
        assert_eq!(json.matches("\"name\":\"sboxes.build\"").count(), 1);
        assert_eq!(json.matches("\"name\":\"core.wht\"").count(), 2);
        assert!(json.contains("\"count\":2"));
        assert!(t.coverage() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.cell("a".into());
        assert_eq!(t.span(Layer::Capture, || 7), 7);
        t.finish();
        assert_eq!(t.layer_seconds(Layer::Capture), 0.0);
        assert!(t.to_json("\"w\":1").contains("\"cells\":[\n]"));
    }
}
