//! Every metric the benchmark reports, with its unit, and for each
//! per-layer metric the end-to-end metric and workload it should move
//! and the workloads on which it should stay flat. Written down before
//! any optimisation, so a change can be checked against its prediction.

/// An end-to-end metric: host time or memory as a user sees it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [Metric; 4] = [
    // The timed phase of one rep.
    Metric {
        name: "wall_s",
        unit: "s",
    },
    // Traces captured, read or refolded, divided by `wall_s`.
    Metric {
        name: "traces_per_s",
        unit: "traces/s",
    },
    // Process start to the timed phase; the warm workload fills its
    // store here.
    Metric {
        name: "setup_s",
        unit: "s",
    },
    // The rep process's `VmHWM`.
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
    },
];

/// A per-layer metric and the prediction it carries.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `(end-to-end metric, workload)` pairs a change to this layer
    /// should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which it should stay flat.
    pub flat_on: &'static [&'static str],
}

const SPECTRA: &[&str] = &["spectra-cold", "spectra-stream", "spectra-warm"];
const CAPTURE_ON: &[(&str, &str)] = &[
    ("traces_per_s", "spectra-cold"),
    ("traces_per_s", "spectra-stream"),
    ("traces_per_s", "attack"),
];
const FIXED_COST_ON: &[(&str, &str)] = &[("wall_s", "spectra-stream")];
const STREAM_ON: &[(&str, &str)] = &[("traces_per_s", "spectra-stream")];
const WARM_ON: &[(&str, &str)] = &[("traces_per_s", "spectra-warm")];
const ATTACK_ON: &[(&str, &str)] = &[("traces_per_s", "attack")];
const WALL_ALL: &[(&str, &str)] = &[
    ("wall_s", "spectra-cold"),
    ("wall_s", "spectra-stream"),
    ("wall_s", "spectra-warm"),
    ("wall_s", "attack"),
];
const COLD_WORKERS: &[(&str, &str)] = &[
    ("traces_per_s", "spectra-cold"),
    ("traces_per_s", "spectra-stream"),
    ("traces_per_s", "attack"),
];
const RESIDENT_ON: &[(&str, &str)] =
    &[("peak_rss_mb", "spectra-stream"), ("peak_rss_mb", "attack")];

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
    flat_on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        flat_on,
    }
}

/// The per-layer metrics, in reporting order. Layer times are self
/// times from the traced replay; `campaign.stage.*` and the run-log
/// summary come from the end-to-end run's own run log; `trace.*`
/// describes the trace.
pub const PER_LAYER: &[LayerMetric] = &[
    // Per-cell fixed cost: the largest share where per-trace work is
    // cheapest. The campaign builds the circuit before its cache
    // lookup, so the warm workload pays the build on every hit.
    layer(
        "sboxes.build_s",
        "s",
        &[
            ("wall_s", "spectra-stream"),
            ("traces_per_s", "spectra-warm"),
        ],
        &[],
    ),
    layer("aging.derate_s", "s", FIXED_COST_ON, &[]),
    layer("gatesim.setup_s", "s", FIXED_COST_ON, &[]),
    layer("acquisition.schedule_s", "s", FIXED_COST_ON, &[]),
    // Capture.
    layer("gatesim.capture_s", "s", CAPTURE_ON, &["spectra-warm"]),
    layer("gatesim.traces", "count", CAPTURE_ON, &["spectra-warm"]),
    layer("gatesim.events", "count", CAPTURE_ON, &["spectra-warm"]),
    layer(
        "gatesim.lane_util",
        "ratio",
        STREAM_ON,
        &["spectra-cold", "spectra-warm", "attack"],
    ),
    // The spectral streaming fold and its merge tree.
    layer(
        "core.fold_s",
        "s",
        STREAM_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    layer(
        "core.folds",
        "count",
        STREAM_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    layer(
        "core.merge_s",
        "s",
        STREAM_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    layer(
        "core.merges",
        "count",
        STREAM_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    // Class means and the WHT.
    layer("core.class_means_s", "s", WARM_ON, &["attack"]),
    layer("core.wht_s", "s", WARM_ON, &["attack"]),
    // Attack scoring.
    layer("attacks.fold_s", "s", ATTACK_ON, SPECTRA),
    layer("attacks.folds", "count", ATTACK_ON, SPECTRA),
    layer("attacks.merge_s", "s", ATTACK_ON, SPECTRA),
    layer("attacks.rank_s", "s", ATTACK_ON, SPECTRA),
    layer("attacks.rank_evals", "count", ATTACK_ON, SPECTRA),
    // Store I/O.
    layer(
        "campaign.store_write_s",
        "s",
        &[("wall_s", "spectra-cold"), ("setup_s", "spectra-warm")],
        &["spectra-stream"],
    ),
    layer(
        "campaign.store_write_bytes",
        "B",
        &[("wall_s", "spectra-cold"), ("setup_s", "spectra-warm")],
        &["spectra-stream"],
    ),
    layer("campaign.store_read_s", "s", WARM_ON, &["spectra-stream"]),
    layer(
        "campaign.store_read_bytes",
        "B",
        WARM_ON,
        &["spectra-stream"],
    ),
    // Checkpoint frames and their syncs: cold cells only (the stream
    // runs with the cache off, the warm workload only reads).
    layer(
        "campaign.checkpoint_s",
        "s",
        &[("wall_s", "spectra-cold"), ("wall_s", "attack")],
        &["spectra-stream", "spectra-warm"],
    ),
    layer(
        "campaign.checkpoint_syncs",
        "count",
        &[("wall_s", "spectra-cold"), ("wall_s", "attack")],
        &["spectra-stream", "spectra-warm"],
    ),
    // The campaign's own stage timers.
    layer("campaign.stage.load_s", "s", WALL_ALL, &[]),
    layer("campaign.stage.age_s", "s", WALL_ALL, &[]),
    layer("campaign.stage.acquire_s", "s", WALL_ALL, &[]),
    layer("campaign.stage.store_s", "s", WALL_ALL, &[]),
    layer("campaign.stage.analyze_s", "s", WALL_ALL, &[]),
    // The campaign's run-log summary.
    layer("campaign.hit_ratio", "ratio", WARM_ON, &[]),
    layer(
        "campaign.worker_util",
        "ratio",
        COLD_WORKERS,
        &["spectra-warm"],
    ),
    layer(
        "campaign.lane_util",
        "ratio",
        STREAM_ON,
        &["spectra-cold", "spectra-warm", "attack"],
    ),
    layer("campaign.retried", "count", COLD_WORKERS, &["spectra-warm"]),
    layer(
        "campaign.quarantined",
        "count",
        COLD_WORKERS,
        &["spectra-warm"],
    ),
    layer(
        "campaign.merge_depth_max",
        "count",
        STREAM_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    layer(
        "campaign.peak_resident_max",
        "count",
        RESIDENT_ON,
        &["spectra-cold", "spectra-warm"],
    ),
    // The trace itself: replay wall, the share of it the layers
    // account for, and spans-on over spans-off wall. They describe the
    // measurement, so they predict nothing.
    layer("trace.wall_s", "s", &[], &[]),
    layer("trace.coverage", "ratio", &[], &[]),
    layer("trace.overhead", "ratio", &[], &[]),
];
