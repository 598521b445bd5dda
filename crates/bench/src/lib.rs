//! Throughput ledgers for the sbox-leakage workspace (package
//! `sca-bench`).
//!
//! Three binaries each time one comparison, assert that both sides
//! agree bit for bit before timing, and write a `BENCH_*.json` ledger:
//!
//! * `capture_bench` → `BENCH_capture.json`: capture throughput of a
//!   fresh against a reused `CaptureSession` and the bit-sliced batch
//!   backend, each streaming-fold leg against its raw capture, on ISW;
//!   then the session against the bit-sliced batch on TI, GLUT,
//!   RSM-ROM and the 64-bit PRESENT substitution layer; and the
//!   build time of every scheme's circuit;
//! * `attack_bench` → `BENCH_attack.json`: batch against streamed
//!   distinguisher scoring over the same in-memory traces;
//! * `repair_bench` → `BENCH_repair.json`: from-scratch against
//!   cone-scoped incremental re-analysis of the repair loop's
//!   candidates, with a pinned speedup floor.
//!
//! The per-layer costs of the whole pipeline (circuit builds, aging,
//! folds, merges, class means, the transform, store I/O) are timed by
//! the separate `pipeline_bench` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A ledger number as JSON: three decimals, or `null` when it is not
/// finite (a leg too fast to time, a ratio over zero).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}
