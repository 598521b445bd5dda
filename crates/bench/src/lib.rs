//! Benchmark harness for the sbox-leakage workspace (package
//! `sca-bench`).
//!
//! The Criterion benches measure the cost of every pipeline stage: the
//! Walsh–Hadamard transform, netlist generation/synthesis, event-driven
//! simulation per scheme, trace acquisition, aging evaluation, CPA, and
//! campaign worker scaling. Run with `cargo bench -p sca-bench`.
//!
//! Three binaries each time one comparison, assert that both sides
//! agree bit for bit before timing, and write a `BENCH_*.json` ledger:
//!
//! * `capture_bench` → `BENCH_capture.json`: capture throughput of a
//!   fresh against a reused `CaptureSession` and the bit-sliced batch
//!   backend, each streaming-fold leg against its raw capture;
//! * `attack_bench` → `BENCH_attack.json`: batch against streamed
//!   distinguisher scoring over the same in-memory traces;
//! * `repair_bench` → `BENCH_repair.json`: from-scratch against
//!   cone-scoped incremental re-analysis of the repair loop's
//!   candidates, with a pinned speedup floor.

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
