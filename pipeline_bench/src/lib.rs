//! The pipeline benchmark of the leakage-reproduction chain:
//! sboxes → aging → gatesim → acquisition → leakage-core → sca-attacks
//! → the campaign executor and store.
//!
//! Four workloads ([`workload::Workload`]) run through the campaign's
//! user entry points ([`e2e`]), one fresh process per rep, and report
//! the end-to-end metrics of [`catalog::END_TO_END`]. A single-threaded
//! [`replay`] makes the same public calls inside bench-side spans
//! ([`trace`]), giving the per-layer metrics of [`catalog::PER_LAYER`]
//! and a digest that the end-to-end run must reproduce bit for bit.
//! See `README.md` for the command, the workloads and the bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod e2e;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
