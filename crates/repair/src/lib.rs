//! Witness-guided countermeasure auto-repair.
//!
//! The static analyzer ([`sca_verify`]) tells a designer *where* a masked
//! netlist leaks — which gate recombines shares, which output boundary
//! composes unsoundly. This crate closes the loop: it reads those
//! diagnostics, synthesizes candidate countermeasure patches *anchored at
//! the witness sites*, and re-verifies each candidate until the Error set
//! is empty.
//!
//! The pipeline has three stages:
//!
//! 1. **Patch generation** ([`patch`]): six generator families — fresh-mask
//!    refreshes at flagged output boundaries (shared, per-group, and ring
//!    topologies), affine share remapping that reuses an existing refresh
//!    bit, XOR re-association that splits a recombining associativity
//!    chain, and synchronization-barrier insertion at glitching gates.
//!    Every patch keeps gate and net ids stable (new structure is appended,
//!    never interleaved), so diagnostics on a candidate map one-to-one onto
//!    the base.
//! 2. **Beam search** ([`search`]): candidates are scored by an energy
//!    cost (added-gate switching energy plus a per-fresh-bit randomness
//!    tax) and accepted only if their Error set is a *strict subset* of the
//!    parent's — repairs must monotonically shrink the problem, never trade
//!    one Error for another. Re-verification runs through
//!    [`sca_verify::Baseline::reanalyze`], the incremental cone-scoped
//!    engine, so a search over dozens of candidates costs a fraction of as
//!    many from-scratch analyses.
//! 3. **Dynamic confirmation** ([`confirm`](mod@confirm)): the accepted repair is
//!    replayed through the bit-sliced gate-level power simulator and the
//!    class-conditional NICV of base and repaired netlists are compared —
//!    the static verdict is cross-checked against the paper's own dynamic
//!    leakage metric.
//!
//! [`report`] renders the whole episode (initial diagnosis, patch trace,
//! final verdict, NICV delta) as a byte-stable JSON document pinned by the
//! golden suite under `tests/golden/repair/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confirm;
pub mod patch;
pub mod report;
pub mod search;

pub use confirm::{confirm, Confirmation};
pub use patch::{generate, GeneratedPatches, Patch, BARRIER_COST_FJ, FRESH_COST_FJ};
pub use search::{repair, RepairOutcome, SearchConfig, SearchEffort, StepRecord};
