//! # sbox-leakage
//!
//! A full reproduction of *"Leakage Power Analysis in Different S-Box
//! Masking Protection Schemes"* (Bahrami, Ebrahimabadi, Danger, Guilley,
//! Karimi — DATE 2022) as a Rust workspace: gate-level netlists of seven
//! PRESENT S-box implementations, an event-driven timing/power simulator,
//! BTI/HCI aging models, and the Walsh–Hadamard spectral leakage analysis
//! that compares them.
//!
//! This crate is the facade: it re-exports the member crates under stable
//! names. See the workspace `README.md` for the architecture overview and
//! `EXPERIMENTS.md` for the paper-versus-measured results.
//!
//! # Example
//!
//! ```
//! use sbox_leakage::circuits::{SboxCircuit, Scheme};
//!
//! let isw = SboxCircuit::build(Scheme::Isw);
//! assert_eq!(isw.netlist().stats().total_gates, 57);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use acquisition;
pub use aging;
pub use campaign;
pub use gatesim;
pub use leakage_core as analysis;
pub use present_cipher as present;
pub use sbox_circuits as circuits;
pub use sbox_netlist as netlist;
pub use sca_attacks as attacks;
pub use sca_frontend as frontend;
pub use sca_repair as repair;
pub use sca_verify as verify;

/// The workspace `README.md`, compiled as doctests so its Rust snippets
/// cannot drift from the API; the ones that run a campaign are
/// `no_run`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
