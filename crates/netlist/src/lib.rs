//! Gate-level netlist substrate for side-channel leakage studies.
//!
//! This crate provides the hardware-description layer on which the rest of
//! the workspace is built:
//!
//! * [`CellType`] — a NANGATE-45nm-inspired standard-cell library (2–4 input
//!   AND/OR/NAND/NOR, XOR/XNOR, INV, BUF) with per-cell nominal propagation
//!   delay, switching energy, input/output capacitance and NAND2-equivalent
//!   area.
//! * [`Netlist`] / [`NetlistBuilder`] — a flat combinational netlist graph
//!   with named primary inputs/outputs, structural validation, topological
//!   ordering and levelization.
//! * [`NetlistStats`] — the gate-mix / area / depth report used to reproduce
//!   Table I of the paper.
//! * [`synth`] — a small two-level (Quine–McCluskey style) synthesizer that
//!   turns truth tables into AND/OR/INV netlists, plus balanced k-ary
//!   reduction-tree helpers used by the hand-structured generators.
//! * [`cone`] — input-cone / cut utilities (per-net primary-input support
//!   masks), the substrate of the `sca-verify` crate's glitch-extended
//!   probing analysis.
//!
//! # Example
//!
//! Build a tiny 2-input circuit and evaluate it:
//!
//! ```
//! use sbox_netlist::{CellType, NetlistBuilder};
//!
//! # fn main() -> Result<(), sbox_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("toy");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let x = b.gate(CellType::Xor2, &[a, bb]);
//! b.output("y", x);
//! let netlist = b.finish()?;
//! assert_eq!(netlist.evaluate(&[true, false]), vec![true]);
//! assert_eq!(netlist.evaluate(&[true, true]), vec![false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
mod cell;
pub mod cone;
mod error;
mod graph;
mod stats;
pub mod synth;
pub mod timing;
pub mod transform;

pub use cell::{CellType, ALL_CELL_TYPES};
pub use error::NetlistError;
pub use graph::{Gate, GateId, Net, NetId, Netlist, NetlistBuilder};
pub use stats::NetlistStats;
