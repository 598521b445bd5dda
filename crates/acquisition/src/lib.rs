//! The paper's trace-acquisition protocol (Fig. 5) and the aging model
//! it stresses the device with.
//!
//! Protocol, per trace:
//!
//! 1. the circuit settles on a **random encoding of class 0** (e.g.
//!    `A ⊕ MI = 0` for GLUT) — the "initial value";
//! 2. at `t = 0` the primary inputs switch to a **random encoding of the
//!    final value** `t ∈ F₂⁴`;
//! 3. 100 power samples are captured over 2 ns (50 GS/s).
//!
//! Final values are drawn such that every one of the 16 classes receives
//! exactly the same number of traces (the paper uses 64 × 16 = 1024), and
//! the per-class mean traces feed the Walsh–Hadamard analysis of the
//! `leakage-core` crate.
//!
//! This crate holds the protocol only: its parameters
//! ([`ProtocolConfig`]), the two stimulus schedules
//! ([`classified_schedule`], [`cpa_schedule`]) that draw all mask and
//! plaintext randomness up front, the per-trace noise seeds
//! ([`trace_seed`], [`cpa_seed`]), and the aging workload
//! ([`LeakageStudy`]). Traces are captured by the `sca-campaign` crate,
//! which shards a schedule over workers and picks the capture engine per
//! netlist.
//!
//! # Example
//!
//! ```
//! use acquisition::{classified_schedule, ProtocolConfig, NUM_CLASSES};
//! use sbox_circuits::{SboxCircuit, Scheme};
//!
//! let config = ProtocolConfig { traces_per_class: 2, ..ProtocolConfig::default() };
//! let circuit = SboxCircuit::build(Scheme::Isw);
//! let schedule = classified_schedule(&circuit, &config);
//! assert_eq!(schedule.len(), 2 * NUM_CLASSES);
//! // All randomness is drawn: each stimulus is a pair of input vectors
//! // sized for the circuit, ready for either capture engine.
//! let inputs = circuit.netlist().num_inputs();
//! assert!(schedule.iter().all(|s| s.validate(inputs).is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod protocol;
mod study;

pub use protocol::{
    classified_schedule, cpa_schedule, cpa_seed, trace_seed, CaptureError, ProtocolConfig,
    Stimulus, NUM_CLASSES,
};
pub use study::LeakageStudy;
