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
//! the per-class mean traces feed the Walsh–Hadamard analysis of
//! [`leakage_core`].
//!
//! Experiments acquire through the `sca-campaign` crate, which shards
//! the schedule over workers and picks the capture engine per netlist;
//! [`acquire`], [`acquire_with_derating`] and [`acquire_cpa`] are the
//! sequential event-engine reference it is tested against.
//!
//! # Example
//!
//! ```
//! use acquisition::{acquire, ProtocolConfig};
//! use leakage_core::LeakageSpectrum;
//! use sbox_circuits::{SboxCircuit, Scheme};
//!
//! let config = ProtocolConfig { traces_per_class: 2, ..ProtocolConfig::default() };
//! let traces = acquire(&SboxCircuit::build(Scheme::Isw), &config);
//! let spectrum = LeakageSpectrum::from_class_means(&traces.class_means());
//! assert!(spectrum.total_leakage_power() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod protocol;
mod study;

pub use backend::Backend;
pub use protocol::{
    acquire, acquire_cpa, acquire_with_derating, classified_schedule, cpa_schedule, cpa_seed,
    trace_seed, CaptureError, CpaAcquisition, ProtocolConfig, Stimulus, NUM_CLASSES,
};
pub use study::LeakageStudy;
