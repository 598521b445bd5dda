//! Event-driven gate-level timing simulation with an analog power model.
//!
//! This crate is the workspace's substitute for the paper's transistor-level
//! HSpice runs. It reproduces the *logical* leakage mechanisms the paper
//! studies:
//!
//! * **Races and glitches** — every gate has a nominal propagation delay
//!   plus a seeded per-instance process-variation jitter; unequal arrival
//!   times create genuine spurious output transitions. An inertial-delay
//!   rule absorbs pulses narrower than a gate's delay, but absorbed pulses
//!   still dissipate a configurable fraction of a full swing's energy (a
//!   partial output excursion costs current in real CMOS too).
//! * **Additive power** — each output transition injects a triangular
//!   current pulse whose charge comes from the cell's intrinsic switching
//!   energy plus the fanout load capacitance at the configured Vdd. The sum
//!   of all pulses, sampled at 50 GS/s over a 2 ns window, is the power
//!   trace — the additive Hamming-weight-like leakage on which the paper's
//!   Theorem 1 and Walsh–Hadamard analysis rest.
//! * **Aging hooks** — a [`Derating`] table (produced by the `aging` crate)
//!   scales per-gate delay and drive current, slowing edges and shrinking
//!   trace amplitude exactly as threshold-voltage drift does.
//!
//! # Example
//!
//! ```
//! use sbox_netlist::NetlistBuilder;
//! use gatesim::{SamplingConfig, SimConfig, Simulator};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), sbox_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("chain");
//! let a = b.input("a");
//! let x = b.not(a);
//! let y = b.not(x);
//! b.output("y", y);
//! let netlist = b.finish()?;
//!
//! let sim = Simulator::new(&netlist, &SimConfig::default());
//! let mut session = sim.session();
//! let record = session.transition(&[false], &[true]);
//! assert_eq!(record.events.len(), 2); // both inverters switch
//!
//! // Measurement noise (off by default) is drawn from the caller's RNG.
//! let mut noise = SmallRng::seed_from_u64(1);
//! let mut trace = Vec::new();
//! session.capture_into(&[false], &[true], &SamplingConfig::default(), &mut noise, &mut trace);
//! assert_eq!(trace.len(), 100);
//! assert!(trace.iter().sum::<f64>() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitsliced;
mod config;
mod derating;
mod engine;
mod power;
mod profile;
mod program;
mod session;
pub mod vcd;

pub use bitsliced::{BitsliceUnsupported, BitslicedSession, LaneStimulus, LANES};
pub use config::{SamplingConfig, SimConfig};
pub use derating::Derating;
pub use engine::{CaptureStats, Simulator, SwitchEvent, TransitionRecord};
pub use power::sample_waveform_into;
pub use profile::ActivityProfile;
pub use session::CaptureSession;
