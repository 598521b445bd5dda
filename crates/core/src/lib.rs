//! Walsh–Hadamard spectral leakage analysis — the core contribution of
//! *"Leakage Power Analysis in Different S-Box Masking Protection Schemes"*
//! (Bahrami et al., DATE 2022).
//!
//! The methodology projects per-class mean power traces onto the
//! orthonormal Fourier basis over `F₂ⁿ`:
//!
//! * `ψ_u(t) = 2^{−n/2} · (−1)^{u·t}` — [`psi`], computed in bulk by the
//!   fast [`wht`] transform;
//! * `a_u(T) = 2^{−n/2} Σ_t f_T(t) (−1)^{u·t}` — the spectral coefficient of
//!   leakage source `u` at sample time `T` ([`LeakageSpectrum`]);
//! * `LeakagePower(T) = Σ_{u≠0} a_u(T)²` and its sum over the window,
//!   split into **single-bit** sources (`w_H(u) = 1`, classic demasking)
//!   and **multi-bit** sources (`w_H(u) > 1`, glitch-type bit
//!   interactions).
//!
//! The crate also ships the supporting statistics used around the paper:
//! class-mean estimation ([`ClassifiedTraces`]), coefficient convergence
//! versus trace count ([`convergence`], paper Fig. 3), the Theorem-1
//! LSB-parity analysis ([`theorem1`]), and Welch's t-test
//! ([`ttest`], the conventional TVLA tool the spectral method refines).
//!
//! # Example
//!
//! ```
//! use leakage_core::{ClassifiedTraces, LeakageSpectrum};
//!
//! // Two-sample traces for a 2-bit (4-class) toy target whose power at
//! // sample 1 equals the unmasked value — a gross first-order leak.
//! let mut set = ClassifiedTraces::new(4, 2);
//! for class in 0..4usize {
//!     set.push(class, vec![1.0, class as f64]);
//! }
//! let spectrum = LeakageSpectrum::from_class_means(&set.class_means());
//! assert_eq!(spectrum.leakage_power(0), 0.0); // constant sample: no leak
//! assert!(spectrum.leakage_power(1) > 0.0);   // value-dependent sample
//! assert!(spectrum.total_single_bit() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
mod classes;
pub mod comoment;
pub mod convergence;
pub mod metrics;
pub mod online;
mod spectrum;
pub mod stats;
pub mod theorem1;
pub mod ttest;
pub mod wht;
#[cfg(test)]
mod window_guard;

pub use classes::ClassifiedTraces;
pub use comoment::CoMomentAccumulator;
pub use online::{ChunkFold, ClassAccumulator, FoldState, SpectrumAccumulator, SumMode};
pub use spectrum::LeakageSpectrum;
pub use wht::{psi, spectrum_of, walsh_hadamard};
