//! Static masking-security analysis of the S-box netlists.
//!
//! The paper's headline finding is dynamic: masked S-boxes leak almost
//! exclusively through multi-bit (glitch-related) Walsh components, TI
//! worst, ISW best. This crate is the *static* counterpart — a netlist
//! analyzer that predicts which gates can recombine shares of the secret
//! under transient (glitch-extended) probes, without simulating a single
//! trace:
//!
//! 1. **Share-domain taint** ([`taint`]): label every primary input as a
//!    share of a secret bit or as fresh randomness (via
//!    [`sbox_circuits::InputEncoding::input_roles`]) and propagate the
//!    labels through each gate's glitch-extended input cone.
//! 2. **Glitch-extended probing** ([`analyze`](mod@analyze), on top of
//!    the [`packed`] sweep): exhaustively enumerate the mask space and
//!    test, per gate, whether the *joint* distribution of its fan-in
//!    values depends on the unmasked class — the leakage a probe
//!    sees during the race window, which plain value probing provably
//!    misses. A boundary rule ([`rules::RuleId::GxBoundary`]) covers the
//!    composition defect of register-free TI. One evaluator
//!    ([`incremental`]) fills the sweep's flat lane matrix and computes
//!    every statistic: [`analyze_subject`] runs it from scratch, and
//!    [`Baseline::reanalyze`] runs it against a base subject, re-evaluating
//!    only the edited cones.
//! 3. **Typed diagnostics** ([`rules`], [`report`]): rule ID, severity,
//!    gate/net with names, witness probe set — as a human table and a
//!    byte-stable JSON document pinned in CI ([`expect`]).
//! 4. **Scores** ([`score`]): energy-weighted per-gate glitch scores,
//!    rank-correlated against the dynamic per-gate multi-bit spectrum by
//!    the `verify_correlation` experiment.
//!
//! # Quickstart
//!
//! ```
//! use sbox_circuits::{Scheme, SboxCircuit};
//!
//! let analysis = sca_verify::analyze(&SboxCircuit::build(Scheme::Ti));
//! // TI is value-secure but transient-leaky (registerless composition):
//! assert!(analysis.verdicts.value_first_order);
//! assert!(!analysis.verdicts.glitch_first_order());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod expect;
pub mod incremental;
pub mod packed;
pub mod report;
pub mod rules;
pub mod score;
pub mod subject;
pub mod taint;

pub use analyze::{analyze, analyze_subject, Analysis, Verdicts, BIAS_EPS, FRESH_FANOUT_LIMIT};
pub use incremental::{Baseline, ReanalyzeEffort};
pub use packed::PackedSweep;
pub use rules::{Diagnostic, Location, RuleId, Severity};
pub use score::{Scores, COMPOSITION_WEIGHT};
pub use subject::{Depth, Subject};
pub use taint::TaintMap;
