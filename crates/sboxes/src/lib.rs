//! The seven PRESENT S-box hardware implementations compared by the paper.
//!
//! Two unprotected and five masking-protected gate-level netlists
//! (paper §IV):
//!
//! | [`Scheme`] | Style | Random bits |
//! |---|---|---|
//! | [`Scheme::Lut`] | two-level AND/OR lookup logic (baseline) | 0 |
//! | [`Scheme::Opt`] | SAT-optimized 14-gate circuit, minimal non-linear gates | 0 |
//! | [`Scheme::Glut`] | global masked lookup `Y = S(A⊕MI)⊕MO` | 8 |
//! | [`Scheme::Rsm`] | rotating S-box masking, `MO = (MI+1) mod 16` | 4 |
//! | [`Scheme::RsmRom`] | ROM-style RSM: NOR/NAND/INV one-hot, synchronized datapath | 4 |
//! | [`Scheme::Isw`] | Ishai–Sahai–Wagner gadgets over the OPT netlist | 4 |
//! | [`Scheme::Ti`] | 4-share threshold implementation (non-complete, degree 3) | 12 |
//!
//! Every implementation comes with its [`InputEncoding`], which maps an
//! unmasked class value `t ∈ F₂⁴` and fresh mask randomness onto the
//! netlist's primary inputs, following the paper's trace protocol.
//!
//! # Example
//!
//! ```
//! use sbox_circuits::{Scheme, SboxCircuit};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let circuit = SboxCircuit::build(Scheme::Isw);
//! let mut rng = SmallRng::seed_from_u64(1);
//! let inputs = circuit.encoding().encode(0x6, &mut rng);
//! let outputs = circuit.netlist().evaluate(&inputs);
//! let unmasked = circuit.encoding().unmask_output(&inputs, &outputs);
//! assert_eq!(unmasked, present_cipher::sbox(0x6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anf;
mod encoding;
mod glut;
mod isw;
mod lut;
mod opt;
pub mod program;
pub mod round1;
mod rsm;
mod rsmrom;
mod ti;

use sbox_netlist::Netlist;

pub use encoding::{InputEncoding, InputRole};

/// The seven implementation styles of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Unprotected two-level lookup logic.
    Lut,
    /// Unprotected SAT-optimized circuit (fewest non-linear gates).
    Opt,
    /// Global lookup-table masking, independent input/output masks.
    Glut,
    /// Rotating S-box masking (low-entropy GLUT).
    Rsm,
    /// ROM-style RSM built from NOR/NAND/INV with a synchronized datapath.
    RsmRom,
    /// Gate-level masking via ISW random-sharing gadgets.
    Isw,
    /// Threshold implementation with 4 shares.
    Ti,
}

impl Scheme {
    /// All schemes, in the paper's Table I column order.
    pub const ALL: [Scheme; 7] = [
        Scheme::Lut,
        Scheme::Opt,
        Scheme::Glut,
        Scheme::Rsm,
        Scheme::RsmRom,
        Scheme::Isw,
        Scheme::Ti,
    ];

    /// The label used in the paper's tables and figures.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Lut => "LUT",
            Scheme::Opt => "LUT-OPT",
            Scheme::Glut => "GLUT",
            Scheme::Rsm => "RSM",
            Scheme::RsmRom => "RSM-ROM",
            Scheme::Isw => "ISW",
            Scheme::Ti => "TI",
        }
    }

    /// Whether the scheme carries a masking countermeasure.
    pub const fn is_protected(self) -> bool {
        !matches!(self, Scheme::Lut | Scheme::Opt)
    }

    /// Datapath random bits consumed per evaluation (Table I convention:
    /// masks and gadget refresh bits entering the netlist as inputs; the
    /// initial sharing of the plaintext is part of the stimulus protocol).
    pub const fn random_bits(self) -> usize {
        match self {
            Scheme::Lut | Scheme::Opt => 0,
            Scheme::Glut => 8,
            Scheme::Rsm | Scheme::RsmRom | Scheme::Isw => 4,
            Scheme::Ti => 12,
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A built S-box implementation: the netlist plus its input encoding.
#[derive(Debug, Clone)]
pub struct SboxCircuit {
    scheme: Scheme,
    netlist: Netlist,
    encoding: InputEncoding,
}

impl SboxCircuit {
    /// Generate the netlist for a scheme.
    ///
    /// Construction is deterministic; the result is functionally verified
    /// by this crate's test suite.
    pub fn build(scheme: Scheme) -> Self {
        let netlist = match scheme {
            Scheme::Lut => lut::build(),
            Scheme::Opt => opt::build(),
            Scheme::Glut => glut::build(),
            Scheme::Rsm => rsm::build(),
            Scheme::RsmRom => rsmrom::build(),
            Scheme::Isw => isw::build(),
            Scheme::Ti => ti::build(),
        };
        Self {
            scheme,
            netlist,
            encoding: InputEncoding::for_scheme(scheme),
        }
    }

    /// Build every scheme, in Table I order.
    pub fn build_all() -> Vec<Self> {
        Scheme::ALL.iter().map(|&s| Self::build(s)).collect()
    }

    /// Wrap a transformed variant of a scheme's netlist (e.g. after
    /// [`sbox_netlist::transform::balance_delays`]) with the scheme's
    /// standard encoding.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's port counts do not match the scheme's
    /// encoding.
    pub fn from_parts(scheme: Scheme, netlist: Netlist) -> Self {
        let encoding = InputEncoding::for_scheme(scheme);
        assert_eq!(netlist.num_inputs(), encoding.num_inputs(), "input ports");
        assert_eq!(
            netlist.num_outputs(),
            encoding.num_outputs(),
            "output ports"
        );
        Self {
            scheme,
            netlist,
            encoding,
        }
    }

    /// Wrap an *instrumented* variant of a scheme's netlist: identical
    /// primary inputs, the scheme's standard outputs first, plus any
    /// number of appended observation taps (e.g. from
    /// [`sbox_netlist::transform::observe_product`]). Used by the
    /// `sca-verify` mutation tests, which graft deliberate masking
    /// defects onto a netlist and expect the analyzer to name them.
    ///
    /// # Panics
    ///
    /// Panics if the input ports differ from the scheme's encoding or
    /// the standard outputs are missing.
    pub fn from_instrumented(scheme: Scheme, netlist: Netlist) -> Self {
        let encoding = InputEncoding::for_scheme(scheme);
        assert_eq!(netlist.num_inputs(), encoding.num_inputs(), "input ports");
        assert!(
            netlist.num_outputs() >= encoding.num_outputs(),
            "standard output ports missing"
        );
        Self {
            scheme,
            netlist,
            encoding,
        }
    }

    /// The scheme this circuit implements.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The stimulus encoding for the paper's protocol.
    pub fn encoding(&self) -> &InputEncoding {
        &self.encoding
    }
}
