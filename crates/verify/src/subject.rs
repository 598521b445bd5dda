//! Analysis subjects: any netlist plus its masking-security contract.
//!
//! The original analyzer was welded to [`SboxCircuit`] — one of the seven
//! hand-built schemes, each with a bespoke stimulus encoder. A [`Subject`]
//! generalizes the contract to *any* combinational netlist: per-input
//! [`InputRole`] labels (which wires carry which share of which secret
//! bit, which carry fresh randomness), output share groups, and optional
//! per-gate synchronization barriers. That one abstraction is what lets
//! the same rule catalogue run over native schemes, frontend-imported
//! foreign netlists, and the patched candidates the `sca-repair` searcher
//! produces.
//!
//! The roles go through [`RoleCodec`], the same codec behind every
//! native [`sbox_circuits::InputEncoding`]: it validates their shape and
//! owns the mask-bit layout and the masked encoder, so the packed sweep,
//! the repair search and the trace protocol share one stimulus model.

use sbox_circuits::{InputRole, RoleCodec, SboxCircuit};
use sbox_netlist::Netlist;

/// Largest secret-bit count the exhaustive class enumeration accepts
/// (`2^8 = 256` classes).
pub const MAX_SECRET_BITS_EXHAUSTIVE: usize = 8;

/// Largest mask-space width the exhaustive sweep enumerates (`2^16`
/// mask words per class).
pub const MAX_MASK_BITS: usize = 16;

/// How deep the analyzer can afford to look at a subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Full (class × mask) enumeration: every distribution rule runs.
    Exhaustive,
    /// Structural passes only (taint, fan-out, boundary composition);
    /// the enumeration space is too large.
    Structural,
}

impl Depth {
    /// Stable lowercase label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            Depth::Exhaustive => "exhaustive",
            Depth::Structural => "structural",
        }
    }
}

/// A netlist under analysis, with its masking contract attached.
#[derive(Debug, Clone)]
pub struct Subject {
    label: String,
    netlist: Netlist,
    codec: RoleCodec,
    output_groups: Vec<Vec<usize>>,
    barriers: Vec<bool>,
}

impl Subject {
    /// Wrap a native scheme circuit (contract taken from its
    /// [`sbox_circuits::InputEncoding`]).
    pub fn of_circuit(circuit: &SboxCircuit) -> Self {
        let encoding = circuit.encoding();
        Self {
            label: circuit.scheme().label().to_string(),
            netlist: circuit.netlist().clone(),
            codec: encoding.codec().clone(),
            output_groups: encoding.output_share_groups(),
            barriers: vec![false; circuit.netlist().gates().len()],
        }
    }

    /// Wrap an unprotected netlist: every input is its own (only) share,
    /// every output is its own group. The contract for imported designs
    /// that declare no masking.
    ///
    /// # Errors
    ///
    /// Returns a description when the netlist has more than 64 inputs
    /// (the taint bitsets track at most 64 secret bits).
    pub fn unprotected(label: impl Into<String>, netlist: Netlist) -> Result<Self, String> {
        let roles: Vec<InputRole> = (0..netlist.num_inputs())
            .map(|i| {
                Ok(InputRole::Share {
                    bit: u8::try_from(i).map_err(|_| "more than 256 inputs".to_string())?,
                    share: 0,
                })
            })
            .collect::<Result<_, String>>()?;
        let groups = (0..netlist.num_outputs()).map(|p| vec![p]).collect();
        Self::with_roles(label, netlist, roles, groups)
    }

    /// Wrap a netlist with an explicit contract: one role per primary
    /// input and the output share groups.
    ///
    /// # Errors
    ///
    /// Returns a description when the contract is malformed: role count
    /// mismatch, roles [`RoleCodec::new`] rejects, more shares per bit
    /// than the taint sets track, or an output group referencing a
    /// missing port.
    pub fn with_roles(
        label: impl Into<String>,
        netlist: Netlist,
        roles: Vec<InputRole>,
        output_groups: Vec<Vec<usize>>,
    ) -> Result<Self, String> {
        if roles.len() != netlist.num_inputs() {
            return Err(format!(
                "{} roles for {} primary inputs",
                roles.len(),
                netlist.num_inputs()
            ));
        }
        let codec = RoleCodec::new(roles)?;
        if usize::from(codec.shares_per_bit()) > crate::taint::MAX_SHARES {
            return Err(format!(
                "{} shares per bit exceed the taint limit of {}",
                codec.shares_per_bit(),
                crate::taint::MAX_SHARES
            ));
        }
        for (g, ports) in output_groups.iter().enumerate() {
            for &p in ports {
                if p >= netlist.num_outputs() {
                    return Err(format!(
                        "output group {g} references missing output port {p}"
                    ));
                }
            }
        }
        let barriers = vec![false; netlist.gates().len()];
        Ok(Self {
            label: label.into(),
            netlist,
            codec,
            output_groups,
            barriers,
        })
    }

    /// Mark a gate as a synchronization barrier (register / precharged
    /// toggling cell). Barriers do not glitch themselves and hold their
    /// pre-state during the consuming gate's race window; see
    /// `DESIGN.md` §12 for the exact model and its limits.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range — a caller bug, not user input.
    pub fn mark_barrier(&mut self, gate: usize) {
        self.barriers[gate] = true;
    }

    /// Display label of the subject.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Per-input masking roles, in port order.
    pub fn roles(&self) -> &[InputRole] {
        self.codec.roles()
    }

    /// The stimulus codec of the roles (mask layout, encoder, unmasker).
    pub fn codec(&self) -> &RoleCodec {
        &self.codec
    }

    /// Number of secret bits the inputs jointly encode.
    pub fn secret_bits(&self) -> usize {
        self.codec.secret_bits()
    }

    /// Shares per secret bit (1 for unprotected subjects).
    pub fn shares_per_bit(&self) -> u8 {
        self.codec.shares_per_bit()
    }

    /// Output-port groups that jointly encode one secret output bit.
    pub fn output_groups(&self) -> &[Vec<usize>] {
        &self.output_groups
    }

    /// Per-gate barrier flags.
    pub fn barriers(&self) -> &[bool] {
        &self.barriers
    }

    /// Whether `gate` is a synchronization barrier.
    pub fn is_barrier(&self, gate: usize) -> bool {
        self.barriers.get(gate).copied().unwrap_or(false)
    }

    /// Whether a net is driven by a barrier gate.
    pub fn net_is_barriered(&self, net: usize) -> bool {
        self.netlist.nets()[net]
            .driver()
            .is_some_and(|g| self.is_barrier(g.index()))
    }

    /// Total mask-space width in bits.
    pub fn mask_bits(&self) -> usize {
        self.codec.mask_bits()
    }

    /// Number of unmasked input classes (`2^secret_bits`); only
    /// meaningful at [`Depth::Exhaustive`].
    pub fn num_classes(&self) -> usize {
        1usize << self.secret_bits()
    }

    /// How deep the analyzer can enumerate this subject.
    pub fn depth(&self) -> Depth {
        if self.secret_bits() <= MAX_SECRET_BITS_EXHAUSTIVE
            && self.mask_bits() <= MAX_MASK_BITS
            && self.netlist.num_inputs() <= 64
        {
            Depth::Exhaustive
        } else {
            Depth::Structural
        }
    }

    /// Encode class `t` under an explicit mask word onto the primary
    /// inputs ([`RoleCodec::encode`]).
    pub fn encode(&self, t: u64, mask: u64) -> Vec<bool> {
        self.codec.encode(t, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::Scheme;

    #[test]
    fn depth_gates_on_enumeration_budgets() {
        let ti = Subject::of_circuit(&SboxCircuit::build(Scheme::Ti));
        assert_eq!(ti.depth(), Depth::Exhaustive);
        assert_eq!(ti.secret_bits(), 4);
        assert_eq!(ti.shares_per_bit(), 4);
        assert_eq!(ti.mask_bits(), 12);
    }

    #[test]
    fn contract_validation_rejects_malformed_roles() {
        use sbox_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("toy");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor(a, c);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        // Missing closing share: both inputs claim share 1.
        let bad = vec![
            InputRole::Share { bit: 0, share: 1 },
            InputRole::Share { bit: 0, share: 1 },
        ];
        assert!(Subject::with_roles("toy", nl.clone(), bad, vec![vec![0]]).is_err());
        // Group referencing a missing port.
        let ok = vec![
            InputRole::Share { bit: 0, share: 0 },
            InputRole::Share { bit: 0, share: 1 },
        ];
        assert!(Subject::with_roles("toy", nl.clone(), ok.clone(), vec![vec![3]]).is_err());
        let s = Subject::with_roles("toy", nl, ok, vec![vec![0]]).expect("well-formed");
        assert_eq!(s.secret_bits(), 1);
        assert_eq!(s.mask_bits(), 1);
        // encode: share 0 closes the XOR.
        for t in 0..2u64 {
            for m in 0..2u64 {
                let v = s.encode(t, m);
                assert_eq!(v[0] ^ v[1], t == 1);
                assert_eq!(v[1], m == 1);
            }
        }
    }

    #[test]
    fn unprotected_contract_is_one_share_per_input() {
        let lut = SboxCircuit::build(Scheme::Lut);
        let s = Subject::unprotected("LUT-raw", lut.netlist().clone()).expect("fits");
        assert_eq!(s.secret_bits(), 4);
        assert_eq!(s.shares_per_bit(), 1);
        assert_eq!(s.mask_bits(), 0);
        assert_eq!(s.output_groups().len(), 4);
    }
}
