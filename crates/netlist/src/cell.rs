//! The standard-cell library.
//!
//! Electrical numbers are inspired by the open NANGATE 45 nm library at
//! Vdd = 1.2 V: absolute values are representative, *relative* values between
//! cells (an XOR2 is slower and hungrier than a NAND2, a 4-input AND is
//! slower than a 2-input one, …) follow the library's ordering, which is what
//! the leakage comparison depends on.

use std::fmt;

/// A combinational standard cell.
///
/// The numbering suffix is the number of inputs. All cells are
/// single-output.
///
/// # Example
///
/// ```
/// use sbox_netlist::CellType;
///
/// assert_eq!(CellType::And3.arity(), 3);
/// assert!(CellType::Xor2.delay_ps() > CellType::Nand2.delay_ps());
/// assert!(CellType::Inv.evaluate(&[false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CellType {
    Inv,
    Buf,
    And2,
    And3,
    And4,
    Or2,
    Or3,
    Or4,
    Nand2,
    Nand3,
    Nand4,
    Nor2,
    Nor3,
    Nor4,
    Xor2,
    Xnor2,
}

/// Every cell in the library, in a stable order (used for reports).
pub const ALL_CELL_TYPES: [CellType; 16] = [
    CellType::Inv,
    CellType::Buf,
    CellType::And2,
    CellType::And3,
    CellType::And4,
    CellType::Or2,
    CellType::Or3,
    CellType::Or4,
    CellType::Nand2,
    CellType::Nand3,
    CellType::Nand4,
    CellType::Nor2,
    CellType::Nor3,
    CellType::Nor4,
    CellType::Xor2,
    CellType::Xnor2,
];

impl CellType {
    /// Number of inputs the cell takes.
    pub const fn arity(self) -> usize {
        use CellType::*;
        match self {
            Inv | Buf => 1,
            And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 => 2,
            And3 | Or3 | Nand3 | Nor3 => 3,
            And4 | Or4 | Nand4 | Nor4 => 4,
        }
    }

    /// Nominal propagation delay in picoseconds (typical corner).
    pub const fn delay_ps(self) -> f64 {
        use CellType::*;
        match self {
            Inv => 6.0,
            Buf => 11.0,
            Nand2 => 8.0,
            Nor2 => 10.0,
            And2 => 13.0,
            Or2 => 13.0,
            Nand3 => 10.0,
            Nor3 => 13.0,
            And3 => 15.0,
            Or3 => 15.0,
            Nand4 => 12.0,
            Nor4 => 15.0,
            And4 => 17.0,
            Or4 => 17.0,
            Xor2 => 19.0,
            Xnor2 => 19.0,
        }
    }

    /// Area normalized to a NAND2 ("equivalent gates", the unit of the
    /// paper's Table I row *Total Equ. Gates*).
    pub const fn equivalent_gates(self) -> f64 {
        use CellType::*;
        match self {
            Inv => 0.67,
            Buf => 1.0,
            Nand2 | Nor2 => 1.0,
            And2 | Or2 => 1.33,
            Nand3 | Nor3 => 1.33,
            And3 | Or3 => 1.67,
            Nand4 | Nor4 => 1.67,
            And4 | Or4 => 2.0,
            Xor2 | Xnor2 => 2.33,
        }
    }

    /// Intrinsic energy in femtojoules dissipated by one output transition
    /// (self-load only; wire/fanout load is added by the simulator).
    pub const fn switch_energy_fj(self) -> f64 {
        use CellType::*;
        match self {
            Inv => 0.9,
            Buf => 1.6,
            Nand2 | Nor2 => 1.3,
            And2 | Or2 => 1.8,
            Nand3 | Nor3 => 1.7,
            And3 | Or3 => 2.2,
            Nand4 | Nor4 => 2.1,
            And4 | Or4 => 2.6,
            Xor2 | Xnor2 => 2.9,
        }
    }

    /// Input pin capacitance in femtofarads. The energy drawn when a driver
    /// toggles a net is `switch_energy_fj + Σ input_cap_ff(load) * Vdd²`.
    pub const fn input_cap_ff(self) -> f64 {
        use CellType::*;
        match self {
            Inv | Buf => 1.0,
            Nand2 | Nor2 => 1.1,
            And2 | Or2 => 1.1,
            Nand3 | Nor3 => 1.2,
            And3 | Or3 => 1.2,
            Nand4 | Nor4 => 1.3,
            And4 | Or4 => 1.3,
            Xor2 | Xnor2 => 1.6,
        }
    }

    /// Short mnemonic used in reports and netlist exports (e.g. `AND3`).
    pub const fn mnemonic(self) -> &'static str {
        use CellType::*;
        match self {
            Inv => "INV",
            Buf => "BUF",
            And2 => "AND2",
            And3 => "AND3",
            And4 => "AND4",
            Or2 => "OR2",
            Or3 => "OR3",
            Or4 => "OR4",
            Nand2 => "NAND2",
            Nand3 => "NAND3",
            Nand4 => "NAND4",
            Nor2 => "NOR2",
            Nor3 => "NOR3",
            Nor4 => "NOR4",
            Xor2 => "XOR2",
            Xnor2 => "XNOR2",
        }
    }

    /// The broad family the cell belongs to, matching the row labels of the
    /// paper's Table I (`# AND`, `# OR`, `# XOR`, `# INV`, `# BUF`,
    /// `# NAND`, `# NOR`, `# XNOR`).
    pub const fn family(self) -> &'static str {
        use CellType::*;
        match self {
            Inv => "INV",
            Buf => "BUF",
            And2 | And3 | And4 => "AND",
            Or2 | Or3 | Or4 => "OR",
            Nand2 | Nand3 | Nand4 => "NAND",
            Nor2 | Nor3 | Nor4 => "NOR",
            Xor2 => "XOR",
            Xnor2 => "XNOR",
        }
    }

    /// Compute the cell's boolean function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn evaluate(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "{} expects {} inputs, got {}",
            self.mnemonic(),
            self.arity(),
            inputs.len()
        );
        use CellType::*;
        match self {
            Inv => !inputs[0],
            Buf => inputs[0],
            And2 | And3 | And4 => inputs.iter().all(|&x| x),
            Or2 | Or3 | Or4 => inputs.iter().any(|&x| x),
            Nand2 | Nand3 | Nand4 => !inputs.iter().all(|&x| x),
            Nor2 | Nor3 | Nor4 => !inputs.iter().any(|&x| x),
            Xor2 => inputs[0] ^ inputs[1],
            Xnor2 => !(inputs[0] ^ inputs[1]),
        }
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_mnemonic_suffix() {
        for cell in ALL_CELL_TYPES {
            let m = cell.mnemonic();
            let expected = m
                .chars()
                .last()
                .and_then(|c| c.to_digit(10))
                .map_or(1, |d| d as usize);
            assert_eq!(cell.arity(), expected, "{m}");
        }
    }

    #[test]
    fn evaluate_all_cells_exhaustively() {
        for cell in ALL_CELL_TYPES {
            let n = cell.arity();
            for v in 0u32..(1 << n) {
                let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
                let out = cell.evaluate(&bits);
                let all = bits.iter().all(|&x| x);
                let any = bits.iter().any(|&x| x);
                use CellType::*;
                let expect = match cell {
                    Inv => !bits[0],
                    Buf => bits[0],
                    And2 | And3 | And4 => all,
                    Or2 | Or3 | Or4 => any,
                    Nand2 | Nand3 | Nand4 => !all,
                    Nor2 | Nor3 | Nor4 => !any,
                    Xor2 => bits[0] != bits[1],
                    Xnor2 => bits[0] == bits[1],
                };
                assert_eq!(out, expect, "{cell} on {bits:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn evaluate_rejects_wrong_arity() {
        CellType::And2.evaluate(&[true]);
    }

    #[test]
    fn xor_is_slowest_two_input_cell() {
        assert!(CellType::Xor2.delay_ps() > CellType::And2.delay_ps());
        assert!(CellType::Xor2.delay_ps() > CellType::Nand2.delay_ps());
        assert!(CellType::Xor2.delay_ps() > CellType::Nor2.delay_ps());
    }

    #[test]
    fn nand2_is_the_area_unit() {
        assert_eq!(CellType::Nand2.equivalent_gates(), 1.0);
        for cell in ALL_CELL_TYPES {
            assert!(cell.equivalent_gates() > 0.0);
        }
    }

    #[test]
    fn wider_cells_are_slower_and_bigger() {
        use CellType::*;
        for (a, b) in [(And2, And3), (And3, And4), (Or2, Or3), (Or3, Or4)] {
            assert!(a.delay_ps() < b.delay_ps());
            assert!(a.equivalent_gates() < b.equivalent_gates());
            assert!(a.switch_energy_fj() < b.switch_energy_fj());
        }
    }

    #[test]
    fn family_labels_cover_table_one_rows() {
        let families: std::collections::BTreeSet<_> =
            ALL_CELL_TYPES.iter().map(|c| c.family()).collect();
        for f in ["AND", "OR", "XOR", "INV", "BUF", "NAND", "NOR", "XNOR"] {
            assert!(families.contains(f), "missing family {f}");
        }
    }
}
