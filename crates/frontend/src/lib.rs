//! External netlist frontend: Yosys JSON and structural EDIF in, the
//! workspace's validated [`sbox_netlist::Netlist`] IR out — plus the
//! matching exporters, so every hand-built scheme can round-trip through
//! a real synthesis flow's exchange formats and come back bit-identical.
//!
//! The import path is three layers:
//!
//! 1. a format parser ([`yosys`], [`edif`]) lowers the source text into
//!    a shared module IR (ports, cells, abstract net ids),
//! 2. the cell-mapping layer ([`cells`]) resolves each foreign cell type
//!    — workspace mnemonics, Yosys internal gates, NANGATE-style liberty
//!    names — onto the gate library, expanding AOI/OAI/MUX/constant
//!    cells into library gates,
//! 3. the linker (`link`) emits a validated netlist in source order,
//!    turning every malformed or unsupported construct into a typed
//!    [`FrontendError`] rather than a panic.
//!
//! An [`EncodingSidecar`] companion file declares which masking scheme
//! the imported ports implement, which is what lets `sca-verify` and the
//! attack engine run on imported designs. The conformance suite at
//! `tests/frontend_conformance.rs` pins that a re-imported export of
//! each scheme produces bit-identical captures and identical verifier
//! verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod diag;
pub mod edif;
pub mod fixtures;
pub mod json;
mod link;
pub mod sidecar;
pub mod yosys;

pub use diag::{FrontendError, SourceFormat};
pub use edif::to_edif;
pub use sidecar::{sidecar_json, sidecar_toml, EncodingSidecar};
pub use yosys::to_yosys_json;

use leakage_core::checksum::Digest;
use sbox_netlist::Netlist;

/// A successfully imported design: the validated netlist plus any
/// non-fatal warnings the frontend accumulated (e.g. don't-care bits
/// lowered to constant 0).
#[derive(Debug, Clone)]
pub struct ImportedDesign {
    /// The validated netlist.
    pub netlist: Netlist,
    /// Which format the source text was parsed as.
    pub format: SourceFormat,
    /// Non-fatal import warnings, in source order.
    pub warnings: Vec<String>,
}

/// Import a netlist from source text in the given format.
pub fn import_str(text: &str, format: SourceFormat) -> Result<ImportedDesign, FrontendError> {
    let module = match format {
        SourceFormat::YosysJson => yosys::parse_yosys(text)?,
        SourceFormat::Edif => edif::parse_edif(text)?,
    };
    let (netlist, warnings) = link::link(module)?;
    Ok(ImportedDesign {
        netlist,
        format,
        warnings,
    })
}

/// Import a netlist, sniffing the format from the first non-whitespace
/// character: `{` is Yosys JSON, `(` is EDIF.
pub fn import_auto(text: &str) -> Result<ImportedDesign, FrontendError> {
    match text.trim_start().chars().next() {
        Some('{') => import_str(text, SourceFormat::YosysJson),
        _ => import_str(text, SourceFormat::Edif),
    }
}

/// A stable content hash of a netlist's structure: name, port names,
/// and every gate's cell type and wiring. Used to key campaign cache
/// entries for imported designs, so re-importing the same file hits the
/// trace cache and importing a modified file misses it.
pub fn netlist_digest(netlist: &Netlist) -> u64 {
    let mut d = Digest::new();
    d.str(netlist.name());
    d.u64(netlist.inputs().len() as u64);
    for (i, &net) in netlist.inputs().iter().enumerate() {
        d.u64(net.index() as u64);
        d.str(netlist.net(net).name().unwrap_or(""));
        d.u64(i as u64);
    }
    d.u64(netlist.gates().len() as u64);
    for gate in netlist.gates() {
        d.str(gate.cell().mnemonic());
        for &input in gate.inputs() {
            d.u64(input.index() as u64);
        }
        d.u64(gate.output().index() as u64);
    }
    d.u64(netlist.outputs().len() as u64);
    for (name, net) in netlist.outputs() {
        d.str(name);
        d.u64(net.index() as u64);
    }
    d.finish()
}

/// Compare two netlists structurally under canonical net numbering
/// (inputs by position, then gate outputs by gate index). Returns
/// `None` when identical, or a description of the first difference.
///
/// This is numbering-invariant on nets but order-sensitive on gates and
/// ports — exactly the identity the exporters preserve.
pub fn structural_diff(a: &Netlist, b: &Netlist) -> Option<String> {
    if a.name() != b.name() {
        return Some(format!("module name: `{}` vs `{}`", a.name(), b.name()));
    }
    if a.inputs().len() != b.inputs().len() {
        return Some(format!(
            "input count: {} vs {}",
            a.inputs().len(),
            b.inputs().len()
        ));
    }
    let canon = |nl: &Netlist| {
        let mut map = vec![usize::MAX; nl.nets().len()];
        for (i, &net) in nl.inputs().iter().enumerate() {
            map[net.index()] = i;
        }
        for (g, gate) in nl.gates().iter().enumerate() {
            map[gate.output().index()] = nl.inputs().len() + g;
        }
        map
    };
    let (ca, cb) = (canon(a), canon(b));
    for (i, (&na, &nb)) in a.inputs().iter().zip(b.inputs()).enumerate() {
        let (name_a, name_b) = (a.net(na).name(), b.net(nb).name());
        if name_a != name_b {
            return Some(format!("input {i} name: {name_a:?} vs {name_b:?}"));
        }
    }
    if a.gates().len() != b.gates().len() {
        return Some(format!(
            "gate count: {} vs {}",
            a.gates().len(),
            b.gates().len()
        ));
    }
    for (g, (ga, gb)) in a.gates().iter().zip(b.gates()).enumerate() {
        if ga.cell() != gb.cell() {
            return Some(format!(
                "gate {g} cell: {} vs {}",
                ga.cell().mnemonic(),
                gb.cell().mnemonic()
            ));
        }
        let ins_a: Vec<usize> = ga.inputs().iter().map(|n| ca[n.index()]).collect();
        let ins_b: Vec<usize> = gb.inputs().iter().map(|n| cb[n.index()]).collect();
        if ins_a != ins_b {
            return Some(format!("gate {g} fan-in: {ins_a:?} vs {ins_b:?}"));
        }
    }
    if a.outputs().len() != b.outputs().len() {
        return Some(format!(
            "output count: {} vs {}",
            a.outputs().len(),
            b.outputs().len()
        ));
    }
    for (i, ((name_a, net_a), (name_b, net_b))) in a.outputs().iter().zip(b.outputs()).enumerate() {
        if name_a != name_b {
            return Some(format!("output {i} name: `{name_a}` vs `{name_b}`"));
        }
        if ca[net_a.index()] != cb[net_b.index()] {
            return Some(format!(
                "output {i} net: {} vs {}",
                ca[net_a.index()],
                cb[net_b.index()]
            ));
        }
    }
    // Delay model: identical structure must yield the identical critical
    // path, bit for bit.
    if a.critical_path_ps().to_bits() != b.critical_path_ps().to_bits() {
        return Some(format!(
            "critical path: {} ps vs {} ps",
            a.critical_path_ps(),
            b.critical_path_ps()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::{SboxCircuit, Scheme};

    #[test]
    fn every_scheme_round_trips_through_both_formats() {
        for scheme in Scheme::ALL {
            let native = SboxCircuit::build(scheme);
            let json = to_yosys_json(native.netlist());
            let imported = import_str(&json, SourceFormat::YosysJson)
                .unwrap_or_else(|e| panic!("{}: yosys import failed: {e}", scheme.label()));
            assert_eq!(
                structural_diff(native.netlist(), &imported.netlist),
                None,
                "{} via yosys-json",
                scheme.label()
            );
            let edif = to_edif(native.netlist());
            let imported = import_str(&edif, SourceFormat::Edif)
                .unwrap_or_else(|e| panic!("{}: edif import failed: {e}", scheme.label()));
            assert_eq!(
                structural_diff(native.netlist(), &imported.netlist),
                None,
                "{} via edif",
                scheme.label()
            );
        }
    }

    #[test]
    fn auto_detection_sniffs_both_formats() {
        let native = SboxCircuit::build(Scheme::Lut);
        let json = to_yosys_json(native.netlist());
        assert_eq!(import_auto(&json).unwrap().format, SourceFormat::YosysJson);
        let edif = to_edif(native.netlist());
        assert_eq!(import_auto(&edif).unwrap().format, SourceFormat::Edif);
    }

    #[test]
    fn digest_is_stable_and_structure_sensitive() {
        let a = SboxCircuit::build(Scheme::Lut);
        let b = SboxCircuit::build(Scheme::Lut);
        assert_eq!(netlist_digest(a.netlist()), netlist_digest(b.netlist()));
        let c = SboxCircuit::build(Scheme::Glut);
        assert_ne!(netlist_digest(a.netlist()), netlist_digest(c.netlist()));
    }

    #[test]
    fn truth_tables_survive_the_round_trip() {
        for scheme in [Scheme::Lut, Scheme::Rsm, Scheme::Isw] {
            let native = SboxCircuit::build(scheme);
            let json = to_yosys_json(native.netlist());
            let imported = import_str(&json, SourceFormat::YosysJson).unwrap();
            // Exhaustive for <= 16 inputs, sampled otherwise.
            let n = native.netlist().num_inputs();
            if n <= 16 {
                assert_eq!(
                    native.netlist().truth_table(),
                    imported.netlist.truth_table(),
                    "{}",
                    scheme.label()
                );
            }
        }
    }
}
