//! Structural Verilog export.
//!
//! Lets the generated netlists be inspected, simulated or re-synthesized
//! with external EDA tools.
//!
//! # Example
//!
//! ```
//! use sbox_netlist::{NetlistBuilder, verilog};
//!
//! # fn main() -> Result<(), sbox_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("inv1");
//! let a = b.input("a");
//! let y = b.not(a);
//! b.output("y", y);
//! let v = verilog::to_verilog(&b.finish()?);
//! assert!(v.contains("module inv1"));
//! assert!(v.contains("INV"));
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::{CellType, NetId, Netlist};

/// Render the netlist as a structural Verilog module using the cell
/// mnemonics as primitive module names (`INV`, `AND3`, `XOR2`, …).
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let ident = sanitize(netlist.name());
    let ports: Vec<String> = netlist
        .inputs()
        .iter()
        .map(|&n| net_name(netlist, n))
        .chain(netlist.outputs().iter().map(|(n, _)| sanitize(n)))
        .collect();
    let _ = writeln!(out, "module {ident} ({});", ports.join(", "));
    for &n in netlist.inputs() {
        let _ = writeln!(out, "  input {};", net_name(netlist, n));
    }
    for (name, _) in netlist.outputs() {
        let _ = writeln!(out, "  output {};", sanitize(name));
    }
    for (i, net) in netlist.nets().iter().enumerate() {
        if !net.is_input() && net.name().is_none() {
            let _ = writeln!(out, "  wire n{i};");
        }
    }
    for (gi, gate) in netlist.gates().iter().enumerate() {
        let pins: Vec<String> = std::iter::once(net_name(netlist, gate.output()))
            .chain(gate.inputs().iter().map(|&n| net_name(netlist, n)))
            .collect();
        let _ = writeln!(
            out,
            "  {} g{gi} ({});",
            gate.cell().mnemonic(),
            pins.join(", ")
        );
    }
    // Outputs that alias an internal or input net need explicit assigns.
    for (name, net) in netlist.outputs() {
        let inner = net_name(netlist, *net);
        let outer = sanitize(name);
        if inner != outer {
            let _ = writeln!(out, "  assign {outer} = {inner};");
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Render primitive-cell definitions (behavioural) for the whole library so
/// the exported module is self-contained.
pub fn library_prelude() -> String {
    let mut out = String::new();
    for cell in crate::ALL_CELL_TYPES {
        let n = cell.arity();
        let ins: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
        let _ = writeln!(out, "module {} (o, {});", cell.mnemonic(), ins.join(", "));
        let _ = writeln!(out, "  output o;");
        for i in &ins {
            let _ = writeln!(out, "  input {i};");
        }
        let expr = match cell {
            CellType::Inv => "~i0".to_string(),
            CellType::Buf => "i0".to_string(),
            CellType::Xor2 => "i0 ^ i1".to_string(),
            CellType::Xnor2 => "~(i0 ^ i1)".to_string(),
            c if c.family() == "AND" => ins.join(" & "),
            c if c.family() == "OR" => ins.join(" | "),
            c if c.family() == "NAND" => format!("~({})", ins.join(" & ")),
            c if c.family() == "NOR" => format!("~({})", ins.join(" | ")),
            _ => unreachable!(),
        };
        let _ = writeln!(out, "  assign o = {expr};");
        let _ = writeln!(out, "endmodule\n");
    }
    out
}

/// Parse a structural Verilog module in the subset emitted by
/// [`to_verilog`] (one module; `input`/`output`/`wire` declarations; cell
/// instances named by library mnemonics with output-first positional
/// ports; `assign` aliases) back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on any syntax or semantic problem, and
/// [`NetlistError`](crate::NetlistError) (wrapped) if the reconstructed netlist is invalid.
///
/// # Example
///
/// ```
/// use sbox_netlist::{NetlistBuilder, verilog};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("rt");
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let original = b.finish()?;
/// let parsed = verilog::from_verilog(&verilog::to_verilog(&original))?;
/// assert_eq!(parsed.truth_table(), original.truth_table());
/// # Ok(())
/// # }
/// ```
pub fn from_verilog(source: &str) -> Result<Netlist, ParseVerilogError> {
    use std::collections::HashMap;

    let mut builder: Option<crate::NetlistBuilder> = None;
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut pending_gates: Vec<(CellType, String, Vec<String>)> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new();
    let cell_by_name: HashMap<&str, CellType> = crate::ALL_CELL_TYPES
        .iter()
        .map(|&c| (c.mnemonic(), c))
        .collect();

    for (lineno, raw) in source.lines().enumerate() {
        let line = raw.trim().trim_end_matches(';');
        let err = |msg: &str| ParseVerilogError {
            line: lineno + 1,
            message: msg.to_string(),
        };
        if line.is_empty() || line.starts_with("//") || line == "endmodule" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            let name = rest.split('(').next().ok_or_else(|| err("bad module"))?;
            builder = Some(crate::NetlistBuilder::new(name.trim()));
        } else if let Some(rest) = line.strip_prefix("input ") {
            let b = builder.as_mut().ok_or_else(|| err("input before module"))?;
            for port in rest.split(',') {
                let port = port.trim().to_string();
                let id = b.input(port.clone());
                nets.insert(port, id);
            }
        } else if let Some(rest) = line.strip_prefix("output ") {
            outputs.extend(rest.split(',').map(|p| p.trim().to_string()));
        } else if line.starts_with("wire ") {
            // Wires are implied by use; nothing to do.
        } else if let Some(rest) = line.strip_prefix("assign ") {
            let (lhs, rhs) = rest.split_once('=').ok_or_else(|| err("bad assign"))?;
            aliases.push((lhs.trim().to_string(), rhs.trim().to_string()));
        } else {
            // A cell instance: `CELL name (out, in0, in1, ...)`.
            let mut parts = line.splitn(2, ' ');
            let cell_name = parts.next().ok_or_else(|| err("empty line"))?;
            let cell = *cell_by_name
                .get(cell_name)
                .ok_or_else(|| err(&format!("unknown cell `{cell_name}`")))?;
            let rest = parts.next().ok_or_else(|| err("missing ports"))?;
            let ports_str = rest
                .split_once('(')
                .and_then(|(_, p)| p.split_once(')'))
                .map(|(p, _)| p)
                .ok_or_else(|| err("missing port list"))?;
            let ports: Vec<String> = ports_str.split(',').map(|p| p.trim().to_string()).collect();
            if ports.len() != cell.arity() + 1 {
                return Err(err(&format!(
                    "{cell_name} expects {} ports, found {}",
                    cell.arity() + 1,
                    ports.len()
                )));
            }
            pending_gates.push((cell, ports[0].clone(), ports[1..].to_vec()));
        }
    }
    let mut b = builder.ok_or(ParseVerilogError {
        line: 0,
        message: "no module found".to_string(),
    })?;

    // Emit gates in dependency order (repeat passes until settled).
    let mut remaining = pending_gates;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|(cell, out, ins)| {
            let resolved: Option<Vec<NetId>> = ins.iter().map(|n| nets.get(n).copied()).collect();
            match resolved {
                Some(inputs) => {
                    let id = b.gate(*cell, &inputs);
                    nets.insert(out.clone(), id);
                    false
                }
                None => true,
            }
        });
        if remaining.len() == before {
            return Err(ParseVerilogError {
                line: 0,
                message: format!(
                    "unresolvable nets (cycle or undeclared): {:?}",
                    remaining.iter().map(|(_, o, _)| o).collect::<Vec<_>>()
                ),
            });
        }
    }
    for (lhs, rhs) in aliases {
        if let Some(&id) = nets.get(&rhs) {
            nets.insert(lhs, id);
        }
    }
    for name in outputs {
        let id = *nets.get(&name).ok_or(ParseVerilogError {
            line: 0,
            message: format!("undriven output `{name}`"),
        })?;
        b.output(name, id);
    }
    b.finish().map_err(|e| ParseVerilogError {
        line: 0,
        message: format!("invalid netlist: {e}"),
    })
}

/// Error from [`from_verilog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based source line (0 when not line-specific).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ParseVerilogError {}

fn net_name(netlist: &Netlist, n: NetId) -> String {
    match netlist.net(n).name() {
        Some(name) => sanitize(name),
        None => format!("n{}", n.index()),
    }
}

fn sanitize(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn export_contains_all_gates_and_ports() {
        let mut b = NetlistBuilder::new("fa-1");
        let a = b.input("a");
        let c = b.input("b");
        let s = b.xor(a, c);
        let g = b.and(&[a, c]);
        b.output("sum", s);
        b.output("carry", g);
        let v = to_verilog(&b.finish().expect("valid"));
        assert!(v.contains("module fa_1 (a, b, sum, carry);"));
        assert!(v.contains("XOR2 g0"));
        assert!(v.contains("AND2 g1"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn prelude_defines_every_cell() {
        let p = library_prelude();
        for cell in crate::ALL_CELL_TYPES {
            assert!(p.contains(&format!("module {} ", cell.mnemonic())));
        }
    }

    #[test]
    fn round_trip_preserves_function_and_structure() {
        let mut b = NetlistBuilder::new("rt");
        let x = b.input_bus("x", 3);
        let s1 = b.xor(x[0], x[1]);
        let s2 = b.and(&[s1, x[2]]);
        let s3 = b.gate(crate::CellType::Nor3, &[x[0], x[1], x[2]]);
        let out = b.or(&[s2, s3]);
        b.output("f", out);
        b.output("g", s1);
        let original = b.finish().expect("valid");
        let parsed = from_verilog(&to_verilog(&original)).expect("parse");
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert_eq!(parsed.gates().len(), original.gates().len());
        assert_eq!(parsed.truth_table(), original.truth_table());
    }

    #[test]
    fn parse_rejects_unknown_cells() {
        let src = "module m (a, y);\n  input a;\n  output y;\n  FOO g0 (y, a);\nendmodule\n";
        let err = from_verilog(src).expect_err("should fail");
        assert!(err.message.contains("unknown cell"));
    }

    #[test]
    fn parse_rejects_undriven_outputs() {
        let src = "module m (a, y);\n  input a;\n  output y;\nendmodule\n";
        let err = from_verilog(src).expect_err("should fail");
        assert!(err.message.contains("undriven output"));
    }

    #[test]
    fn out_of_order_instances_still_parse() {
        // g1 uses n1 which g0 defines later in the file.
        let src = "module m (a, y);\n  input a;\n  output y;\n  wire n1;\n  \
                   INV g1 (y, n1);\n  INV g0 (n1, a);\nendmodule\n";
        let nl = from_verilog(src).expect("parse");
        assert_eq!(nl.truth_table(), vec![0, 1]);
    }
}
