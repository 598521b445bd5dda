//! The structural EDIF 2.0.0 frontend and the matching exporter.
//!
//! EDIF is net-centric — each `(net … (joined …))` lists every pin it
//! touches — so import first collects instances, then walks the nets and
//! turns the joined pin references back into per-cell connections for
//! the shared `link` IR. Only the structural subset is
//! supported: ports with scalar directions, leaf instances, and joined
//! nets. Arrays, bus members, and hierarchical views are typed
//! [`FrontendError::UnsupportedConstruct`] diagnostics, never panics.
//!
//! Export writes a single `DESIGNS` library with NANGATE-style `_X1`
//! cell references, instances `g<i>` in gate order and nets in net-index
//! order (driver pin first), so a round-trip reproduces the source
//! netlist's gate and net numbering exactly.

use std::collections::HashMap;
use std::fmt::Write as _;

use sbox_netlist::Netlist;

use crate::link::{CellDecl, Dir, ImportedModule, PortDecl, Signal};
use crate::{FrontendError, SourceFormat};

/// One parsed s-expression node.
#[derive(Debug, Clone, PartialEq)]
enum Sexpr {
    /// A bare token (`edif`, `INPUT`, `g0`, `2`).
    Atom(String),
    /// A quoted string (`"sca-frontend"`).
    Str(String),
    /// A parenthesized form.
    List(Vec<Sexpr>),
}

impl Sexpr {
    fn atom(&self) -> Option<&str> {
        match self {
            Sexpr::Atom(a) => Some(a),
            _ => None,
        }
    }

    fn list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(items) => Some(items),
            _ => None,
        }
    }

    /// Is this a list whose head atom equals `kw` (EDIF keywords are
    /// case-insensitive)?
    fn is_form(&self, kw: &str) -> bool {
        self.list()
            .and_then(|items| items.first())
            .and_then(Sexpr::atom)
            .is_some_and(|head| head.eq_ignore_ascii_case(kw))
    }
}

/// All children of `items` that are `(kw …)` forms, with the head
/// stripped.
fn forms<'a>(items: &'a [Sexpr], kw: &'a str) -> impl Iterator<Item = &'a [Sexpr]> + 'a {
    items
        .iter()
        .filter(move |s| s.is_form(kw))
        .filter_map(|s| s.list())
        .map(|items| &items[1..])
}

/// The first `(kw …)` child, with the head stripped.
fn form<'a>(items: &'a [Sexpr], kw: &'a str) -> Option<&'a [Sexpr]> {
    forms(items, kw).next()
}

fn syntax(line: usize, column: usize, message: impl Into<String>) -> FrontendError {
    FrontendError::Syntax {
        format: SourceFormat::Edif,
        line,
        column,
        message: message.into(),
    }
}

/// Tokenize and parse a full EDIF document into one s-expression.
fn parse_sexpr(text: &str) -> Result<Sexpr, FrontendError> {
    let mut stack: Vec<Vec<Sexpr>> = Vec::new();
    let mut root: Option<Sexpr> = None;
    let mut line = 1usize;
    let mut column = 1usize;
    let mut chars = text.chars().peekable();

    let push = |stack: &mut Vec<Vec<Sexpr>>,
                root: &mut Option<Sexpr>,
                node: Sexpr,
                line: usize,
                column: usize|
     -> Result<(), FrontendError> {
        match stack.last_mut() {
            Some(top) => {
                top.push(node);
                Ok(())
            }
            None if root.is_none() => {
                *root = Some(node);
                Ok(())
            }
            None => Err(syntax(line, column, "trailing content after document")),
        }
    };

    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
                column += 1;
            }
            '(' => {
                if root.is_some() && stack.is_empty() {
                    return Err(syntax(line, column, "trailing content after document"));
                }
                chars.next();
                column += 1;
                stack.push(Vec::new());
            }
            ')' => {
                chars.next();
                column += 1;
                let items = stack
                    .pop()
                    .ok_or_else(|| syntax(line, column, "unmatched `)`"))?;
                push(&mut stack, &mut root, Sexpr::List(items), line, column)?;
            }
            '"' => {
                chars.next();
                column += 1;
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => {
                            column += 1;
                            break;
                        }
                        Some('\n') => {
                            s.push('\n');
                            line += 1;
                            column = 1;
                        }
                        Some('\\') => {
                            column += 1;
                            match chars.next() {
                                Some(e) => {
                                    s.push(e);
                                    column += 1;
                                }
                                None => return Err(syntax(line, column, "unterminated string")),
                            }
                        }
                        Some(other) => {
                            s.push(other);
                            column += 1;
                        }
                        None => return Err(syntax(line, column, "unterminated string")),
                    }
                }
                push(&mut stack, &mut root, Sexpr::Str(s), line, column)?;
            }
            _ => {
                let mut a = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == '"' {
                        break;
                    }
                    a.push(c);
                    chars.next();
                    column += 1;
                }
                push(&mut stack, &mut root, Sexpr::Atom(a), line, column)?;
            }
        }
    }
    if !stack.is_empty() {
        return Err(syntax(line, column, "unterminated `(`: end of input"));
    }
    root.ok_or_else(|| syntax(line, column, "empty document"))
}

/// An EDIF name position: a bare identifier or `(rename id "original")`.
/// Returns `(id, display)` — references use the id, diagnostics and port
/// naming use the display form.
fn edif_name(node: Option<&Sexpr>, context: &str) -> Result<(String, String), FrontendError> {
    match node {
        Some(Sexpr::Atom(a)) => Ok((a.clone(), a.clone())),
        Some(s) if s.is_form("rename") => {
            let items = &s.list().expect("rename is a list")[1..];
            match items {
                [Sexpr::Atom(id), Sexpr::Str(orig)] => Ok((id.clone(), orig.clone())),
                [Sexpr::Atom(id)] => Ok((id.clone(), id.clone())),
                _ => Err(FrontendError::UnsupportedConstruct {
                    context: context.to_string(),
                    construct: "malformed rename form".to_string(),
                }),
            }
        }
        Some(s) if s.is_form("array") => Err(FrontendError::UnsupportedConstruct {
            context: context.to_string(),
            construct: "array name (buses are not supported; flatten to scalar ports)".to_string(),
        }),
        _ => Err(FrontendError::MissingField {
            context: context.to_string(),
            field: "name",
        }),
    }
}

/// Parse a structural EDIF document into the format-neutral import IR.
pub(crate) fn parse_edif(text: &str) -> Result<ImportedModule, FrontendError> {
    let root = parse_sexpr(text)?;
    let doc = match &root {
        s if s.is_form("edif") => &s.list().expect("edif is a list")[1..],
        _ => {
            return Err(FrontendError::MissingField {
                context: "document".to_string(),
                field: "edif",
            })
        }
    };

    // An explicit `(design … (cellRef NAME …))` picks the top cell.
    let design_ref: Option<String> = form(doc, "design")
        .and_then(|d| form(d, "cellRef"))
        .and_then(|c| c.first())
        .and_then(Sexpr::atom)
        .map(str::to_string);

    // Collect every `(cell …)` across all libraries.
    let mut cells_found: Vec<(String, String, &[Sexpr])> = Vec::new();
    for library in forms(doc, "library") {
        for cell in forms(library, "cell") {
            let (id, display) = edif_name(cell.first(), "cell")?;
            cells_found.push((id, display, cell));
        }
    }

    let chosen: &[Sexpr] = if let Some(target) = &design_ref {
        cells_found
            .iter()
            .find(|(id, display, _)| id == target || display == target)
            .map(|(_, _, c)| *c)
            .ok_or_else(|| FrontendError::NoTopModule {
                found: cells_found.iter().map(|(_, d, _)| d.clone()).collect(),
            })?
    } else {
        let with_contents: Vec<&(String, String, &[Sexpr])> = cells_found
            .iter()
            .filter(|(_, _, c)| forms(c, "view").any(|v| form(v, "contents").is_some()))
            .collect();
        match (with_contents.as_slice(), cells_found.as_slice()) {
            ([(_, _, c)], _) => c,
            ([], [(_, _, c)]) => c,
            _ => {
                return Err(FrontendError::NoTopModule {
                    found: cells_found.iter().map(|(_, d, _)| d.clone()).collect(),
                })
            }
        }
    };

    let (_, cell_display) = edif_name(chosen.first(), "cell")?;
    let context = format!("cell \"{cell_display}\"");
    let view = forms(chosen, "view")
        .find(|v| form(v, "interface").is_some())
        .ok_or_else(|| FrontendError::MissingField {
            context: context.clone(),
            field: "view",
        })?;
    let interface = form(view, "interface").ok_or_else(|| FrontendError::MissingField {
        context: context.clone(),
        field: "interface",
    })?;

    // Interface: scalar ports with directions.
    let mut ports: Vec<PortDecl> = Vec::new();
    let mut port_index: HashMap<String, usize> = HashMap::new();
    for port in forms(interface, "port") {
        let (id, display) = edif_name(port.first(), &format!("port of {context}"))?;
        let pctx = format!("port \"{display}\" of {context}");
        let dir = match form(port, "direction")
            .and_then(|d| d.first())
            .and_then(Sexpr::atom)
        {
            Some(d) if d.eq_ignore_ascii_case("INPUT") => Dir::Input,
            Some(d) if d.eq_ignore_ascii_case("OUTPUT") => Dir::Output,
            Some(d) if d.eq_ignore_ascii_case("INOUT") => {
                return Err(FrontendError::UnsupportedConstruct {
                    context: pctx,
                    construct: "inout port".to_string(),
                })
            }
            Some(d) => {
                return Err(FrontendError::UnsupportedConstruct {
                    context: pctx,
                    construct: format!("port direction `{d}`"),
                })
            }
            None => {
                return Err(FrontendError::MissingField {
                    context: pctx,
                    field: "direction",
                })
            }
        };
        port_index.insert(id, ports.len());
        ports.push(PortDecl {
            name: display,
            dir,
            bits: Vec::new(),
        });
    }

    // Contents: instances first, then nets stitch the connections.
    let contents = form(view, "contents").ok_or_else(|| FrontendError::MissingField {
        context: context.clone(),
        field: "contents",
    })?;

    let mut cells: Vec<CellDecl> = Vec::new();
    let mut cell_index: HashMap<String, usize> = HashMap::new();
    for inst in forms(contents, "instance") {
        let (id, display) = edif_name(inst.first(), &format!("instance of {context}"))?;
        let ty = forms(inst, "viewRef")
            .filter_map(|v| form(v, "cellRef"))
            .chain(forms(inst, "cellRef"))
            .filter_map(|c| c.first())
            .filter_map(Sexpr::atom)
            .next()
            .ok_or_else(|| FrontendError::MissingField {
                context: format!("instance \"{display}\" of {context}"),
                field: "cellRef",
            })?
            .to_string();
        cell_index.insert(id, cells.len());
        cells.push(CellDecl {
            name: display,
            ty,
            conns: Vec::new(),
        });
    }

    let mut net_names: HashMap<u64, String> = HashMap::new();
    let mut next_net: u64 = 0;
    for net in forms(contents, "net") {
        let (_, display) = edif_name(net.first(), &format!("net of {context}"))?;
        let nctx = format!("net \"{display}\" of {context}");
        let id = next_net;
        next_net += 1;
        net_names.insert(id, display.clone());
        let joined = form(net, "joined").ok_or_else(|| FrontendError::MissingField {
            context: nctx.clone(),
            field: "joined",
        })?;
        for port_ref in forms(joined, "portRef") {
            let pin = match port_ref.first() {
                Some(Sexpr::Atom(a)) => a.clone(),
                Some(s) if s.is_form("member") => {
                    return Err(FrontendError::UnsupportedConstruct {
                        context: nctx,
                        construct: "bus member pin reference".to_string(),
                    })
                }
                _ => {
                    return Err(FrontendError::MissingField {
                        context: nctx,
                        field: "portRef",
                    })
                }
            };
            match form(port_ref, "instanceRef")
                .and_then(|i| i.first())
                .and_then(Sexpr::atom)
            {
                Some(inst) => {
                    let &idx = cell_index.get(inst).ok_or_else(|| {
                        FrontendError::UnsupportedConstruct {
                            context: nctx.clone(),
                            construct: format!("reference to undeclared instance `{inst}`"),
                        }
                    })?;
                    cells[idx].conns.push((pin, vec![Signal::Net(id)]));
                }
                None => {
                    let &idx = port_index.get(&pin).ok_or_else(|| {
                        FrontendError::UnsupportedConstruct {
                            context: nctx.clone(),
                            construct: format!("reference to undeclared port `{pin}`"),
                        }
                    })?;
                    if !ports[idx].bits.is_empty() {
                        return Err(FrontendError::UnsupportedConstruct {
                            context: format!("port \"{}\" of {context}", ports[idx].name),
                            construct: "port joined to multiple nets".to_string(),
                        });
                    }
                    ports[idx].bits.push(Signal::Net(id));
                }
            }
        }
    }

    // A port joined to nothing still exists: give it a private net so
    // the linker can report unused inputs / undriven outputs precisely.
    for port in &mut ports {
        if port.bits.is_empty() {
            port.bits.push(Signal::Net(next_net));
            net_names.insert(next_net, port.name.clone());
            next_net += 1;
        }
    }

    Ok(ImportedModule {
        name: cell_display,
        ports,
        cells,
        net_names,
        warnings: Vec::new(),
    })
}

/// A valid bare EDIF identifier: letter first, then letters, digits,
/// underscores.
fn is_bare_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Render a name, falling back to `(rename <id> "<orig>")` when the
/// original is not a bare EDIF identifier.
fn render_name(orig: &str, fallback_id: &str) -> String {
    if is_bare_ident(orig) {
        orig.to_string()
    } else {
        let escaped = orig.replace('\\', "\\\\").replace('"', "\\\"");
        format!("(rename {fallback_id} \"{escaped}\")")
    }
}

/// Serialize a netlist as structural EDIF 2.0.0 (single `DESIGNS`
/// library, NANGATE-style `_X1` cell references, driver pin first in
/// every `joined` form).
pub fn to_edif(netlist: &Netlist) -> String {
    let mut out = String::new();
    let cell_name = render_name(netlist.name(), "top");
    let _ = writeln!(out, "(edif {cell_name}");
    out.push_str("  (edifVersion 2 0 0)\n  (edifLevel 0)\n");
    out.push_str("  (keywordMap (keywordLevel 0))\n");
    out.push_str("  (status (written (author \"sca-frontend\")))\n");
    out.push_str("  (library DESIGNS\n    (edifLevel 0)\n    (technology (numberDefinition))\n");
    let _ = writeln!(out, "    (cell {cell_name}");
    out.push_str("      (cellType GENERIC)\n      (view netlist\n        (viewType NETLIST)\n");

    // Interface: inputs in declaration order, then outputs.
    out.push_str("        (interface\n");
    let input_port_name = |i: usize| -> String {
        netlist
            .net(netlist.inputs()[i])
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("in{i}"))
    };
    for i in 0..netlist.inputs().len() {
        let name = input_port_name(i);
        let _ = writeln!(
            out,
            "          (port {} (direction INPUT))",
            render_name(&name, &format!("pi{i}"))
        );
    }
    for (i, (name, _)) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(
            out,
            "          (port {} (direction OUTPUT))",
            render_name(name, &format!("po{i}"))
        );
    }
    out.push_str("        )\n");

    // Contents: instances in gate order, then nets in net-index order.
    out.push_str("        (contents\n");
    for (i, gate) in netlist.gates().iter().enumerate() {
        let (ty, _, _) = crate::cells::export_name(gate.cell());
        let _ = writeln!(
            out,
            "          (instance g{i} (viewRef netlist (cellRef {ty} (libraryRef NANGATE))))"
        );
    }
    for (idx, net) in netlist.nets().iter().enumerate() {
        let mut refs: Vec<String> = Vec::new();
        // Driver first: a top-level input port or a gate output pin.
        if net.is_input() {
            let i = netlist
                .inputs()
                .iter()
                .position(|&n| n.index() == idx)
                .expect("input nets appear in inputs()");
            let name = input_port_name(i);
            refs.push(format!("(portRef {})", bare_ref(&name, &format!("pi{i}"))));
        }
        if let Some(driver) = net.driver() {
            let gate = netlist.gate(driver);
            let (_, _, out_pin) = crate::cells::export_name(gate.cell());
            refs.push(format!(
                "(portRef {out_pin} (instanceRef g{}))",
                driver.index()
            ));
        }
        // Loads: every reading pin, then every top-level output port.
        // `loads()` lists a gate once per reading pin, but the pin loop
        // below already emits every matching pin — dedupe the gates.
        let mut loads: Vec<_> = net.loads().to_vec();
        loads.dedup();
        loads.sort_unstable_by_key(|g| g.index());
        loads.dedup();
        for load in loads {
            let gate = netlist.gate(load);
            let (_, pins, _) = crate::cells::export_name(gate.cell());
            for (pos, &in_net) in gate.inputs().iter().enumerate() {
                if in_net.index() == idx {
                    refs.push(format!(
                        "(portRef {} (instanceRef g{}))",
                        pins[pos],
                        load.index()
                    ));
                }
            }
        }
        for (i, (name, out_net)) in netlist.outputs().iter().enumerate() {
            if out_net.index() == idx {
                refs.push(format!("(portRef {})", bare_ref(name, &format!("po{i}"))));
            }
        }
        if refs.is_empty() {
            continue;
        }
        let _ = writeln!(out, "          (net n{idx} (joined {}))", refs.join(" "));
    }
    out.push_str("        )\n      )\n    )\n  )\n)\n");
    out
}

/// A `portRef` target must be the port's *identifier*: the bare name,
/// or the rename id when the original needed renaming.
fn bare_ref(orig: &str, fallback_id: &str) -> String {
    if is_bare_ident(orig) {
        orig.to_string()
    } else {
        fallback_id.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_netlist::{CellType, NetlistBuilder};

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let n = b.gate(CellType::Nand2, &[a, c]);
        let y = b.gate(CellType::Inv, &[n]);
        b.output("y", y);
        b.finish().expect("valid")
    }

    #[test]
    fn export_parses_back_with_identical_shape() {
        let nl = tiny();
        let text = to_edif(&nl);
        let m = parse_edif(&text).expect("parses");
        assert_eq!(m.name, "tiny");
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.cells.len(), 2);
        assert_eq!(m.cells[0].ty, "NAND2_X1");
        // Driver-first joined order: the NAND's A1 connection exists.
        assert!(m.cells[0].conns.iter().any(|(p, _)| p == "A1"));
    }

    #[test]
    fn rename_forms_carry_original_names() {
        let text = r#"
          (edif t (edifVersion 2 0 0)
            (library L (cell t (cellType GENERIC) (view v (viewType NETLIST)
              (interface
                (port (rename a_0 "a[0]") (direction INPUT))
                (port y (direction OUTPUT)))
              (contents
                (instance u1 (viewRef v (cellRef INV_X1 (libraryRef NANGATE))))
                (net w1 (joined (portRef a_0) (portRef A (instanceRef u1))))
                (net w2 (joined (portRef ZN (instanceRef u1)) (portRef y))))))))
        "#;
        let m = parse_edif(text).expect("parses");
        assert_eq!(m.ports[0].name, "a[0]");
        assert_eq!(m.cells[0].ty, "INV_X1");
        assert_eq!(m.cells[0].conns.len(), 2);
    }

    #[test]
    fn unbalanced_parens_are_a_typed_syntax_error() {
        assert!(matches!(
            parse_edif("(edif t (library"),
            Err(FrontendError::Syntax { .. })
        ));
        assert!(matches!(
            parse_edif("(edif t))"),
            Err(FrontendError::Syntax { .. })
        ));
    }

    #[test]
    fn bus_ports_are_unsupported() {
        let text = r#"
          (edif t (library L (cell t (view v
            (interface (port (array a 4) (direction INPUT)))
            (contents)))))
        "#;
        assert!(matches!(
            parse_edif(text),
            Err(FrontendError::UnsupportedConstruct { .. })
        ));
    }

    #[test]
    fn design_ref_selects_among_cells() {
        let text = r#"
          (edif t
            (design root (cellRef good (libraryRef L)))
            (library L
              (cell other (view v (interface (port x (direction INPUT))) (contents)))
              (cell good (view v
                (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
                (contents
                  (instance u1 (viewRef v (cellRef BUF_X1 (libraryRef N))))
                  (net w1 (joined (portRef a) (portRef A (instanceRef u1))))
                  (net w2 (joined (portRef Z (instanceRef u1)) (portRef y))))))))
        "#;
        let m = parse_edif(text).expect("parses");
        assert_eq!(m.name, "good");
    }
}
