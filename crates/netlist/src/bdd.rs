//! A small reduced, ordered BDD package for formal equivalence checking.
//!
//! Exhaustive simulation verifies the S-box netlists up to 16 inputs;
//! BDDs verify them *structurally* and scale past the point where
//! enumeration stops being attractive. `check_equivalence` proves two
//! netlists compute identical functions (same input count assumed to mean
//! same input ordering).

use std::collections::HashMap;

use crate::Netlist;

/// Index of a BDD node inside a [`Bdd`] manager (0 = false, 1 = true).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

/// The constant-false terminal.
pub const FALSE: NodeId = NodeId(0);
/// The constant-true terminal.
pub const TRUE: NodeId = NodeId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: NodeId,
    high: NodeId,
}

/// A reduced ordered BDD manager with hash-consed nodes and a memoized
/// `ite` (if-then-else) operation.
///
/// # Example
///
/// ```
/// use sbox_netlist::bdd::Bdd;
///
/// let mut bdd = Bdd::new(2);
/// let a = bdd.var(0);
/// let b = bdd.var(1);
/// let axb = bdd.xor(a, b);
/// let bxa = bdd.xor(b, a);
/// assert_eq!(axb, bxa); // canonical: equal functions are equal nodes
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    num_vars: u32,
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    ite_cache: HashMap<(NodeId, NodeId, NodeId), NodeId>,
}

impl Bdd {
    /// Create a manager over `num_vars` variables (ordering = index
    /// order).
    pub fn new(num_vars: usize) -> Self {
        let terminal = |var| Node {
            var,
            low: FALSE,
            high: FALSE,
        };
        // Two sentinel terminal records; never dereferenced through `var`.
        Self {
            num_vars: num_vars as u32,
            nodes: vec![terminal(u32::MAX), terminal(u32::MAX)],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
        }
    }

    fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    /// The BDD of a single variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var(&mut self, var: usize) -> NodeId {
        assert!((var as u32) < self.num_vars, "variable out of range");
        self.mk(var as u32, FALSE, TRUE)
    }

    fn var_of(&self, n: NodeId) -> u32 {
        if n == FALSE || n == TRUE {
            u32::MAX
        } else {
            self.nodes[n.0 as usize].var
        }
    }

    fn cofactors(&self, n: NodeId, var: u32) -> (NodeId, NodeId) {
        if self.var_of(n) == var {
            let node = self.nodes[n.0 as usize];
            (node.low, node.high)
        } else {
            (n, n)
        }
    }

    /// If-then-else: the universal BDD combinator.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if let Some(&cached) = self.ite_cache.get(&(f, g, h)) {
            return cached;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let result = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), result);
        result
    }

    /// Negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, FALSE, TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Evaluate a node under an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < num_vars` referenced on the path.
    pub fn evaluate(&self, mut n: NodeId, assignment: &[bool]) -> bool {
        while n != FALSE && n != TRUE {
            let node = self.nodes[n.0 as usize];
            n = if assignment[node.var as usize] {
                node.high
            } else {
                node.low
            };
        }
        n == TRUE
    }

    /// Build the BDDs of every primary output of a netlist (input `i` of
    /// the netlist is variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more inputs than the manager has
    /// variables.
    pub fn of_netlist(&mut self, netlist: &Netlist) -> Vec<NodeId> {
        assert!(netlist.num_inputs() as u32 <= self.num_vars);
        let mut net_fn: Vec<NodeId> = vec![FALSE; netlist.nets().len()];
        for (i, &n) in netlist.inputs().iter().enumerate() {
            net_fn[n.index()] = self.var(i);
        }
        for &gid in netlist.topo_order() {
            let gate = netlist.gate(gid);
            let ins: Vec<NodeId> = gate.inputs().iter().map(|n| net_fn[n.index()]).collect();
            use crate::CellType::*;
            let out = match gate.cell() {
                Inv => self.not(ins[0]),
                Buf => ins[0],
                Xor2 => self.xor(ins[0], ins[1]),
                Xnor2 => {
                    let x = self.xor(ins[0], ins[1]);
                    self.not(x)
                }
                And2 | And3 | And4 => ins[1..].iter().fold(ins[0], |acc, &x| self.and(acc, x)),
                Or2 | Or3 | Or4 => ins[1..].iter().fold(ins[0], |acc, &x| self.or(acc, x)),
                Nand2 | Nand3 | Nand4 => {
                    let a = ins[1..].iter().fold(ins[0], |acc, &x| self.and(acc, x));
                    self.not(a)
                }
                Nor2 | Nor3 | Nor4 => {
                    let o = ins[1..].iter().fold(ins[0], |acc, &x| self.or(acc, x));
                    self.not(o)
                }
            };
            net_fn[gate.output().index()] = out;
        }
        netlist
            .outputs()
            .iter()
            .map(|(_, n)| net_fn[n.index()])
            .collect()
    }
}

/// Formally check that two netlists with identical input ordering compute
/// identical outputs. Returns the index of the first differing output, or
/// `None` if equivalent.
///
/// # Panics
///
/// Panics if the netlists differ in input or output count.
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Option<usize> {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let mut bdd = Bdd::new(a.num_inputs());
    let fa = bdd.of_netlist(a);
    let fb = bdd.of_netlist(b);
    fa.iter().zip(&fb).position(|(x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn canonicity_makes_equal_functions_equal_nodes() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        // (a ∧ b) ∨ c  ==  ¬(¬c ∧ ¬(a ∧ b))
        let ab = bdd.and(a, b);
        let lhs = bdd.or(ab, c);
        let nc = bdd.not(c);
        let nab = bdd.not(ab);
        let inner = bdd.and(nc, nab);
        let rhs = bdd.not(inner);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn evaluate_matches_semantics() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        for t in 0..4u32 {
            let assign = [t & 1 == 1, t >> 1 == 1];
            assert_eq!(bdd.evaluate(f, &assign), assign[0] ^ assign[1]);
        }
    }

    fn mux_via_gates() -> Netlist {
        let mut b = NetlistBuilder::new("mux1");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let ns = b.not(s);
        let hi = b.and(&[s, x]);
        let lo = b.and(&[ns, y]);
        let out = b.or(&[hi, lo]);
        b.output("o", out);
        b.finish().expect("valid")
    }

    fn mux_via_xor() -> Netlist {
        // o = y ⊕ (s ∧ (x ⊕ y)) — the same mux, different structure.
        let mut b = NetlistBuilder::new("mux2");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let d = b.xor(x, y);
        let g = b.and(&[s, d]);
        let out = b.xor(y, g);
        b.output("o", out);
        b.finish().expect("valid")
    }

    #[test]
    fn equivalent_structures_prove_equal() {
        assert_eq!(check_equivalence(&mux_via_gates(), &mux_via_xor()), None);
    }

    #[test]
    fn differing_netlists_report_the_output() {
        let mut b = NetlistBuilder::new("nand_not_and");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let _ = s;
        let out = b.gate(crate::CellType::Nand2, &[x, y]);
        b.output("o", out);
        let other = b.finish().expect("valid");
        assert_eq!(check_equivalence(&mux_via_gates(), &other), Some(0));
    }
}
