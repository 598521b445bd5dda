//! The netlist graph and its builder.

use crate::{CellType, NetlistError, NetlistStats};

/// Identifier of a net (wire) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate instance inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// The net's index, usable for indexing parallel per-net arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The gate's index, usable for indexing parallel per-gate arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A wire in the netlist. Its loads are listed by [`Netlist::loads`].
#[derive(Debug, Clone)]
pub struct Net {
    pub(crate) name: Option<String>,
    pub(crate) driver: Option<GateId>,
    pub(crate) is_input: bool,
}

impl Net {
    /// The gate driving this net, or `None` for a primary input.
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// Whether this net is a primary input.
    pub fn is_input(&self) -> bool {
        self.is_input
    }

    /// The net's name, if it is a named port.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

/// A gate instance.
#[derive(Clone)]
pub struct Gate {
    pub(crate) cell: CellType,
    /// Input nets in pin order, the first `cell.arity()` of them; held
    /// inline so a netlist does not allocate (or free) per gate.
    pub(crate) pins: [NetId; MAX_PINS],
    pub(crate) output: NetId,
}

/// The most inputs any cell has.
const MAX_PINS: usize = 4;

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("cell", &self.cell)
            .field("inputs", &self.inputs())
            .field("output", &self.output)
            .finish()
    }
}

impl Gate {
    /// The cell implementing this gate.
    pub fn cell(&self) -> CellType {
        self.cell
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.pins[..self.cell.arity()]
    }

    /// The output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A validated, topologically-sorted combinational netlist.
///
/// Construct via [`NetlistBuilder`]. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    /// Gates in topological (evaluation) order.
    topo: Vec<GateId>,
    /// Logic level of each gate (1 + max level of its driving gates).
    levels: Vec<u32>,
    /// The loads of net `i` are `load_gates[load_start[i]..load_start[i + 1]]`:
    /// one list for the whole netlist, so it allocates (and frees) once.
    load_start: Vec<u32>,
    load_gates: Vec<GateId>,
}

impl Netlist {
    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Every net's id, in index order (parallel to [`Netlist::nets`]).
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// A gate by id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Gates reading a net, in gate order, once per reading pin.
    pub fn loads(&self, net: NetId) -> &[GateId] {
        let i = net.index();
        &self.load_gates[self.load_start[i] as usize..self.load_start[i + 1] as usize]
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)`, in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Gates in topological order (every gate appears after the drivers of
    /// all of its inputs).
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Logic level of a gate: 1 for gates fed only by primary inputs,
    /// otherwise 1 + the maximum level among driving gates.
    pub fn level(&self, gate: GateId) -> u32 {
        self.levels[gate.index()]
    }

    /// The critical path length in *gates* (the paper's Table I "Delay"
    /// row): the maximum logic level over all primary-output drivers.
    pub fn critical_path_gates(&self) -> u32 {
        self.outputs
            .iter()
            .filter_map(|(_, net)| self.nets[net.index()].driver)
            .map(|g| self.levels[g.index()])
            .max()
            .unwrap_or(0)
    }

    /// The critical path delay in picoseconds using nominal cell delays.
    pub fn critical_path_ps(&self) -> f64 {
        let mut arrival = vec![0.0_f64; self.nets.len()];
        for &gid in &self.topo {
            let g = &self.gates[gid.index()];
            let t: f64 = g
                .inputs()
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0, f64::max)
                + g.cell.delay_ps();
            arrival[g.output.index()] = t;
        }
        self.outputs
            .iter()
            .map(|(_, net)| arrival[net.index()])
            .fold(0.0, f64::max)
    }

    /// Capacitive load on a net in femtofarads: the sum of the input-pin
    /// capacitances of all gates reading it.
    pub fn fanout_cap_ff(&self, net: NetId) -> f64 {
        self.loads(net)
            .iter()
            .map(|g| self.gates[g.index()].cell.input_cap_ff())
            .sum()
    }

    /// Evaluate all nets for the given primary-input assignment and return
    /// the full per-net value vector (indexed by [`NetId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate_nets(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = Vec::new();
        self.evaluate_nets_into(inputs, &mut values);
        values
    }

    /// [`Netlist::evaluate_nets`] into a caller-owned buffer, so settle
    /// loops (the simulator's capture sessions) reuse one allocation
    /// across calls. The buffer is cleared and resized to the net count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate_nets_into(&self, inputs: &[bool], values: &mut Vec<bool>) {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "netlist `{}` has {} inputs, got {}",
            self.name,
            self.inputs.len(),
            inputs.len()
        );
        values.clear();
        values.resize(self.nets.len(), false);
        for (net, &v) in self.inputs.iter().zip(inputs) {
            values[net.index()] = v;
        }
        let mut pins = [false; MAX_PINS];
        for &gid in &self.topo {
            let g = &self.gates[gid.index()];
            for (slot, n) in pins.iter_mut().zip(g.inputs()) {
                *slot = values[n.index()];
            }
            values[g.output.index()] = g.cell.evaluate(&pins[..g.cell.arity()]);
        }
    }

    /// Evaluate the primary outputs for the given primary-input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.evaluate_nets(inputs);
        self.outputs
            .iter()
            .map(|(_, net)| values[net.index()])
            .collect()
    }

    /// Evaluate with inputs/outputs packed little-endian into `u64` words
    /// (bit `i` of `inputs` feeds primary input `i`).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 inputs or outputs.
    pub fn evaluate_word(&self, inputs: u64) -> u64 {
        assert!(self.num_inputs() <= 64 && self.num_outputs() <= 64);
        let bits: Vec<bool> = (0..self.num_inputs())
            .map(|i| (inputs >> i) & 1 == 1)
            .collect();
        self.evaluate(&bits)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    /// Compute the full truth table: entry `t` is the packed output word for
    /// packed input word `t`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 20 inputs (table would exceed one
    /// million entries).
    pub fn truth_table(&self) -> Vec<u64> {
        assert!(
            self.num_inputs() <= 20,
            "truth table of a {}-input netlist is too large",
            self.num_inputs()
        );
        (0..1u64 << self.num_inputs())
            .map(|t| self.evaluate_word(t))
            .collect()
    }

    /// Gate-mix / area / depth report (the per-implementation column of the
    /// paper's Table I).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::from_netlist(self)
    }
}

/// Incremental builder for [`Netlist`].
///
/// # Example
///
/// ```
/// use sbox_netlist::{CellType, NetlistBuilder};
///
/// # fn main() -> Result<(), sbox_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("mux");
/// let sel = b.input("sel");
/// let a = b.input("a");
/// let c = b.input("c");
/// let nsel = b.not(sel);
/// let hi = b.and(&[sel, a]);
/// let lo = b.and(&[nsel, c]);
/// let y = b.or(&[hi, lo]);
/// b.output("y", y);
/// let mux = b.finish()?;
/// assert_eq!(mux.evaluate(&[true, true, false]), vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
}

impl NetlistBuilder {
    /// Start a new netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn fresh_net(&mut self, name: Option<String>, is_input: bool) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            driver: None,
            is_input,
        });
        id
    }

    /// Declare a named primary input and return its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.fresh_net(Some(name.into()), true);
        self.inputs.push(id);
        id
    }

    /// Declare `n` primary inputs named `prefix0..prefix{n-1}` (LSB first).
    pub fn input_bus(&mut self, prefix: &str, n: usize) -> Vec<NetId> {
        (0..n).map(|i| self.input(format!("{prefix}{i}"))).collect()
    }

    /// Mark a net as a named primary output.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Mark nets as primary outputs named `prefix0..` (LSB first).
    pub fn output_bus(&mut self, prefix: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{prefix}{i}"), n);
        }
    }

    /// Instantiate a gate and return its output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != cell.arity()` — this is a construction
    /// bug, caught eagerly so the offending generator line is on the stack.
    pub fn gate(&mut self, cell: CellType, inputs: &[NetId]) -> NetId {
        assert_eq!(
            inputs.len(),
            cell.arity(),
            "{} expects {} inputs, got {}",
            cell.mnemonic(),
            cell.arity(),
            inputs.len()
        );
        let out = self.fresh_net(None, false);
        let gid = GateId(self.gates.len() as u32);
        let mut pins = [NetId(0); MAX_PINS];
        pins[..inputs.len()].copy_from_slice(inputs);
        self.gates.push(Gate {
            cell,
            pins,
            output: out,
        });
        self.nets[out.index()].driver = Some(gid);
        out
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(CellType::Inv, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(CellType::Buf, &[a])
    }

    /// XOR of two nets.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellType::Xor2, &[a, b])
    }

    /// XNOR of two nets.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellType::Xnor2, &[a, b])
    }

    /// Balanced AND reduction of one or more nets using AND2/AND3/AND4.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    pub fn and(&mut self, terms: &[NetId]) -> NetId {
        self.reduce(terms, [CellType::And2, CellType::And3, CellType::And4])
    }

    /// Balanced OR reduction of one or more nets using OR2/OR3/OR4.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    pub fn or(&mut self, terms: &[NetId]) -> NetId {
        self.reduce(terms, [CellType::Or2, CellType::Or3, CellType::Or4])
    }

    /// Balanced XOR reduction of one or more nets (XOR2 tree).
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    pub fn xor_tree(&mut self, terms: &[NetId]) -> NetId {
        assert!(!terms.is_empty(), "xor_tree of zero terms");
        let mut layer = terms.to_vec();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        self.xor(c[0], c[1])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        layer[0]
    }

    fn reduce(&mut self, terms: &[NetId], cells: [CellType; 3]) -> NetId {
        assert!(!terms.is_empty(), "reduction of zero terms");
        let mut layer = terms.to_vec();
        while layer.len() > 1 {
            // A trailing 5-wide remainder splits 3 + 2 rather than 4 + 1 so
            // that no layer forwards a lone net through an extra level.
            let mut next = Vec::with_capacity(layer.len().div_ceil(4));
            let mut rest = layer.as_slice();
            while !rest.is_empty() {
                let take = match rest.len() {
                    5 => 3,
                    1..=4 => rest.len(),
                    _ => 4,
                };
                let (chunk, tail) = rest.split_at(take);
                rest = tail;
                // `take` is 1..=4: a lone net passes through, 2–4 nets
                // take the matching 2-, 3- or 4-input cell.
                let out = match take {
                    1 => chunk[0],
                    n => self.gate(cells[n - 2], chunk),
                };
                next.push(out);
            }
            layer = next;
        }
        layer[0]
    }

    /// Number of gates instantiated so far.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Validate and freeze the netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist has no outputs, duplicate
    /// port names, undriven nets, or a combinational cycle.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut seen = std::collections::HashSet::new();
        for name in self
            .inputs
            .iter()
            .filter_map(|n| self.nets[n.index()].name.clone())
            .chain(self.outputs.iter().map(|(n, _)| n.clone()))
        {
            if !seen.insert(name.clone()) {
                return Err(NetlistError::DuplicateName { name });
            }
        }
        // Each net's loads, in gate order, once per reading pin.
        let mut load_start = vec![0u32; self.nets.len() + 1];
        for g in &self.gates {
            for n in g.inputs() {
                load_start[n.index() + 1] += 1;
            }
        }
        for i in 0..self.nets.len() {
            load_start[i + 1] += load_start[i];
        }
        let mut fill = load_start.clone();
        let mut load_gates = vec![GateId(0); load_start[self.nets.len()] as usize];
        for (i, g) in self.gates.iter().enumerate() {
            for n in g.inputs() {
                load_gates[fill[n.index()] as usize] = GateId(i as u32);
                fill[n.index()] += 1;
            }
        }
        drop(fill);
        let loads = |n: NetId| {
            &load_gates[load_start[n.index()] as usize..load_start[n.index() + 1] as usize]
        };
        // Every used net must be driven or a primary input.
        for (i, net) in self.nets.iter().enumerate() {
            let used = !loads(NetId(i as u32)).is_empty()
                || self.outputs.iter().any(|(_, n)| n.index() == i);
            if used && net.driver.is_none() && !net.is_input {
                return Err(NetlistError::Undriven { net: i });
            }
            if net.is_input && net.driver.is_some() {
                return Err(NetlistError::MultipleDrivers { net: i });
            }
        }
        // Kahn topological sort over gates.
        let mut indegree: Vec<u32> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs()
                    .iter()
                    .filter(|n| self.nets[n.index()].driver.is_some())
                    .count() as u32
            })
            .collect();
        let mut queue: std::collections::VecDeque<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| GateId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(self.gates.len());
        let mut levels = vec![0u32; self.gates.len()];
        while let Some(gid) = queue.pop_front() {
            topo.push(gid);
            let g = &self.gates[gid.index()];
            levels[gid.index()] = 1 + g
                .inputs()
                .iter()
                .filter_map(|n| self.nets[n.index()].driver)
                .map(|d| levels[d.index()])
                .max()
                .unwrap_or(0);
            for &load in loads(g.output) {
                indegree[load.index()] -= 1;
                if indegree[load.index()] == 0 {
                    queue.push_back(load);
                }
            }
        }
        if topo.len() != self.gates.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
            levels,
            load_start,
            load_gates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let axb = b.xor(a, c);
        let s = b.xor(axb, cin);
        let t1 = b.and(&[a, c]);
        let t2 = b.and(&[axb, cin]);
        let cout = b.or(&[t1, t2]);
        b.output("s", s);
        b.output("cout", cout);
        b.finish().expect("valid full adder")
    }

    #[test]
    fn full_adder_truth_table() {
        let fa = full_adder();
        for t in 0u64..8 {
            let a = t & 1;
            let b = (t >> 1) & 1;
            let cin = (t >> 2) & 1;
            let sum = a + b + cin;
            let expect = (sum & 1) | ((sum >> 1) << 1);
            assert_eq!(fa.evaluate_word(t), expect, "t={t}");
        }
    }

    #[test]
    fn levels_and_critical_path() {
        let fa = full_adder();
        // Longest path: a → xor(axb) → and(t2) → or(cout) = 3 gates.
        assert_eq!(fa.critical_path_gates(), 3);
        assert!(fa.critical_path_ps() > 0.0);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let fa = full_adder();
        let pos: std::collections::HashMap<_, _> = fa
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        for (i, g) in fa.gates().iter().enumerate() {
            for inp in g.inputs() {
                if let Some(drv) = fa.net(*inp).driver() {
                    assert!(pos[&drv] < pos[&GateId(i as u32)]);
                }
            }
        }
    }

    #[test]
    fn no_outputs_is_an_error() {
        let mut b = NetlistBuilder::new("empty");
        let _ = b.input("a");
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn duplicate_port_name_is_an_error() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        b.output("a", a);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::DuplicateName { .. }
        ));
    }

    #[test]
    fn wide_reductions_are_correct() {
        for n in 1..=17usize {
            let mut b = NetlistBuilder::new("and_wide");
            let ins = b.input_bus("x", n);
            let y = b.and(&ins);
            let z = b.or(&ins);
            let w = b.xor_tree(&ins);
            b.output("and", y);
            b.output("or", z);
            b.output("xor", w);
            let nl = b.finish().expect("valid");
            for t in 0u64..(1 << n.min(10)) {
                let bits: Vec<bool> = (0..n).map(|i| (t >> i) & 1 == 1).collect();
                let out = nl.evaluate(&bits);
                assert_eq!(out[0], bits.iter().all(|&x| x), "and n={n} t={t}");
                assert_eq!(out[1], bits.iter().any(|&x| x), "or n={n} t={t}");
                assert_eq!(
                    out[2],
                    bits.iter().fold(false, |a, &x| a ^ x),
                    "xor n={n} t={t}"
                );
            }
        }
    }

    #[test]
    fn fanout_cap_accumulates() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(a);
        b.output("x", x);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let cap = nl.fanout_cap_ff(nl.inputs()[0]);
        assert!((cap - 2.0 * CellType::Inv.input_cap_ff()).abs() < 1e-12);
    }

    #[test]
    fn evaluate_word_round_trip() {
        let fa = full_adder();
        let tt = fa.truth_table();
        assert_eq!(tt.len(), 8);
        for (t, &o) in tt.iter().enumerate() {
            assert_eq!(o, fa.evaluate_word(t as u64));
        }
    }
}
