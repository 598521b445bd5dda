//! The scalar mask-space oracle that [`PackedSweep`] is pinned to.
//!
//! [`sweep`] walks the whole (class × mask) space of a native scheme one
//! mask word at a time through `Netlist::evaluate_nets` and tallies, for
//! every net, how often it evaluates to 1 under each class and, for
//! every gate, the joint distribution of its fan-in values under each
//! class. Its three statistics are the historical definitions of the
//! analyzer's value bias, local transient (fan-in joint) bias and
//! class-variance mass. `PackedSweep` replicates their arithmetic term
//! for term, so the two must agree bit for bit; keep the expressions and
//! fold orders here unchanged.

use sbox_circuits::{SboxCircuit, Scheme};
use sca_verify::{PackedSweep, Subject};

/// Number of unmasked input classes (PRESENT S-box nibble values).
const NUM_CLASSES: usize = 16;

/// Maximum cell fan-in, hence `2^4` joint fan-in patterns per gate.
const MAX_FANIN_PATTERNS: usize = 16;

/// Raw class-conditional counts from one exhaustive sweep.
struct SweepCounts {
    /// Mask words enumerated per class.
    mask_count: u32,
    /// `net_ones[net][t]`: mask words under which `net` is 1 given class `t`.
    net_ones: Vec<[u32; NUM_CLASSES]>,
    /// `gate_patterns[gate][t][p]`: mask words under which the gate's
    /// fan-in nets spell pattern `p` (pin 0 = LSB) given class `t`.
    gate_patterns: Vec<[[u32; MAX_FANIN_PATTERNS]; NUM_CLASSES]>,
}

impl SweepCounts {
    /// Per-net worst-case value bias:
    /// `max_t |P(net = 1 | t) − P(net = 1 | 0)|`.
    fn net_value_bias(&self) -> Vec<f64> {
        let denom = f64::from(self.mask_count);
        self.net_ones
            .iter()
            .map(|per_class| {
                let p0 = f64::from(per_class[0]) / denom;
                per_class
                    .iter()
                    .map(|&c| (f64::from(c) / denom - p0).abs())
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Per-gate worst-case transient bias: the largest total-variation
    /// distance between the fan-in joint distribution under class `t` and
    /// under class 0, over all `t`.
    fn gate_joint_bias(&self) -> Vec<f64> {
        let denom = f64::from(self.mask_count);
        self.gate_patterns
            .iter()
            .map(|per_class| {
                (1..NUM_CLASSES)
                    .map(|t| {
                        (0..MAX_FANIN_PATTERNS)
                            .map(|p| {
                                (f64::from(per_class[t][p]) - f64::from(per_class[0][p])).abs()
                                    / denom
                            })
                            .sum::<f64>()
                            / 2.0
                    })
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Per-gate class-variance mass of the fan-in joint distribution:
    /// `Σ_p Var_t(P(pattern = p | t))`.
    fn gate_class_variance(&self) -> Vec<f64> {
        let denom = f64::from(self.mask_count);
        self.gate_patterns
            .iter()
            .map(|per_class| {
                (0..MAX_FANIN_PATTERNS)
                    .map(|p| {
                        let probs: Vec<f64> = (0..NUM_CLASSES)
                            .map(|t| f64::from(per_class[t][p]) / denom)
                            .collect();
                        let mean = probs.iter().sum::<f64>() / NUM_CLASSES as f64;
                        probs.iter().map(|q| (q - mean) * (q - mean)).sum::<f64>()
                            / NUM_CLASSES as f64
                    })
                    .sum()
            })
            .collect()
    }
}

/// Exhaustively evaluate the circuit over its whole (class × mask) space.
fn sweep(circuit: &SboxCircuit) -> SweepCounts {
    let encoding = circuit.encoding();
    let netlist = circuit.netlist();
    let mask_bits = encoding.mask_bits();
    assert!(mask_bits <= 16, "mask space too large to enumerate");
    let mask_count = 1u32 << mask_bits;
    let mut net_ones = vec![[0u32; NUM_CLASSES]; netlist.nets().len()];
    let mut gate_patterns = vec![[[0u32; MAX_FANIN_PATTERNS]; NUM_CLASSES]; netlist.gates().len()];
    for t in 0..NUM_CLASSES as u8 {
        for mask in 0..mask_count {
            let inputs = encoding.encode_masked(t, mask);
            let values = netlist.evaluate_nets(&inputs);
            for (slot, &v) in net_ones.iter_mut().zip(&values) {
                slot[usize::from(t)] += u32::from(v);
            }
            for (gate, slot) in netlist.gates().iter().zip(gate_patterns.iter_mut()) {
                let mut pattern = 0usize;
                for (pin, net) in gate.inputs().iter().enumerate() {
                    pattern |= usize::from(values[net.index()]) << pin;
                }
                slot[usize::from(t)][pattern] += 1;
            }
        }
    }
    SweepCounts {
        mask_count,
        net_ones,
        gate_patterns,
    }
}

#[test]
fn packed_statistics_are_bit_identical_to_the_scalar_sweep() {
    for scheme in [Scheme::Lut, Scheme::Glut, Scheme::Rsm, Scheme::Isw] {
        let circuit = SboxCircuit::build(scheme);
        let subject = Subject::of_circuit(&circuit);
        let counts = sweep(&circuit);
        let packed = PackedSweep::run(&subject);
        assert_eq!(packed.mask_count(), counts.mask_count, "{scheme}");
        let netlist = circuit.netlist();
        let scalar_net = counts.net_value_bias();
        for (n, scalar) in scalar_net.iter().enumerate().take(netlist.nets().len()) {
            assert_eq!(
                packed.net_value_bias_one(n).to_bits(),
                scalar.to_bits(),
                "{scheme} net {n}"
            );
        }
        let scalar_joint = counts.gate_joint_bias();
        let scalar_var = counts.gate_class_variance();
        let no_stale = [false; 4];
        for (g, gate) in netlist.gates().iter().enumerate() {
            let pins: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
            assert_eq!(
                packed.gate_joint_bias_one(&pins, &no_stale).to_bits(),
                scalar_joint[g].to_bits(),
                "{scheme} gate {g} joint"
            );
            assert_eq!(
                packed.gate_class_variance_one(&pins, &no_stale).to_bits(),
                scalar_var[g].to_bits(),
                "{scheme} gate {g} variance"
            );
        }
    }
}
