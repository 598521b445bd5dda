//! Packed lane-space sweep: the exhaustive (class × mask) enumeration,
//! 64 mask words per machine word.
//!
//! The scalar reference, the test oracle in this crate's
//! `tests/scalar_oracle.rs`, walks the mask space one word at a time
//! through `Netlist::evaluate_nets`. This engine computes the same
//! statistics bit-for-bit from a *packed* representation: per
//! (net, class) a row of `⌈M/64⌉` u64 words where lane `ℓ` is the net's
//! value under mask word `ℓ` — gates evaluate word-wise in topological
//! order, and histograms are transient popcount folds over the rows.
//! Keeping the rows around (instead of the counts) is what makes the
//! incremental re-analysis in [`crate::incremental`] possible: after a
//! localized edit, clean nets keep their rows (tiled into the grown lane
//! space) and only dirty cones re-evaluate.
//!
//! Every derived `f64` statistic replicates the scalar oracle's fold
//! order term for term, so the packed engine reproduces the seven native
//! schemes' pinned reports: counts are `u32` (M ≤ 2¹⁶, exact in `f64`),
//! pattern loops pad to 16 entries with trailing zeros (adding `0.0` in
//! ascending order is the identity), and maxima fold with `f64::max`
//! from `0.0`.

use sbox_netlist::CellType;

use crate::subject::{Subject, MAX_MASK_BITS};

/// Maximum cell fan-in, hence `2^4` joint fan-in patterns per gate
/// (the scalar oracle pads its histograms to the same width).
pub const MAX_FANIN_PATTERNS: usize = 16;

/// Lane patterns of the six in-word mask bits: bit `b` of pattern `j` is
/// `(b >> j) & 1`.
const IN_WORD: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The 64 lane values of mask bit `j` within word `w` of a class row:
/// lane `ℓ = 64w + b` carries mask word `ℓ`, whose bit `j` is
/// `(ℓ >> j) & 1`.
#[must_use]
pub fn mask_bit_word(j: usize, w: usize) -> u64 {
    if j < 6 {
        IN_WORD[j]
    } else if w >> (j - 6) & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Lane geometry of a mask space: words per class row and the validity
/// mask applied to every word (partial when `M < 64`, else all-ones —
/// `M` is a power of two, so larger spaces fill whole words).
#[must_use]
pub fn lane_geometry(mask_bits: usize) -> (usize, u64) {
    let m = 1usize << mask_bits;
    if m >= 64 {
        (m / 64, !0)
    } else {
        (1, (1u64 << m) - 1)
    }
}

/// The lane row of primary input `port`, `words_per_class` words per
/// class: in each class, the parity of the input's class bits, XOR the
/// lane patterns of its mask bits
/// ([`sbox_circuits::RoleCodec::input_form`]).
#[must_use]
pub fn input_row(subject: &Subject, port: usize, words_per_class: usize) -> Vec<u64> {
    let (class_bits, mask_bits) = subject.codec().input_form(port);
    let masks: Vec<usize> = (0..64).filter(|j| mask_bits >> j & 1 == 1).collect();
    let mut row = vec![0u64; subject.num_classes() * words_per_class];
    for (t, words) in (0u64..).zip(row.chunks_mut(words_per_class)) {
        // All ones in the classes whose selected bits have odd parity.
        let class = u64::from((t & class_bits).count_ones() & 1).wrapping_neg();
        for (w, word) in words.iter_mut().enumerate() {
            *word = masks
                .iter()
                .fold(class, |acc, &j| acc ^ mask_bit_word(j, w));
        }
    }
    row
}

/// Evaluate one cell word-wise over up to four pin words.
#[must_use]
pub fn eval_cell_words(cell: CellType, pins: &[u64]) -> u64 {
    use CellType::*;
    match cell {
        Inv => !pins[0],
        Buf => pins[0],
        And2 => pins[0] & pins[1],
        And3 => pins[0] & pins[1] & pins[2],
        And4 => pins[0] & pins[1] & pins[2] & pins[3],
        Or2 => pins[0] | pins[1],
        Or3 => pins[0] | pins[1] | pins[2],
        Or4 => pins[0] | pins[1] | pins[2] | pins[3],
        Nand2 => !(pins[0] & pins[1]),
        Nand3 => !(pins[0] & pins[1] & pins[2]),
        Nand4 => !(pins[0] & pins[1] & pins[2] & pins[3]),
        Nor2 => !(pins[0] | pins[1]),
        Nor3 => !(pins[0] | pins[1] | pins[2]),
        Nor4 => !(pins[0] | pins[1] | pins[2] | pins[3]),
        Xor2 => pins[0] ^ pins[1],
        Xnor2 => !(pins[0] ^ pins[1]),
    }
}

/// The packed rows of one full sweep, plus the popcount statistics the
/// rules consume.
#[derive(Debug, Clone)]
pub struct PackedSweep {
    classes: usize,
    mask_count: u32,
    words_per_class: usize,
    valid: u64,
    rows: Vec<Vec<u64>>,
}

impl PackedSweep {
    /// Evaluate the whole (class × mask) space of an exhaustive-depth
    /// subject.
    ///
    /// # Panics
    ///
    /// Panics if the subject exceeds the enumeration budgets
    /// ([`Subject::depth`] must be `Exhaustive` — callers gate on it).
    pub fn run(subject: &Subject) -> Self {
        let netlist = subject.netlist();
        let mask_bits = subject.mask_bits();
        assert!(mask_bits <= MAX_MASK_BITS, "mask space too large to pack");
        let classes = subject.num_classes();
        let mask_count = 1u32 << mask_bits;
        let (words_per_class, valid) = lane_geometry(mask_bits);
        let total = classes * words_per_class;
        let mut rows: Vec<Vec<u64>> = vec![Vec::new(); netlist.nets().len()];
        for (i, &net) in netlist.inputs().iter().enumerate() {
            rows[net.index()] = input_row(subject, i, words_per_class);
        }
        for &gid in netlist.topo_order() {
            let gate = netlist.gate(gid);
            let cell = gate.cell();
            let mut out = vec![0u64; total];
            let mut pins = [0u64; 4];
            for (k, slot) in out.iter_mut().enumerate() {
                for (p, &n) in gate.inputs().iter().enumerate() {
                    pins[p] = rows[n.index()][k];
                }
                *slot = eval_cell_words(cell, &pins[..gate.inputs().len()]);
            }
            rows[gate.output().index()] = out;
        }
        Self {
            classes,
            mask_count,
            words_per_class,
            valid,
            rows,
        }
    }

    /// Assemble a sweep from externally produced rows (the incremental
    /// engine's tiled + re-evaluated rows). Rows must be class-major with
    /// `classes × ⌈2^mask_bits / 64⌉` words per net.
    pub fn from_rows(classes: usize, mask_bits: usize, rows: Vec<Vec<u64>>) -> Self {
        let (words_per_class, valid) = lane_geometry(mask_bits);
        Self {
            classes,
            mask_count: 1u32 << mask_bits,
            words_per_class,
            valid,
            rows,
        }
    }

    /// Number of unmasked classes enumerated.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of mask words enumerated per class.
    pub fn mask_count(&self) -> u32 {
        self.mask_count
    }

    /// Words per (net, class) row.
    pub fn words_per_class(&self) -> usize {
        self.words_per_class
    }

    /// Validity mask applied to every row word.
    pub fn valid(&self) -> u64 {
        self.valid
    }

    /// The full packed row of a net (class-major, `classes ×
    /// words_per_class` words).
    pub fn net_row(&self, net: usize) -> &[u64] {
        &self.rows[net]
    }

    /// One class's row slice of a net.
    pub fn class_row(&self, net: usize, t: usize) -> &[u64] {
        let w = self.words_per_class;
        &self.rows[net][t * w..(t + 1) * w]
    }

    /// Per-class ones count of a net (lane popcount).
    pub fn net_ones(&self, net: usize) -> Vec<u32> {
        (0..self.classes)
            .map(|t| {
                self.class_row(net, t)
                    .iter()
                    .map(|&w| (w & self.valid).count_ones())
                    .sum()
            })
            .collect()
    }

    /// Worst-case settled-value bias of one net:
    /// `max_t |P(net = 1 | t) − P(net = 1 | 0)|`, replicating the scalar
    /// oracle's `net_value_bias` term for term.
    pub fn net_value_bias_one(&self, net: usize) -> f64 {
        let denom = f64::from(self.mask_count);
        let ones = self.net_ones(net);
        let p0 = f64::from(ones[0]) / denom;
        ones.iter()
            .map(|&c| (f64::from(c) / denom - p0).abs())
            .fold(0.0, f64::max)
    }

    /// Held-mask transition bias of one net: the spread of the Hamming-
    /// distance probability `P(net flips | class 0 → class t)` over
    /// `t ≥ 1`, under a mask held across the transition. For a net
    /// driven by a synchronization barrier (`barriered`), the precharge
    /// model applies instead: the wire returns to 0 between evaluations,
    /// so the flip probability is the ones probability of the new class.
    pub fn net_transition_bias_one(&self, net: usize, barriered: bool) -> f64 {
        if self.classes < 2 {
            return 0.0;
        }
        let denom = f64::from(self.mask_count);
        let row0 = self.class_row(net, 0);
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for t in 1..self.classes {
            let flips: u32 = if barriered {
                self.class_row(net, t)
                    .iter()
                    .map(|&w| (w & self.valid).count_ones())
                    .sum()
            } else {
                self.class_row(net, t)
                    .iter()
                    .zip(row0)
                    .map(|(&w, &w0)| ((w ^ w0) & self.valid).count_ones())
                    .sum()
            };
            let p = f64::from(flips) / denom;
            max = max.max(p);
            min = min.min(p);
        }
        max - min
    }

    /// Fan-in joint histogram over the given pin nets under class `t`,
    /// padded to [`MAX_FANIN_PATTERNS`] entries (pin 0 = LSB). Pins
    /// listed in `stale` substitute their class-0 row — the barrier
    /// model: a barriered pin still holds the previous evaluation's
    /// value during the consuming gate's race window.
    pub fn pattern_row(
        &self,
        pins: &[usize],
        t: usize,
        stale: &[bool],
    ) -> [u32; MAX_FANIN_PATTERNS] {
        let k = pins.len();
        let mut counts = [0u32; MAX_FANIN_PATTERNS];
        for (p, slot) in counts.iter_mut().enumerate().take(1 << k) {
            let mut acc = vec![self.valid; self.words_per_class];
            for (pin, &net) in pins.iter().enumerate() {
                let cls = if stale.get(pin).copied().unwrap_or(false) {
                    0
                } else {
                    t
                };
                let row = self.class_row(net, cls);
                for (a, &w) in acc.iter_mut().zip(row) {
                    *a &= if p >> pin & 1 == 1 { w } else { !w };
                }
            }
            *slot = acc.iter().map(|&w| w.count_ones()).sum();
        }
        counts
    }

    /// Worst-case transient bias of a fan-in joint distribution (largest
    /// total-variation distance of any class against class 0),
    /// replicating the scalar oracle's `gate_joint_bias` term for term.
    pub fn gate_joint_bias_one(&self, pins: &[usize], stale: &[bool]) -> f64 {
        let denom = f64::from(self.mask_count);
        let row0 = self.pattern_row(pins, 0, stale);
        (1..self.classes)
            .map(|t| {
                let row = self.pattern_row(pins, t, stale);
                (0..MAX_FANIN_PATTERNS)
                    .map(|p| (f64::from(row[p]) - f64::from(row0[p])).abs() / denom)
                    .sum::<f64>()
                    / 2.0
            })
            .fold(0.0, f64::max)
    }

    /// Class-variance mass of a fan-in joint distribution, replicating
    /// the scalar oracle's `gate_class_variance` term for term.
    pub fn gate_class_variance_one(&self, pins: &[usize], stale: &[bool]) -> f64 {
        let denom = f64::from(self.mask_count);
        let per_class: Vec<[u32; MAX_FANIN_PATTERNS]> = (0..self.classes)
            .map(|t| self.pattern_row(pins, t, stale))
            .collect();
        (0..MAX_FANIN_PATTERNS)
            .map(|p| {
                let probs: Vec<f64> = (0..self.classes)
                    .map(|t| f64::from(per_class[t][p]) / denom)
                    .collect();
                let mean = probs.iter().sum::<f64>() / self.classes as f64;
                probs.iter().map(|q| (q - mean) * (q - mean)).sum::<f64>() / self.classes as f64
            })
            .sum()
    }

    /// Worst-case share-group non-uniformity: for each class, the
    /// total-variation distance between the joint distribution of the
    /// group's nets and the parity-preserving uniform ideal (mass of each
    /// XOR value spread evenly over its `2^(k−1)` patterns). Zero means
    /// the shares are jointly uniform given their recombined value — the
    /// uniformity a sound masking must provide.
    pub fn group_uniformity_one(&self, nets: &[usize]) -> f64 {
        let k = nets.len();
        if !(2..=4).contains(&k) {
            return 0.0;
        }
        let denom = f64::from(self.mask_count);
        let half = f64::from(1u32 << (k - 1));
        let mut worst = 0.0f64;
        for t in 0..self.classes {
            let mut counts = [0u32; MAX_FANIN_PATTERNS];
            for (p, slot) in counts.iter_mut().enumerate().take(1 << k) {
                let mut acc = vec![self.valid; self.words_per_class];
                for (pin, &net) in nets.iter().enumerate() {
                    let row = self.class_row(net, t);
                    for (a, &w) in acc.iter_mut().zip(row) {
                        *a &= if p >> pin & 1 == 1 { w } else { !w };
                    }
                }
                *slot = acc.iter().map(|&w| w.count_ones()).sum();
            }
            let parity_mass: [u32; 2] = (0..1usize << k).fold([0u32; 2], |mut acc, p| {
                acc[(p.count_ones() & 1) as usize] += counts[p];
                acc
            });
            let tv = (0..1usize << k)
                .map(|p| {
                    let ideal = f64::from(parity_mass[(p.count_ones() & 1) as usize]) / half;
                    (f64::from(counts[p]) - ideal).abs() / denom
                })
                .sum::<f64>()
                / 2.0;
            worst = worst.max(tv);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::{SboxCircuit, Scheme};

    /// The first-order probing facts of the seven schemes over the full
    /// (class × mask) space: settled-value bias, fan-in joint
    /// (transient) bias and its class-variance mass.
    #[test]
    fn probing_facts_hold_on_every_scheme() {
        let max = |v: &[f64]| v.iter().fold(0.0f64, |a, &b| a.max(b));
        let no_stale = [false; 4];
        for scheme in Scheme::ALL {
            let circuit = SboxCircuit::build(scheme);
            let netlist = circuit.netlist();
            let packed = PackedSweep::run(&Subject::of_circuit(&circuit));
            let driven: Vec<f64> = (0..netlist.nets().len())
                .filter(|&n| netlist.nets()[n].driver().is_some())
                .map(|n| packed.net_value_bias_one(n))
                .collect();
            let mut joint = Vec::new();
            for (g, gate) in netlist.gates().iter().enumerate() {
                let pins: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
                for t in 0..packed.classes() {
                    let row = packed.pattern_row(&pins, t, &no_stale);
                    // Complete counts: every (gate, class) row sums to
                    // the mask count.
                    assert_eq!(row.iter().sum::<u32>(), packed.mask_count(), "{scheme}");
                    if scheme == Scheme::Lut {
                        // No masks: each class puts its whole mass on
                        // one pattern.
                        assert_eq!(row.iter().filter(|&&c| c > 0).count(), 1);
                    }
                }
                let bias = packed.gate_joint_bias_one(&pins, &no_stale);
                let var = packed.gate_class_variance_one(&pins, &no_stale);
                assert_eq!(
                    bias == 0.0,
                    var == 0.0,
                    "{scheme} gate {g}: {bias} vs {var}"
                );
                joint.push(bias);
            }
            match scheme {
                // Unprotected: some net is a deterministic function of t.
                Scheme::Lut | Scheme::Opt => assert_eq!(max(&driven), 1.0, "{scheme}"),
                // Value-domain first-order security, and classless
                // fan-in joints: their leakage is dynamic only.
                Scheme::Isw | Scheme::Ti => {
                    assert!(max(&driven) < 1e-9, "{scheme}: value bias {}", max(&driven));
                    assert!(max(&joint) < 1e-12, "{scheme}: joint bias {}", max(&joint));
                }
                // The flat SOP of a masked table pins (A_i, MI_i) pairs
                // in its product terms, but the outputs stay masked.
                Scheme::Glut | Scheme::Rsm => {
                    assert!(max(&driven) > 0.01, "{scheme}: value bias {}", max(&driven));
                    for (_, net) in netlist.outputs() {
                        assert!(packed.net_value_bias_one(net.index()) < 1e-9, "{scheme}");
                    }
                }
                Scheme::RsmRom => {}
            }
            match scheme {
                Scheme::Lut => assert!(joint.contains(&1.0)),
                Scheme::Glut | Scheme::Rsm | Scheme::RsmRom => {
                    assert!(max(&joint) > 0.1, "{scheme}: joint bias {}", max(&joint));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn lane_geometry_covers_small_and_large_spaces() {
        assert_eq!(lane_geometry(0), (1, 1));
        assert_eq!(lane_geometry(2), (1, 0b1111));
        assert_eq!(lane_geometry(6), (1, !0));
        assert_eq!(lane_geometry(12), (64, !0));
    }

    #[test]
    fn uniform_shares_have_zero_group_nonuniformity() {
        // ISW output share pairs are jointly uniform given their XOR.
        let circuit = SboxCircuit::build(Scheme::Isw);
        let subject = Subject::of_circuit(&circuit);
        let packed = PackedSweep::run(&subject);
        for group in subject.output_groups() {
            let nets: Vec<usize> = group
                .iter()
                .map(|&p| subject.netlist().outputs()[p].1.index())
                .collect();
            let tv = packed.group_uniformity_one(&nets);
            assert!(tv < 1e-9, "ISW group {group:?}: tv {tv}");
        }
    }
}
