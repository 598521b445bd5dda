//! Packed lane-space sweep: the exhaustive (class × mask) enumeration,
//! 64 mask words per machine word.
//!
//! The scalar reference, the test oracle in this crate's
//! `tests/scalar_oracle.rs`, walks the mask space one word at a time
//! through `Netlist::evaluate_nets`. This engine computes the same
//! statistics bit-for-bit from a *packed* representation: per
//! (net, class) a row of `⌈M/64⌉` u64 words where lane `ℓ` is the net's
//! value under mask word `ℓ`. All rows live in one flat, net-major lane
//! matrix (a `Vec<u64>`, each net's row class-major within it); gates
//! evaluate word-wise in topological order, in place, and histograms are
//! transient popcount folds over the rows. The matrix is filled by the
//! crate's one evaluator ([`crate::incremental`]): a from-scratch run
//! evaluates every row, a re-analysis first *tiles* the clean rows of a
//! base sweep into the candidate's (possibly grown) lane space and
//! evaluates only the dirty ones.
//!
//! Every derived `f64` statistic replicates the scalar oracle's fold
//! order term for term, so the packed engine reproduces the seven native
//! schemes' pinned reports: counts are `u32` (M ≤ 2¹⁶, exact in `f64`),
//! pattern loops pad to 16 entries with trailing zeros (adding `0.0` in
//! ascending order is the identity), and maxima fold with `f64::max`
//! from `0.0`.

use sbox_netlist::{CellType, Gate};

use crate::subject::{Subject, MAX_MASK_BITS};

/// Maximum cell fan-in, hence `2^4` joint fan-in patterns per gate
/// (the scalar oracle pads its histograms to the same width).
pub const MAX_FANIN_PATTERNS: usize = 16;

/// Joint fan-in histogram of one class, padded to
/// [`MAX_FANIN_PATTERNS`] entries (pin 0 = pattern LSB).
type Histogram = [u32; MAX_FANIN_PATTERNS];

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
fn mask_bit_word(j: usize, w: usize) -> u64 {
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
fn lane_geometry(mask_bits: usize) -> (usize, u64) {
    let m = 1usize << mask_bits;
    if m >= 64 {
        (m / 64, !0)
    } else {
        (1, (1u64 << m) - 1)
    }
}

/// Evaluate one cell word-wise over up to four pin words.
fn eval_cell_words(cell: CellType, pins: &[u64]) -> u64 {
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

/// The lane matrix of one subject's (class × mask) space, plus the
/// popcount statistics the rules consume.
#[derive(Debug, Clone)]
pub struct PackedSweep {
    classes: usize,
    mask_count: u32,
    words_per_class: usize,
    valid: u64,
    /// Net-major lane matrix: net `n`'s row is the `row_len()` words
    /// from `n * row_len()`, class-major within.
    rows: Vec<u64>,
}

impl PackedSweep {
    /// Evaluate the whole (class × mask) space of an exhaustive-depth
    /// subject (a from-scratch run of the crate's one evaluator).
    ///
    /// # Panics
    ///
    /// Panics if the subject exceeds the enumeration budgets
    /// ([`Subject::depth`] must be `Exhaustive` — callers gate on it).
    pub fn run(subject: &Subject) -> Self {
        crate::incremental::evaluate(subject, None)
            .sweep
            .expect("mask space too large to pack")
    }

    /// An all-zero lane matrix over the subject's nets and lane space.
    pub(crate) fn zeroed(subject: &Subject) -> Self {
        let mask_bits = subject.mask_bits();
        assert!(mask_bits <= MAX_MASK_BITS, "mask space too large to pack");
        let classes = subject.num_classes();
        let (words_per_class, valid) = lane_geometry(mask_bits);
        Self {
            classes,
            mask_count: 1u32 << mask_bits,
            words_per_class,
            valid,
            rows: vec![0; subject.netlist().nets().len() * classes * words_per_class],
        }
    }

    /// Number of mask words enumerated per class.
    pub fn mask_count(&self) -> u32 {
        self.mask_count
    }

    fn row_len(&self) -> usize {
        self.classes * self.words_per_class
    }

    fn net_row_mut(&mut self, net: usize) -> &mut [u64] {
        let len = self.row_len();
        &mut self.rows[net * len..(net + 1) * len]
    }

    /// One class's row slice of a net.
    fn class_row(&self, net: usize, t: usize) -> &[u64] {
        let start = net * self.row_len() + t * self.words_per_class;
        &self.rows[start..start + self.words_per_class]
    }

    /// Fill the row of primary input `port`: in each class, the parity
    /// of the input's class bits, XOR the lane patterns of its mask bits
    /// ([`sbox_circuits::RoleCodec::input_form`]).
    pub(crate) fn fill_input(&mut self, subject: &Subject, port: usize) {
        let (class_bits, mask_bits) = subject.codec().input_form(port);
        let wpc = self.words_per_class;
        let row = self.net_row_mut(subject.netlist().inputs()[port].index());
        for (t, words) in (0u64..).zip(row.chunks_mut(wpc)) {
            // All ones in the classes whose selected bits have odd parity.
            let class = u64::from((t & class_bits).count_ones() & 1).wrapping_neg();
            for (w, word) in words.iter_mut().enumerate() {
                *word = (0..64)
                    .filter(|j| mask_bits >> j & 1 == 1)
                    .fold(class, |acc, j| acc ^ mask_bit_word(j, w));
            }
        }
    }

    /// Evaluate one gate word-wise into its output row from its pin
    /// rows.
    pub(crate) fn eval_gate(&mut self, gate: &Gate) {
        let len = self.row_len();
        let pins = gate.inputs();
        let out = gate.output().index() * len;
        let mut words = [0u64; 4];
        for k in 0..len {
            for (word, pin) in words.iter_mut().zip(pins) {
                *word = self.rows[pin.index() * len + k];
            }
            self.rows[out + k] = eval_cell_words(gate.cell(), &words[..pins.len()]);
        }
    }

    /// Copy net `net`'s row from `base`, a sweep over a lane space this
    /// one extends by appended (high) mask bits: each class block of the
    /// new row is `2^growth` copies of the base block, so the base space
    /// embeds as the low lanes of every new block. A block narrower than
    /// a word is first widened to 64 lanes.
    pub(crate) fn tile_row(&mut self, net: usize, base: &PackedSweep) {
        let (wpc, same) = (self.words_per_class, base.mask_count == self.mask_count);
        let len = base.row_len();
        let src = &base.rows[net * len..(net + 1) * len];
        let dst = self.net_row_mut(net);
        if same {
            dst.copy_from_slice(src);
        } else if base.mask_count >= 64 {
            for (block, from) in dst.chunks_mut(wpc).zip(src.chunks(base.words_per_class)) {
                for (slot, &word) in block.iter_mut().zip(from.iter().cycle()) {
                    *slot = word;
                }
            }
        } else {
            for (block, &from) in dst.chunks_mut(wpc).zip(src) {
                let mut word = from & base.valid;
                let mut width = base.mask_count;
                while width < 64 {
                    word |= word << width;
                    width *= 2;
                }
                block.fill(word);
            }
        }
    }

    /// Lanes under which a net is 1 given class `t`.
    fn ones(&self, net: usize, t: usize) -> u32 {
        self.class_row(net, t)
            .iter()
            .map(|&w| (w & self.valid).count_ones())
            .sum()
    }

    /// Joint histogram of up to four class rows, row `i` giving pattern
    /// bit `i`: per word, each row splits every pattern's lane mask in
    /// two, then the masks are counted.
    fn joint_counts(&self, rows: &[&[u64]]) -> Histogram {
        let mut counts = [0u32; MAX_FANIN_PATTERNS];
        for w in 0..self.words_per_class {
            let mut lanes = [0u64; MAX_FANIN_PATTERNS];
            lanes[0] = self.valid;
            let mut patterns = 1;
            for row in rows {
                for p in 0..patterns {
                    lanes[p + patterns] = lanes[p] & row[w];
                    lanes[p] &= !row[w];
                }
                patterns *= 2;
            }
            for (count, lane) in counts.iter_mut().zip(&lanes[..patterns]) {
                *count += lane.count_ones();
            }
        }
        counts
    }

    /// Per-class joint histograms of the given nets. Nets flagged in
    /// `stale` read their class-0 row in every class — the barrier
    /// model: a barriered pin still holds the previous evaluation's
    /// value during the consuming gate's race window.
    fn histograms(&self, nets: &[usize], stale: &[bool]) -> Vec<Histogram> {
        let mut rows: [&[u64]; 4] = [&[]; 4];
        (0..self.classes)
            .map(|t| {
                for (i, (slot, &net)) in rows.iter_mut().zip(nets).enumerate() {
                    let held = stale.get(i).copied().unwrap_or(false);
                    *slot = self.class_row(net, if held { 0 } else { t });
                }
                self.joint_counts(&rows[..nets.len()])
            })
            .collect()
    }

    /// Worst-case settled-value bias of one net:
    /// `max_t |P(net = 1 | t) − P(net = 1 | 0)|`, replicating the scalar
    /// oracle's `net_value_bias` term for term.
    pub fn net_value_bias_one(&self, net: usize) -> f64 {
        let denom = f64::from(self.mask_count);
        let p0 = f64::from(self.ones(net, 0)) / denom;
        (0..self.classes)
            .map(|t| (f64::from(self.ones(net, t)) / denom - p0).abs())
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
                self.ones(net, t)
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

    /// The two statistics of a gate's fan-in joint distribution, from one
    /// count of its per-class histograms: the worst-case transient bias
    /// (largest total-variation distance of any class against class 0)
    /// and the class-variance mass `Σ_p Var_t(P(pattern = p | t))`,
    /// replicating the scalar oracle's `gate_joint_bias` and
    /// `gate_class_variance` term for term. Pins listed in `stale` read
    /// their class-0 row (the barrier model).
    pub fn gate_joint_stats(&self, pins: &[usize], stale: &[bool]) -> (f64, f64) {
        let hist = self.histograms(pins, stale);
        let denom = f64::from(self.mask_count);
        let bias = hist[1..]
            .iter()
            .map(|row| {
                (0..MAX_FANIN_PATTERNS)
                    .map(|p| (f64::from(row[p]) - f64::from(hist[0][p])).abs() / denom)
                    .sum::<f64>()
                    / 2.0
            })
            .fold(0.0, f64::max);
        let classes = self.classes as f64;
        let variance = (0..MAX_FANIN_PATTERNS)
            .map(|p| {
                let prob = |row: &Histogram| f64::from(row[p]) / denom;
                let mean = hist.iter().map(prob).sum::<f64>() / classes;
                hist.iter()
                    .map(|row| (prob(row) - mean) * (prob(row) - mean))
                    .sum::<f64>()
                    / classes
            })
            .sum();
        (bias, variance)
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
        for counts in self.histograms(nets, &[]) {
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
                for row in packed.histograms(&pins, &no_stale) {
                    // Complete counts: every (gate, class) row sums to
                    // the mask count.
                    assert_eq!(row.iter().sum::<u32>(), packed.mask_count(), "{scheme}");
                    if scheme == Scheme::Lut {
                        // No masks: each class puts its whole mass on
                        // one pattern.
                        assert_eq!(row.iter().filter(|&&c| c > 0).count(), 1);
                    }
                }
                let (bias, var) = packed.gate_joint_stats(&pins, &no_stale);
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
