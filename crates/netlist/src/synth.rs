//! Two-level logic synthesis: truth tables → AND/OR/INV netlists.
//!
//! This is the small EDA substrate used by the tabulated S-box generators:
//! a Quine–McCluskey prime-implicant pass followed by a greedy cover, and an
//! emitter that maps the resulting sum-of-products onto the cell library
//! with shared input inverters and shared product terms.
//!
//! # Primes and cover on bitsets
//!
//! A cube is a *dash set* `D` (the free variables) plus the values of the
//! other variables, its *care values*. Round `k` of Quine–McCluskey
//! merging yields exactly the `k`-dash cubes that lie inside the on-set,
//! so [`prime_implicants_capped`] computes each round whole instead of
//! pairing cubes one by one. It keeps one bitset per *live* dash set (one
//! with at least one cube), indexed by the care values packed into
//! `n − k` bits, so a set's bitset halves with every dash; only its
//! nonzero words are stored. A dash set's bitset follows from the one
//! without its lowest dash `i`, which is care bit `i` there:
//!
//! ```text
//! cubes[D](u) = cubes[D ∖ i](u with 0 at bit i) ∧ cubes[D ∖ i](u with 1 at bit i)
//! ```
//!
//! which is a shift, AND and bit gather inside each word for `i < 6` and
//! an AND of two words otherwise. A `k`-dash cube is prime iff `k` is the
//! cap or no live dash set `D ∪ {j}` of round `k + 1` contains it. Only
//! two rounds are held at a time. On wide sparse tables, where most
//! cubes stand alone, a stored word costs about what the hash-set
//! formulation pays per cube; on dense ones it holds 64 cubes.
//!
//! [`greedy_cover`] ranks the on-set once (a bitset with running counts,
//! or a sorted list where that is smaller) and walks each prime's points
//! through it. Essential primes come first, in minterm order. The greedy
//! picks then take the prime with the largest gain (uncovered members),
//! ties going to fewer literals and then to the later prime; gains live
//! in a heap and are recounted only when they reach its top. The results
//! equal the textbook hash-set formulation element for element;
//! `tests/synth_differential.rs` keeps that formulation as its oracle,
//! and `tests/synth_memory.rs` checks that primes and cover together
//! peak below the oracle's prime pass alone.
//!
//! # Example
//!
//! Synthesize a 2-input XOR from its truth table:
//!
//! ```
//! use sbox_netlist::NetlistBuilder;
//! use sbox_netlist::synth::TruthTable;
//!
//! # fn main() -> Result<(), sbox_netlist::NetlistError> {
//! let tt = TruthTable::from_fn(2, 1, |t| u64::from((t ^ (t >> 1)) & 1));
//! let mut b = NetlistBuilder::new("xor_sop");
//! let ins = b.input_bus("x", 2);
//! let outs = tt.synthesize_sop(&mut b, &ins);
//! b.output_bus("y", &outs);
//! let nl = b.finish()?;
//! assert_eq!(nl.truth_table(), vec![0, 1, 1, 0]);
//! # Ok(())
//! # }
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::{NetId, NetlistBuilder};

/// A multi-output boolean function tabulated over all `2^num_inputs` points.
///
/// Entry `t` packs the outputs for the input assignment whose bit `i` is
/// `(t >> i) & 1` (little-endian, matching [`crate::Netlist::evaluate_word`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthTable {
    num_inputs: usize,
    num_outputs: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Build a table by evaluating `f` on every input word.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 20` or `num_outputs > 64`.
    pub fn from_fn(num_inputs: usize, num_outputs: usize, f: impl Fn(u64) -> u64) -> Self {
        assert!(num_inputs <= 20, "truth table too large");
        assert!(num_outputs <= 64);
        let words = (0..1u64 << num_inputs).map(f).collect();
        Self {
            num_inputs,
            num_outputs,
            words,
        }
    }

    /// Wrap an existing table.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != 2^num_inputs`.
    pub fn from_words(num_inputs: usize, num_outputs: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), 1usize << num_inputs);
        assert!(num_outputs <= 64);
        Self {
            num_inputs,
            num_outputs,
            words,
        }
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The packed output word for input word `t`.
    pub fn output(&self, t: u64) -> u64 {
        self.words[t as usize]
    }

    /// Minterms (input words) for which output bit `bit` is 1.
    pub fn on_set(&self, bit: usize) -> Vec<u32> {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| (w >> bit) & 1 == 1)
            .map(|(t, _)| t as u32)
            .collect()
    }

    /// Emit a two-level (SOP) realization of every output into `builder`,
    /// reading the variables from `inputs`; returns one net per output bit.
    ///
    /// Product terms and input inverters are shared across outputs.
    /// Constant-0 / constant-1 outputs are realized as `x0 ∧ ¬x0` /
    /// `x0 ∨ ¬x0` so the result is always a pure gate network.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()` or the table has zero
    /// inputs.
    pub fn synthesize_sop(&self, builder: &mut NetlistBuilder, inputs: &[NetId]) -> Vec<NetId> {
        self.synthesize_sop_with_cap(builder, inputs, self.num_inputs)
    }

    /// Like [`TruthTable::synthesize_sop`] but limiting the
    /// Quine–McCluskey merging to `max_rounds` passes — bounded runtime on
    /// wide tables at the cost of some minimality.
    ///
    /// # Panics
    ///
    /// As for [`TruthTable::synthesize_sop`].
    pub fn synthesize_sop_with_cap(
        &self,
        builder: &mut NetlistBuilder,
        inputs: &[NetId],
        max_rounds: usize,
    ) -> Vec<NetId> {
        assert_eq!(inputs.len(), self.num_inputs);
        assert!(self.num_inputs > 0, "cannot synthesize a 0-input table");
        let mut inverted: Vec<Option<NetId>> = vec![None; inputs.len()];
        let mut product_cache: HashMap<Implicant, NetId> = HashMap::new();
        let mut outs = Vec::with_capacity(self.num_outputs);
        for bit in 0..self.num_outputs {
            let on = self.on_set(bit);
            if on.is_empty() {
                let n0 = literal(builder, inputs, &mut inverted, 0, false);
                let p0 = literal(builder, inputs, &mut inverted, 0, true);
                outs.push(builder.and(&[p0, n0]));
                continue;
            }
            if on.len() == self.words.len() {
                let n0 = literal(builder, inputs, &mut inverted, 0, false);
                let p0 = literal(builder, inputs, &mut inverted, 0, true);
                outs.push(builder.or(&[p0, n0]));
                continue;
            }
            let primes = prime_implicants_capped(&on, self.num_inputs, max_rounds);
            let cover = greedy_cover(&on, &primes);
            let mut terms = Vec::with_capacity(cover.len());
            for imp in cover {
                let net = *product_cache
                    .entry(imp)
                    .or_insert_with(|| emit_product(builder, inputs, &mut inverted, imp));
                terms.push(net);
            }
            outs.push(builder.or(&terms));
        }
        outs
    }
}

/// A cube over the input variables: variable `i` is cared about iff bit `i`
/// of `mask` is set, in which case its required value is bit `i` of `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Implicant {
    /// Care mask (1 = literal present).
    pub mask: u32,
    /// Required values on care positions (don't-care positions are 0).
    pub value: u32,
}

impl Implicant {
    /// Whether the cube contains the given minterm.
    pub fn covers(&self, minterm: u32) -> bool {
        minterm & self.mask == self.value
    }

    /// Number of literals in the cube.
    pub fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Compute all prime implicants of the on-set `minterms` over `num_vars`
/// variables (classic Quine–McCluskey merging).
///
/// # Panics
///
/// Panics if `num_vars > 20` or a minterm is `2^num_vars` or more.
pub fn prime_implicants(minterms: &[u32], num_vars: usize) -> Vec<Implicant> {
    prime_implicants_capped(minterms, num_vars, num_vars)
}

/// Quine–McCluskey merging limited to `max_rounds` passes. The result is a
/// valid implicant set covering exactly the on-set (cubes stop growing
/// after the cap), trading minimality for bounded runtime on wide
/// functions. Cubes come sorted by `(mask, value)`.
///
/// Round `k` of the merging yields exactly the cubes with `k` dashes that
/// lie inside the on-set, so each round is computed whole, one bitset
/// per dash set (see the module docs). A `k`-dash cube is prime when `k`
/// is the cap or no `(k+1)`-dash cube contains it.
///
/// # Panics
///
/// Panics if `num_vars > 20` or a minterm is `2^num_vars` or more.
pub fn prime_implicants_capped(
    minterms: &[u32],
    num_vars: usize,
    max_rounds: usize,
) -> Vec<Implicant> {
    assert!(num_vars <= 20);
    let full_mask = (1u32 << num_vars) - 1;
    assert!(
        minterms.iter().all(|&m| m <= full_mask),
        "minterm outside {num_vars} variables"
    );
    // The live dash sets of the current round, sorted by dash set.
    let on = Cubes::from_values(minterms);
    let mut level: Vec<(u32, Cubes)> = if on.words.is_empty() {
        Vec::new()
    } else {
        vec![(0, on)]
    };
    let mut primes = Vec::new();
    let mut round = 0;
    while !level.is_empty() {
        let mut next: Vec<(u32, Cubes)> = Vec::new();
        if round < max_rounds {
            for (dashes, cubes) in &level {
                // Add each dash below the lowest one, so every larger dash
                // set is built once, from itself minus its lowest dash;
                // all variables below it are cared about, so its place in
                // the care values is its own index.
                for var in 0..(dashes.trailing_zeros() as usize).min(num_vars) {
                    let merged = cubes.merge(var);
                    if !merged.words.is_empty() {
                        next.push((dashes | 1 << var, merged));
                    }
                }
            }
            next.sort_unstable_by_key(|&(dashes, _)| dashes);
        }
        for (dashes, cubes) in &level {
            let care = full_mask & !dashes;
            // Each live dash set one larger, with the place of its extra
            // dash among this set's care variables.
            let grown: Vec<(usize, &Cubes)> = (0..num_vars)
                .filter(|&var| care >> var & 1 == 1)
                .enumerate()
                .filter_map(|(place, var)| {
                    let at = next
                        .binary_search_by_key(&(dashes | 1 << var), |&(d, _)| d)
                        .ok()?;
                    Some((place, &next[at].1))
                })
                .collect();
            for &(index, word) in &cubes.words {
                let covered = grown
                    .iter()
                    .fold(0, |acc, &(place, g)| acc | g.expanded_word(index, place));
                let mut prime = word & !covered;
                while prime != 0 {
                    let at = index * WORD as u32 + prime.trailing_zeros();
                    primes.push(Implicant {
                        mask: care,
                        value: deposit(at, care),
                    });
                    prime &= prime - 1;
                }
            }
        }
        level = next;
        round += 1;
    }
    primes.sort_unstable_by_key(|i| (i.mask, i.value));
    primes
}

/// Select a small cover of `minterms` from `primes`: essential primes first
/// (in minterm order), then repeatedly the prime covering the most
/// uncovered minterms, ties broken toward fewer literals and then toward
/// the later prime. Minterms no prime covers stay uncovered.
///
/// The greedy picks are lazy: a heap holds each prime's gain as last
/// counted, which only overstates it. The top prime is recounted, and is
/// taken if its count still holds; otherwise it goes back with the new
/// count. Memory stays linear in the on-set and the primes.
pub fn greedy_cover(minterms: &[u32], primes: &[Implicant]) -> Vec<Implicant> {
    let on = Ranks::new(minterms);
    // For each on-set minterm, by rank: the one prime covering it, or
    // `SHARED` (several) or `NONE`.
    const NONE: u32 = u32::MAX;
    const SHARED: u32 = u32::MAX - 1;
    let mut sole = vec![NONE; on.len()];
    for (p, prime) in primes.iter().enumerate() {
        on.for_each_member(prime, |r| {
            sole[r] = if sole[r] == NONE { p as u32 } else { SHARED };
        });
    }
    let mut uncovered = vec![true; on.len()];
    let mut left = on.len();
    let mut cover = Vec::new();
    // Take prime `p`; returns how many minterms it newly covered.
    let take = |p: usize, uncovered: &mut [bool]| {
        let mut newly = 0;
        on.for_each_member(&primes[p], |r| {
            newly += usize::from(std::mem::take(&mut uncovered[r]));
        });
        newly
    };
    let gain = |p: usize, uncovered: &[bool]| {
        let mut gain = 0u32;
        on.for_each_member(&primes[p], |r| gain += u32::from(uncovered[r]));
        gain
    };
    // Essential primes: minterms covered by exactly one prime.
    for &m in minterms {
        let r = on.rank(m).expect("every minterm is ranked");
        if uncovered[r] && sole[r] < SHARED {
            let p = sole[r] as usize;
            cover.push(primes[p]);
            left -= take(p, &mut uncovered);
        }
    }
    drop(sole);
    // The heap's order is `max_by_key`'s over `(gain, fewer literals)`,
    // which keeps the last of equal keys: the larger index wins.
    let mut heap: BinaryHeap<(u32, Reverse<u32>, u32)> = (0..primes.len())
        .map(|p| {
            let gain = gain(p, &uncovered);
            (gain, Reverse(primes[p].literal_count()), p as u32)
        })
        .filter(|&(gain, ..)| gain > 0)
        .collect();
    while left > 0 {
        let Some((counted, literals, p)) = heap.pop() else {
            break;
        };
        let now = gain(p as usize, &uncovered);
        if now == counted {
            cover.push(primes[p as usize]);
            left -= take(p as usize, &mut uncovered);
        } else if now > 0 {
            heap.push((now, literals, p));
        }
    }
    cover
}

/// The distinct minterms of an on-set, each ranked by its place in
/// ascending order. A bitset with running counts ranks in constant time;
/// it is used where it takes no more memory than the sorted list.
enum Ranks {
    /// One bit per value up to the largest minterm, and the set bits
    /// before each word.
    Bits { bits: Vec<u64>, before: Vec<u32> },
    /// The minterms, ascending.
    Sorted(Vec<u32>),
}

impl Ranks {
    fn new(minterms: &[u32]) -> Self {
        let mut sorted = minterms.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let words = sorted.last().map_or(0, |&top| top as usize / WORD + 1);
        // A word and its count take 12 bytes, a listed minterm 4.
        if words * 3 > sorted.len() {
            return Self::Sorted(sorted);
        }
        let mut bits = vec![0u64; words];
        for &m in &sorted {
            bits[m as usize / WORD] |= 1 << (m as usize % WORD);
        }
        let mut total = 0;
        let before = bits
            .iter()
            .map(|w| {
                let at = total;
                total += w.count_ones();
                at
            })
            .collect();
        Self::Bits { bits, before }
    }

    fn len(&self) -> usize {
        match self {
            Self::Bits { bits, before } => bits
                .last()
                .map_or(0, |w| (before[bits.len() - 1] + w.count_ones()) as usize),
            Self::Sorted(sorted) => sorted.len(),
        }
    }

    /// The rank of minterm `m`, if it is in the set.
    fn rank(&self, m: u32) -> Option<usize> {
        match self {
            Self::Bits { bits, before } => {
                let (w, b) = (m as usize / WORD, m as usize % WORD);
                let word = *bits.get(w)?;
                (word >> b & 1 == 1)
                    .then(|| (before[w] + (word & ((1 << b) - 1)).count_ones()) as usize)
            }
            Self::Sorted(sorted) => sorted.binary_search(&m).ok(),
        }
    }

    /// Call `f` with the rank of every minterm `prime` covers, in
    /// ascending order.
    fn for_each_member(&self, prime: &Implicant, mut f: impl FnMut(usize)) {
        let top = match self {
            Self::Bits { bits, .. } => (bits.len() * WORD).saturating_sub(1) as u32,
            Self::Sorted(sorted) => sorted.last().copied().unwrap_or(0),
        };
        // Every bit a minterm can have.
        let span = u32::MAX.checked_shr(top.leading_zeros()).unwrap_or(0);
        if self.len() == 0 || prime.value & !(prime.mask & span) != 0 {
            return;
        }
        let free = !prime.mask & span;
        if let Self::Sorted(sorted) = self {
            // Scan the minterms between the cube's least and greatest
            // point when they are fewer than its points.
            let lo = sorted.partition_point(|&m| m < prime.value);
            let hi = sorted.partition_point(|&m| m <= prime.value | free);
            if (hi - lo) as u64 <= 1u64 << free.count_ones() {
                for (r, &m) in sorted.iter().enumerate().take(hi).skip(lo) {
                    if prime.covers(m) {
                        f(r);
                    }
                }
                return;
            }
        }
        let mut sub = 0u32;
        loop {
            if let Some(r) = self.rank(prime.value | sub) {
                f(r);
            }
            sub = sub.wrapping_sub(free) & free;
            if sub == 0 {
                break;
            }
        }
    }
}

/// Bits per bitset word.
const WORD: usize = u64::BITS as usize;

/// Within a word, the bit positions whose index has bit `place` clear.
const LOW_HALF: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// The cubes of one dash set inside the on-set, over the set's care
/// variables only: bit `u` is set iff the cube whose care variables, in
/// ascending order, take the bits of `u` lies inside the on-set. So a
/// `k`-dash set spans `2^(n − k)` bits, and only its nonzero words are
/// stored, ascending by word index.
struct Cubes {
    words: Vec<(u32, u64)>,
}

impl Cubes {
    /// The 0-dash cubes: the minterms themselves.
    fn from_values(values: &[u32]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut words: Vec<(u32, u64)> = Vec::new();
        for v in sorted {
            let (index, bit) = (v / WORD as u32, 1u64 << (v as usize % WORD));
            match words.last_mut() {
                Some((last, word)) if *last == index => *word |= bit,
                _ => words.push((index, bit)),
            }
        }
        Self { words }
    }

    /// The word at `index`, zero if it is not stored.
    fn word(&self, index: u32) -> u64 {
        // Indices are distinct and ascending, so word `index` sits at
        // position `index` or before; a set with no zero word below it
        // has it right there.
        let head = &self.words[..self.words.len().min(index as usize + 1)];
        match head.last() {
            Some(&(last, word)) if last == index => word,
            _ => head
                .binary_search_by_key(&index, |&(i, _)| i)
                .map_or(0, |at| head[at].1),
        }
    }

    /// The cubes with one more dash, at care value bit `place`: a cube
    /// survives iff both settings of that bit lie inside the on-set. The
    /// result drops the bit from its care values.
    fn merge(&self, place: usize) -> Self {
        let mut words: Vec<(u32, u64)> = Vec::new();
        if place < 6 {
            // Each word halves into the low or high half of word
            // `index / 2`.
            for &(index, w) in &self.words {
                let both = pack(w & (w >> (1 << place)) & LOW_HALF[place], place);
                if both == 0 {
                    continue;
                }
                let (to, bits) = (index >> 1, both << (32 * (index & 1)));
                match words.last_mut() {
                    Some((last, word)) if *last == to => *word |= bits,
                    _ => words.push((to, bits)),
                }
            }
        } else {
            let bit = 1 << (place - 6);
            for &(index, w) in &self.words {
                if index & bit == 0 {
                    let both = w & self.word(index | bit);
                    if both != 0 {
                        words.push((remove_bit(index, place - 6), both));
                    }
                }
            }
        }
        Self { words }
    }

    /// Word `index` of the cubes, in the care values of a set with one
    /// dash fewer (bit `place` cared about again), that these cubes
    /// contain: both settings of that bit.
    fn expanded_word(&self, index: u32, place: usize) -> u64 {
        if place < 6 {
            let half = self.word(index >> 1) >> (32 * (index & 1)) & 0xffff_ffff;
            let spread = spread(half, place);
            spread | spread << (1 << place)
        } else {
            self.word(remove_bit(index, place - 6))
        }
    }
}

/// Gather the bits of `x` at positions with bit `place` clear (all others
/// zero) into its low 32 bits, in order.
fn pack(mut x: u64, place: usize) -> u64 {
    for q in place..5 {
        x = (x | x >> (1 << q)) & LOW_HALF[q + 1];
    }
    x
}

/// The inverse of [`pack`]: scatter the low 32 bits of `x` to the
/// positions with bit `place` clear.
fn spread(mut x: u64, place: usize) -> u64 {
    for q in (place..5).rev() {
        x = (x | x << (1 << q)) & LOW_HALF[q];
    }
    x
}

/// `x` with bit `bit` taken out, the bits above it shifted down.
fn remove_bit(x: u32, bit: usize) -> u32 {
    (x & ((1 << bit) - 1)) | ((x >> (bit + 1)) << bit)
}

/// Scatter the low bits of `x`, in order, to the set bits of `mask`.
fn deposit(mut x: u32, mut mask: u32) -> u32 {
    let mut out = 0;
    while mask != 0 {
        if x & 1 == 1 {
            out |= mask & mask.wrapping_neg();
        }
        x >>= 1;
        mask &= mask - 1;
    }
    out
}

/// Build a one-hot `2^n`-line decoder over `inputs`, sharing the complement
/// inverters; line `v` is high iff the input word equals `v`.
///
/// # Panics
///
/// Panics if `inputs` is empty or longer than 8.
pub fn decoder(builder: &mut NetlistBuilder, inputs: &[NetId]) -> Vec<NetId> {
    assert!(!inputs.is_empty() && inputs.len() <= 8);
    let complements: Vec<NetId> = inputs.iter().map(|&n| builder.not(n)).collect();
    (0..1u32 << inputs.len())
        .map(|v| {
            let literals: Vec<NetId> = inputs
                .iter()
                .enumerate()
                .map(|(i, &n)| if (v >> i) & 1 == 1 { n } else { complements[i] })
                .collect();
            builder.and(&literals)
        })
        .collect()
}

fn literal(
    builder: &mut NetlistBuilder,
    inputs: &[NetId],
    inverted: &mut [Option<NetId>],
    var: usize,
    positive: bool,
) -> NetId {
    if positive {
        inputs[var]
    } else {
        *inverted[var].get_or_insert_with(|| builder.not(inputs[var]))
    }
}

fn emit_product(
    builder: &mut NetlistBuilder,
    inputs: &[NetId],
    inverted: &mut [Option<NetId>],
    imp: Implicant,
) -> NetId {
    let lits: Vec<NetId> = (0..inputs.len())
        .filter(|&i| (imp.mask >> i) & 1 == 1)
        .map(|i| literal(builder, inputs, inverted, i, (imp.value >> i) & 1 == 1))
        .collect();
    builder.and(&lits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_synthesis(num_inputs: usize, num_outputs: usize, f: impl Fn(u64) -> u64 + Copy) {
        let tt = TruthTable::from_fn(num_inputs, num_outputs, f);
        let mut b = NetlistBuilder::new("sop");
        let ins = b.input_bus("x", num_inputs);
        let outs = tt.synthesize_sop(&mut b, &ins);
        b.output_bus("y", &outs);
        let nl = b.finish().expect("valid synthesis");
        for t in 0..1u64 << num_inputs {
            assert_eq!(nl.evaluate_word(t), f(t), "t={t}");
        }
    }

    #[test]
    fn synthesizes_xor_majority_parity() {
        check_synthesis(2, 1, |t| (t ^ (t >> 1)) & 1);
        check_synthesis(3, 1, |t| {
            u64::from((t & 1) + ((t >> 1) & 1) + ((t >> 2) & 1) >= 2)
        });
        check_synthesis(5, 1, |t| u64::from(t.count_ones() & 1));
    }

    #[test]
    fn synthesizes_constants() {
        check_synthesis(3, 2, |_| 0b01);
    }

    #[test]
    fn synthesizes_multi_output_adder() {
        check_synthesis(4, 3, |t| {
            let a = t & 3;
            let b = (t >> 2) & 3;
            a + b
        });
    }

    #[test]
    fn prime_implicants_of_textbook_example() {
        // f(w,x,y,z) = Σ m(4,8,10,11,12,15), the classic QM worked example:
        // primes are 8-9-10-11? (no 9) — use the known result for
        // minterms {4,8,10,11,12,15}: primes m(4,12)=-100, m(8,10)=10-0,
        // m(8,12)=1-00, m(10,11)=101-, m(11,15)=1-11.
        let primes = prime_implicants(&[4, 8, 10, 11, 12, 15], 4);
        assert_eq!(primes.len(), 5);
        for p in &primes {
            for m in [4u32, 8, 10, 11, 12, 15] {
                if p.covers(m) {
                    continue;
                }
            }
            // Every prime must cover only on-set minterms.
            for t in 0u32..16 {
                if p.covers(t) {
                    assert!([4, 8, 10, 11, 12, 15].contains(&t), "{p:?} covers {t}");
                }
            }
        }
    }

    #[test]
    fn cover_is_complete_and_sound() {
        let on = [1u32, 2, 5, 6, 9, 13, 14];
        let primes = prime_implicants(&on, 4);
        let cover = greedy_cover(&on, &primes);
        for &m in &on {
            assert!(cover.iter().any(|p| p.covers(m)), "minterm {m} uncovered");
        }
        for t in 0u32..16 {
            if cover.iter().any(|p| p.covers(t)) {
                assert!(on.contains(&t), "off-set minterm {t} covered");
            }
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("dec");
        let ins = b.input_bus("x", 3);
        let lines = decoder(&mut b, &ins);
        b.output_bus("d", &lines);
        let nl = b.finish().expect("valid");
        for t in 0u64..8 {
            assert_eq!(nl.evaluate_word(t), 1 << t);
        }
    }

    #[test]
    fn sop_shares_products_across_outputs() {
        // Two identical outputs must not double the AND count.
        let tt = TruthTable::from_fn(3, 2, |t| {
            let f = u64::from(t == 3 || t == 7);
            f | (f << 1)
        });
        let mut b = NetlistBuilder::new("share");
        let ins = b.input_bus("x", 3);
        let outs = tt.synthesize_sop(&mut b, &ins);
        b.output_bus("y", &outs);
        let nl = b.finish().expect("valid");
        let ands = nl.stats().family_count("AND");
        assert_eq!(ands, 1, "product term should be shared");
    }
}
