//! Share-domain taint: which shares and which fresh randomness reach
//! each net.
//!
//! Primary inputs are labelled with their [`InputRole`]
//! (share *s* of secret bit *b*, or fresh randomness); the labels
//! propagate through the gate graph as *cone taint* — net `n` is tainted
//! by every label in its glitch-extended input cone. Because the
//! netlists are combinational with ≤ 64 primary inputs, the whole map
//! reduces to one [`sbox_netlist::cone::input_support_masks`] pass plus
//! a per-net mask intersection.
//!
//! The taint bitset is a [`ShareSet`] — one 64-bit word per share index
//! — so a subject may carry up to 64 secret bits (a full PRESENT layer)
//! at up to [`MAX_SHARES`] shares each.

use sbox_circuits::InputRole;
use sbox_netlist::{cone, NetId};

use crate::subject::Subject;

/// Maximum shares per secret bit the taint bitset supports.
pub const MAX_SHARES: usize = 4;

/// A set of (secret bit, share) labels: `words[s]` bit `b` is set iff
/// share `s` of secret bit `b` is present.
pub type ShareSet = [u64; MAX_SHARES];

/// Union of two share sets.
#[must_use]
pub fn share_union(a: ShareSet, b: ShareSet) -> ShareSet {
    let mut out = a;
    for (o, w) in out.iter_mut().zip(b) {
        *o |= w;
    }
    out
}

/// Per-net share/randomness taint for one subject.
#[derive(Debug, Clone)]
pub struct TaintMap {
    shares_per_bit: u8,
    secret_bits: usize,
    /// Per net: the share labels in the net's input cone.
    shares: Vec<ShareSet>,
    /// Per net: bit `i` set iff *fresh* primary input `i` (by input
    /// position) is in the net's input cone.
    fresh: Vec<u64>,
}

impl TaintMap {
    /// Label the subject's inputs with its roles and propagate.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 primary inputs (the cone
    /// support pass is a 64-bit bitset); [`Subject`] construction already
    /// validates role coverage.
    pub fn build(subject: &Subject) -> Self {
        let netlist = subject.netlist();
        let roles = subject.roles();
        let support = cone::input_support_masks(netlist);
        // Per primary-input position: its share label / fresh flag.
        let mut share_of_input = vec![[0u64; MAX_SHARES]; roles.len()];
        let mut fresh_of_input = vec![0u64; roles.len()];
        for (i, role) in roles.iter().enumerate() {
            match *role {
                InputRole::Share { bit, share } => {
                    share_of_input[i][usize::from(share)] |= 1 << bit;
                }
                InputRole::Fresh => fresh_of_input[i] = 1 << i,
            }
        }
        let shares = support
            .iter()
            .map(|&m| {
                share_of_input
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| m >> i & 1 == 1)
                    .fold([0u64; MAX_SHARES], |acc, (_, &s)| share_union(acc, s))
            })
            .collect();
        let fresh = support
            .iter()
            .map(|&m| {
                fresh_of_input
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| m >> i & 1 == 1)
                    .fold(0, |acc, (_, &f)| acc | f)
            })
            .collect();
        Self {
            shares_per_bit: subject.shares_per_bit(),
            secret_bits: subject.secret_bits(),
            shares,
            fresh,
        }
    }

    /// How many shares jointly encode each secret bit in this subject.
    pub fn shares_per_bit(&self) -> u8 {
        self.shares_per_bit
    }

    /// Number of secret bits tracked.
    pub fn secret_bits(&self) -> usize {
        self.secret_bits
    }

    /// The share-taint set of a net.
    pub fn shares(&self, net: NetId) -> ShareSet {
        self.shares[net.index()]
    }

    /// The fresh-randomness taint of a net (bit = fresh input position).
    pub fn fresh(&self, net: NetId) -> u64 {
        self.fresh[net.index()]
    }

    /// Secret bits whose shares are *all* present in the given combined
    /// share taint, as a bitmask over secret bits.
    pub fn fully_covered_bits(&self, taint: ShareSet) -> u64 {
        taint
            .iter()
            .take(usize::from(self.shares_per_bit))
            .fold(u64::MAX, |acc, &w| acc & w)
            & mask_bits(self.secret_bits)
    }

    /// Largest share-coverage fraction over the secret bits for a
    /// combined share taint: 1.0 means some bit's shares are all present.
    pub fn max_coverage(&self, taint: ShareSet) -> f64 {
        (0..self.secret_bits)
            .map(|b| {
                let present = taint
                    .iter()
                    .take(usize::from(self.shares_per_bit))
                    .filter(|&&w| w >> b & 1 == 1)
                    .count() as u32;
                f64::from(present) / f64::from(self.shares_per_bit)
            })
            .fold(0.0, f64::max)
    }

    /// The distinct share *indices* (domains) present in a net's taint,
    /// regardless of which bit they belong to — the DOM notion of the
    /// domains a wire touches.
    pub fn domains(&self, net: NetId) -> u8 {
        self.shares[net.index()]
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .fold(0u8, |acc, (s, _)| acc | (1 << s))
    }
}

fn mask_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbox_circuits::{SboxCircuit, Scheme};

    #[test]
    fn isw_refresh_is_fresh_and_shares_split() {
        let c = SboxCircuit::build(Scheme::Isw);
        let subject = Subject::of_circuit(&c);
        let taint = TaintMap::build(&subject);
        // Inputs 0..4 are share 0, 4..8 share 1, 8..12 fresh.
        let nets = c.netlist().inputs();
        for b in 0..4usize {
            let mut s0 = [0u64; MAX_SHARES];
            s0[0] = 1 << b;
            let mut s1 = [0u64; MAX_SHARES];
            s1[1] = 1 << b;
            assert_eq!(taint.shares(nets[b]), s0);
            assert_eq!(taint.shares(nets[4 + b]), s1);
            assert_eq!(taint.shares(nets[8 + b]), [0; MAX_SHARES]);
            assert_ne!(taint.fresh(nets[8 + b]), 0);
        }
    }

    #[test]
    fn coverage_and_domains_on_ti() {
        let c = SboxCircuit::build(Scheme::Ti);
        let subject = Subject::of_circuit(&c);
        let taint = TaintMap::build(&subject);
        assert_eq!(taint.shares_per_bit(), 4);
        // Non-completeness: no single output share's cone covers all
        // four shares of any bit.
        for (_, net) in c.netlist().outputs() {
            assert_eq!(taint.fully_covered_bits(taint.shares(*net)), 0);
            assert!(taint.max_coverage(taint.shares(*net)) <= 0.75);
        }
        // But the union over one output bit's four shares does.
        let groups = c.encoding().output_share_groups();
        let union = groups[0]
            .iter()
            .map(|&p| taint.shares(c.netlist().outputs()[p].1))
            .fold([0u64; MAX_SHARES], share_union);
        assert_ne!(taint.fully_covered_bits(union), 0);
    }

    #[test]
    fn unprotected_bits_are_their_own_cover() {
        let c = SboxCircuit::build(Scheme::Lut);
        let subject = Subject::of_circuit(&c);
        let taint = TaintMap::build(&subject);
        let (_, y0) = &c.netlist().outputs()[0];
        assert_ne!(taint.fully_covered_bits(taint.shares(*y0)), 0);
        assert_eq!(taint.fresh(*y0), 0);
    }
}
