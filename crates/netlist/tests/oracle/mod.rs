//! The textbook two-level synthesis core that `synth` replaced, kept as
//! the oracle of the synthesizer's tests: Quine–McCluskey merging on hash
//! sets, one round per dash, and a greedy cover that rescans every prime
//! against every uncovered minterm.

// Each test binary uses part of the oracle.
#![allow(dead_code)]

use std::collections::{HashMap, HashSet};

use sbox_netlist::synth::Implicant;

/// Quine–McCluskey merging limited to `max_rounds` passes; cubes still
/// alive after the cap are emitted as they are.
pub fn prime_implicants_capped(
    minterms: &[u32],
    num_vars: usize,
    max_rounds: usize,
) -> Vec<Implicant> {
    let full_mask = (1u32 << num_vars) - 1;
    let mut current: HashSet<Implicant> = minterms
        .iter()
        .map(|&m| Implicant {
            mask: full_mask,
            value: m,
        })
        .collect();
    let mut primes: Vec<Implicant> = Vec::new();
    let mut rounds = 0usize;
    while !current.is_empty() {
        if rounds >= max_rounds {
            primes.extend(current.iter());
            break;
        }
        rounds += 1;
        let mut merged: HashSet<Implicant> = HashSet::new();
        let mut used: HashSet<Implicant> = HashSet::new();
        // Group by (mask, popcount of value) so candidate pairs differ
        // in exactly one care bit.
        let mut groups: HashMap<(u32, u32), Vec<Implicant>> = HashMap::new();
        for imp in &current {
            groups
                .entry((imp.mask, imp.value.count_ones()))
                .or_default()
                .push(*imp);
        }
        for (&(mask, ones), group) in &groups {
            if let Some(next) = groups.get(&(mask, ones + 1)) {
                for a in group {
                    for b in next {
                        let diff = a.value ^ b.value;
                        if diff.count_ones() == 1 {
                            used.insert(*a);
                            used.insert(*b);
                            merged.insert(Implicant {
                                mask: mask & !diff,
                                value: a.value & !diff,
                            });
                        }
                    }
                }
            }
        }
        primes.extend(current.iter().filter(|i| !used.contains(i)));
        current = merged;
    }
    primes.sort_by_key(|i| (i.mask, i.value));
    primes
}

/// Essential primes first, then repeatedly the prime covering the
/// most uncovered minterms (ties toward fewer literals).
pub fn greedy_cover(minterms: &[u32], primes: &[Implicant]) -> Vec<Implicant> {
    let mut uncovered: HashSet<u32> = minterms.iter().copied().collect();
    let mut cover = Vec::new();
    for &m in minterms {
        let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(m)).collect();
        if covering.len() == 1 && uncovered.contains(&m) {
            let p = *covering[0];
            if !cover.contains(&p) {
                cover.push(p);
                uncovered.retain(|&x| !p.covers(x));
            }
        }
    }
    while !uncovered.is_empty() {
        let best = primes
            .iter()
            .map(|p| {
                let gain = uncovered.iter().filter(|&&m| p.covers(m)).count();
                (gain, std::cmp::Reverse(p.literal_count()), *p)
            })
            .max_by_key(|&(gain, lits, _)| (gain, lits))
            .map(|(_, _, p)| p)
            .expect("primes cover all minterms");
        cover.push(best);
        uncovered.retain(|&m| !best.covers(m));
    }
    cover
}
