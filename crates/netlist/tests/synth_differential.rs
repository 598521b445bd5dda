//! Differential test of the two-level synthesizer's exact core.
//!
//! `synth::prime_implicants_capped` and `synth::greedy_cover` work on
//! bitsets. The reference, in `oracle/`, is the textbook formulation they
//! replaced: Quine–McCluskey merging on hash sets, one round per dash,
//! and a greedy cover that rescans every prime against every uncovered
//! minterm. Both must agree element for element — same primes, same
//! cover, same order — on every on-set and every merge cap, because the
//! netlists of LUT, GLUT, RSM and the sum-of-products fixtures (and so
//! every leakage golden) are built from that order.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbox_netlist::synth::{greedy_cover, prime_implicants_capped, Implicant};

mod oracle;

/// Largest `picks × primes × on-set` product for which the oracle cover
/// runs (a few milliseconds optimized, well under a second unoptimized).
/// Its greedy loop rescans every prime against every uncovered minterm
/// per pick, so low caps on wide dense tables (tens of thousands of
/// primes, a thousand picks) are out of reach; the primes
/// are still compared there, and GLUT's shape (`masked-table` at 12
/// inputs) is compared from cap 5 up.
const ORACLE_COVER_WORK: usize = 1 << 24;

/// On-sets of every shape the synthesizer meets: empty, full, one
/// minterm, sparse, balanced, dense, and XOR-structured ones (parities,
/// a function of the XOR of the two halves, and a GLUT-like
/// `S(a ⊕ b) ⊕ c` over three equal fields).
fn on_sets(rng: &mut SmallRng, n: usize) -> Vec<(&'static str, Vec<u32>)> {
    let size = 1u32 << n;
    let random = |rng: &mut SmallRng, p: f64| -> Vec<u32> {
        (0..size).filter(|_| rng.gen_bool(p)).collect()
    };
    let parity_mask = rng.gen_range(1..size);
    let mut cases = vec![
        ("empty", Vec::new()),
        ("single", vec![rng.gen_range(0..size)]),
        ("sparse", random(rng, 0.08)),
        ("balanced", random(rng, 0.5)),
        ("dense", random(rng, 0.9)),
        (
            "parity",
            (0..size)
                .filter(|t| (t & parity_mask).count_ones() % 2 == 1)
                .collect(),
        ),
    ];
    // The full on-set has every cube as an implicant, which makes the
    // oracle's merging cubic; past 10 inputs it adds seconds and no shape.
    if n <= 10 {
        cases.push(("full", (0..size).collect()));
    }
    // A random function of the XOR of the low and high halves, so cubes
    // line up along XOR structure.
    let half = n / 2;
    let table: Vec<bool> = (0..1u32 << (n - half)).map(|_| rng.gen_bool(0.5)).collect();
    cases.push((
        "xor-halves",
        (0..size)
            .filter(|&t| table[((t ^ (t >> half)) & ((1 << (n - half)) - 1)) as usize])
            .collect(),
    ));
    if n.is_multiple_of(3) {
        let w = n / 3;
        let field = (1u32 << w) - 1;
        let mut sbox: Vec<u32> = (0..=field).collect();
        sbox.shuffle(rng);
        let bit = rng.gen_range(0..w);
        cases.push((
            "masked-table",
            (0..size)
                .filter(|&t| {
                    let (a, b, c) = (t & field, (t >> w) & field, (t >> (2 * w)) & field);
                    ((sbox[(a ^ b) as usize] ^ c) >> bit) & 1 == 1
                })
                .collect(),
        ));
    }
    cases
}

fn check(n: usize, name: &str, on: &[u32], rng: &mut SmallRng) {
    for cap in 0..=n {
        let primes = prime_implicants_capped(on, n, cap);
        let want = oracle::prime_implicants_capped(on, n, cap);
        assert_eq!(primes, want, "primes: n={n} {name} cap={cap}");
        let cover = greedy_cover(on, &primes);
        if cover.len() * primes.len() * on.len() > ORACLE_COVER_WORK {
            continue;
        }
        assert_eq!(
            cover,
            oracle::greedy_cover(on, &primes),
            "cover: n={n} {name} cap={cap}"
        );
        // The cover picks essentials in minterm order and breaks ties
        // toward the last maximal prime, so also feed both sides a
        // shuffled on-set and the primes in reverse.
        let mut shuffled = on.to_vec();
        shuffled.shuffle(rng);
        let reversed: Vec<Implicant> = primes.iter().rev().copied().collect();
        assert_eq!(
            greedy_cover(&shuffled, &reversed),
            oracle::greedy_cover(&shuffled, &reversed),
            "cover of shuffled input: n={n} {name} cap={cap}"
        );
    }
}

/// Compare both sides on every on-set shape of every width in `widths`,
/// each width from its own seed.
fn check_widths(widths: std::ops::RangeInclusive<usize>) {
    for n in widths {
        let mut rng = SmallRng::seed_from_u64(0x5E70_FB17 ^ n as u64);
        for (name, on) in on_sets(&mut rng, n) {
            check(n, name, &on, &mut rng);
        }
    }
}

#[test]
fn bitset_synthesis_matches_the_hash_set_oracle_up_to_10_inputs() {
    check_widths(1..=10);
}

#[test]
fn bitset_synthesis_matches_the_hash_set_oracle_on_11_inputs() {
    check_widths(11..=11);
}

#[test]
fn bitset_synthesis_matches_the_hash_set_oracle_on_12_inputs() {
    check_widths(12..=12);
}

/// Past 12 inputs (up to the 20 a truth table allows) compare sparse
/// tables, where the oracle stays cheap: random minterms alone, and a
/// union of random cubes with up to five dashes anywhere, so merges run
/// on words far apart as well as inside one word.
#[test]
fn bitset_synthesis_matches_the_hash_set_oracle_on_wide_sparse_tables() {
    for (n, density, cubes) in [
        (13, 0.05, 40),
        (16, 0.003, 40),
        (18, 0.0005, 20),
        (20, 0.00005, 20),
    ] {
        let mut rng = SmallRng::seed_from_u64(0x31DE_5A75 ^ n as u64);
        let random: Vec<u32> = (0..1u32 << n).filter(|_| rng.gen_bool(density)).collect();
        check(n, "sparse", &random, &mut rng);
        let mut union: Vec<u32> = Vec::new();
        for _ in 0..cubes {
            let mut free = 0u32;
            for _ in 0..rng.gen_range(0..=5) {
                free |= 1 << rng.gen_range(0..n);
            }
            let value = rng.gen_range(0..1u32 << n) & !free;
            let mut sub = 0u32;
            loop {
                union.push(value | sub);
                sub = sub.wrapping_sub(free) & free;
                if sub == 0 {
                    break;
                }
            }
        }
        union.sort_unstable();
        union.dedup();
        check(n, "cube-union", &union, &mut rng);
    }
}

#[test]
fn duplicate_minterms_change_nothing() {
    let mut rng = SmallRng::seed_from_u64(0xD0_0B1E);
    let on: Vec<u32> = (0..64u32).filter(|_| rng.gen_bool(0.6)).collect();
    let doubled: Vec<u32> = on.iter().chain(&on).copied().collect();
    for cap in 0..=6 {
        let primes = prime_implicants_capped(&doubled, 6, cap);
        assert_eq!(primes, oracle::prime_implicants_capped(&doubled, 6, cap));
        assert_eq!(
            greedy_cover(&doubled, &primes),
            oracle::greedy_cover(&doubled, &primes)
        );
    }
}

/// `greedy_cover` takes minterms of any width, not only the 20 inputs a
/// truth table has: it must not guess a width from the data.
#[test]
fn cover_of_wide_minterms_matches_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x31DE);
    // Random minterms with the top bit set, and a run sharing their top
    // 16 bits.
    let mut on: Vec<u32> = (0..200).map(|_| rng.gen::<u32>() | 1 << 31).collect();
    on.extend((0..20).map(|_| 0x8001_0000u32 | rng.gen_range(0..0x1_0000u32)));
    let mut primes: Vec<Implicant> = on
        .iter()
        .map(|&m| Implicant {
            mask: u32::MAX,
            value: m,
        })
        .collect();
    // Cubes over the top and bottom bits, some covering several minterms.
    primes.extend(on.iter().step_by(7).map(|&m| Implicant {
        mask: 0xffff_0000,
        value: m & 0xffff_0000,
    }));
    let cover = greedy_cover(&on, &primes);
    assert_eq!(cover, oracle::greedy_cover(&on, &primes));
    let reversed: Vec<Implicant> = primes.iter().rev().copied().collect();
    assert_eq!(
        greedy_cover(&on, &reversed),
        oracle::greedy_cover(&on, &reversed)
    );
}
