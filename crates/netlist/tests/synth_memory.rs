//! Transient heap of the synthesizer's core against the hash-set oracle.
//!
//! `synth::prime_implicants_capped` keeps one bitset per live dash set,
//! over that set's care values only and with zero words left out, and
//! `synth::greedy_cover` keeps a few words per minterm and prime. This
//! test counts every heap byte and checks that primes plus cover peak
//! below the oracle's prime pass alone, which is a lower bound of the
//! oracle's whole synthesis, on wide tables of every density.
//!
//! A counting allocator sees every thread, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbox_netlist::synth::{greedy_cover, prime_implicants_capped};

mod oracle;

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap bytes `f` holds above what was live before it, its result
/// included.
fn peak_bytes<R>(f: impl FnOnce() -> R) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    let peak = PEAK.load(Relaxed) - base;
    drop(out);
    peak
}

#[test]
fn primes_and_cover_peak_below_the_oracle_prime_pass() {
    let mut rng = SmallRng::seed_from_u64(0x3E3_0A7C);
    // (inputs, on-set density, merge cap): sparse tables are where one
    // bitset per dash set costs most against a set of cubes.
    let cases: &[(usize, f64, usize)] = &[
        (13, 0.5, 13),
        (14, 0.08, 14),
        (14, 0.9, 3),
        (16, 0.0001, 16),
        (16, 0.003, 16),
        (16, 0.02, 16),
        (16, 0.08, 16),
        (16, 0.5, 2),
        (16, 0.9, 1),
        (18, 0.0001, 18),
        (18, 0.08, 18),
        (20, 0.00002, 20),
    ];
    let random = cases.iter().map(|&(n, density, cap)| {
        let on: Vec<u32> = (0..1u32 << n).filter(|_| rng.gen_bool(density)).collect();
        (n, format!("density {density}"), on, cap)
    });
    // Odd parity: every minterm is a prime of its own.
    let parity = (
        16,
        "parity".to_string(),
        (0..1u32 << 16)
            .filter(|t| t.count_ones() % 2 == 1)
            .collect(),
        16,
    );
    for (n, shape, on, cap) in random.chain([parity]) {
        let ours = peak_bytes(|| {
            let primes = prime_implicants_capped(&on, n, cap);
            let cover = greedy_cover(&on, &primes);
            (primes, cover)
        });
        let theirs = peak_bytes(|| oracle::prime_implicants_capped(&on, n, cap));
        assert!(
            ours < theirs,
            "n={n} {shape} cap={cap}: {ours} B against the oracle's {theirs} B"
        );
    }
}
