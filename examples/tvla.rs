//! Fixed-vs-random TVLA (Welch t-test) across all seven implementations —
//! the conventional leakage assessment the paper's spectral method
//! refines.
//!
//! Traces never accumulate in memory: each capture is rendered into one
//! reused buffer and folded straight into an online moment
//! accumulator per group, so the t-statistics come from
//! [`welch_t_from_moments`] at a constant memory footprint.
//!
//! ```sh
//! cargo run --release --example tvla
//! ```

use gatesim::{SamplingConfig, SimConfig, Simulator};
use leakage_core::online::ClassAccumulator;
use leakage_core::ttest::{max_abs_t, welch_t_from_moments, TVLA_THRESHOLD};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x7714);
    let sampling = SamplingConfig::default();
    println!("fixed-vs-random TVLA, 512 traces per group, |t| threshold {TVLA_THRESHOLD}");
    println!("{:9} {:>10} {:>8}", "scheme", "max |t|", "verdict");
    for scheme in Scheme::ALL {
        let circuit = SboxCircuit::build(scheme);
        let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
        // One reused capture session and trace buffer per scheme: no
        // per-trace allocation.
        let mut session = sim.session();
        let mut trace = Vec::new();
        let fixed_class = 0x3u8;
        let mut fixed = ClassAccumulator::new(sampling.samples);
        let mut random = ClassAccumulator::new(sampling.samples);
        for i in 0..1024u32 {
            let initial = circuit.encoding().encode(0, &mut rng);
            let (class, group) = if i % 2 == 0 {
                (fixed_class, &mut fixed)
            } else {
                ((i / 2 % 16) as u8, &mut random)
            };
            let fin = circuit.encoding().encode(class, &mut rng);
            session.capture_into(&initial, &fin, &sampling, &mut rng, &mut trace);
            group.fold(&trace);
        }
        let t = max_abs_t(&welch_t_from_moments(&fixed, &random));
        let verdict = if t > TVLA_THRESHOLD { "LEAKS" } else { "pass" };
        println!("{:9} {:>10.2} {:>8}", scheme.label(), t, verdict);
    }
    println!("\nTVLA says *whether* a design leaks; the Walsh–Hadamard decomposition");
    println!("says *which bit combinations* leak and *how much* — run the fig4/fig6");
    println!("experiments for that view.");
}
