//! Simulate the full 64-bit PRESENT round-1 datapath (add-round-key +
//! 16 S-boxes + pLayer) and dump the switching activity as a VCD waveform
//! for GTKWave.
//!
//! ```sh
//! cargo run --release --example round1_waveform
//! ```

use std::fs;

use gatesim::{vcd, SamplingConfig, SimConfig, Simulator};
use present_cipher::Present80;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::round1::{build_round_one, RoundSboxStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = build_round_one(RoundSboxStyle::Opt);
    println!(
        "round-1 datapath: {} gates, critical path {} gates ({:.0} ps)",
        netlist.gates().len(),
        netlist.critical_path_gates(),
        netlist.critical_path_ps()
    );

    let cipher = Present80::new([0x42; 10]);
    let k1 = cipher.round_keys()[0];
    let bits = |word: u64| (0..64).map(move |i| (word >> i) & 1 == 1);
    let stimulus = |p: u64| -> Vec<bool> { bits(p).chain(bits(k1)).collect() };

    let sim = Simulator::new(&netlist, &SimConfig::default());
    let initial = stimulus(k1); // S-box inputs all zero, the protocol's class 0
    let final_inputs = stimulus(0x0123_4567_89AB_CDEF);
    let mut session = sim.session();
    let record = session.transition(&initial, &final_inputs);
    println!(
        "transition: {} events, {:.1} pJ, settled after {:.0} ps",
        record.events.len(),
        record.total_energy_fj() / 1000.0,
        record.settle_time_ps()
    );

    // The default configuration adds no noise; the generator is unused.
    let mut noise = SmallRng::seed_from_u64(0);
    let mut trace = Vec::new();
    let sampling = SamplingConfig::default();
    session.capture_into(&initial, &final_inputs, &sampling, &mut noise, &mut trace);
    let peak = trace.iter().cloned().fold(0.0, f64::max);
    println!("peak supply power {peak:.1} mW across the 2 ns window");

    fs::create_dir_all("target/waves")?;
    let path = "target/waves/round1.vcd";
    fs::write(path, vcd::to_vcd(&netlist, &initial, &record, 1))?;
    println!("wrote {path} — open with `gtkwave {path}`");
    Ok(())
}
