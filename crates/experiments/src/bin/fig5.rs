//! Fig. 5: the two-phase sampling protocol — initial value is a random
//! sharing of (0000)₂, then the final value is applied and 100 samples are
//! captured over 2 ns.

use experiments::CsvSink;
use gatesim::{SamplingConfig, SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_circuits::{SboxCircuit, Scheme};

fn main() {
    let circuit = SboxCircuit::build(Scheme::Glut);
    let sim = Simulator::new(circuit.netlist(), &SimConfig::default());
    let sampling = SamplingConfig::default();
    let mut rng = SmallRng::seed_from_u64(2022);

    let initial = circuit.encoding().encode(0x0, &mut rng);
    let final_inputs = circuit.encoding().encode(0x9, &mut rng);
    println!("Fig. 5 — trace sampling protocol (GLUT shown)");
    println!("phase 1: settle on a random encoding of class 0");
    println!("  inputs: {}", bits(&initial));
    println!(
        "  (unmasked: {:X})",
        circuit.encoding().unmask_input(&initial)
    );
    println!("phase 2: at t = 0 apply a random encoding of the final value");
    println!("  inputs: {}", bits(&final_inputs));
    println!(
        "  (unmasked: {:X})",
        circuit.encoding().unmask_input(&final_inputs)
    );
    println!(
        "capture: {} samples over {} ps ({} GS/s)",
        sampling.samples,
        sampling.window_ps,
        1000.0 / sampling.period_ps()
    );

    // One session for both the trace and the event record: the second
    // run reuses every scratch buffer the first one warmed up. The
    // default configuration adds no measurement noise, so `rng` is not
    // drawn from.
    let mut session = sim.session();
    let mut trace = Vec::new();
    session.capture_into(&initial, &final_inputs, &sampling, &mut rng, &mut trace);
    let record = session.transition(&initial, &final_inputs);
    println!(
        "\nresulting trace: {} switching events, {:.1} fJ, settled after {:.0} ps",
        record.events.len(),
        record.total_energy_fj(),
        record.settle_time_ps()
    );
    println!("power trace (mW), one column per 20 ps sample:");
    let mut csv = CsvSink::new("fig5", ["sample", "power_mw"]);
    for (t, p) in trace.iter().enumerate() {
        if t < 30 {
            let bar = "#".repeat((p * 1.0).min(60.0) as usize);
            println!("  T={t:>3} {p:>8.3} {bar}");
        }
        csv.fields([t.to_string(), format!("{p:.6}")]);
    }
    csv.finish();
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}
