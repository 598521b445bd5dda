//! VCD (Value Change Dump) export of simulated transitions, viewable in
//! GTKWave or any waveform browser.

use std::fmt::Write as _;

use sbox_netlist::Netlist;

use crate::TransitionRecord;

/// Render one simulated transition as a VCD document.
///
/// The dump starts at the settled *initial* state (reconstructed by
/// rolling the recorded events back from the settled final state) and
/// replays every full output transition at its event time; absorbed
/// glitches are not value changes and are omitted. Primary-input changes
/// appear at t = 0.
pub fn to_vcd(
    netlist: &Netlist,
    initial_inputs: &[bool],
    record: &TransitionRecord,
    timescale_ps: u32,
) -> String {
    assert_eq!(initial_inputs.len(), netlist.num_inputs());
    let initial = netlist.evaluate_nets(initial_inputs);
    let mut out = String::new();
    let _ = writeln!(out, "$date generated by gatesim $end");
    let _ = writeln!(out, "$timescale {timescale_ps}ps $end");
    let _ = writeln!(out, "$scope module {} $end", sanitize(netlist.name()));
    // One VCD identifier per net.
    let ident = |i: usize| vcd_identifier(i);
    for (i, net) in netlist.nets().iter().enumerate() {
        let name = net.name().map(sanitize).unwrap_or_else(|| format!("n{i}"));
        let _ = writeln!(out, "$var wire 1 {} {} $end", ident(i), name);
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    let _ = writeln!(out, "#0");
    let _ = writeln!(out, "$dumpvars");
    for (i, &v) in initial.iter().enumerate() {
        let _ = writeln!(out, "{}{}", u8::from(v), ident(i));
    }
    let _ = writeln!(out, "$end");

    // Primary-input switch at t=0.
    let final_in: Vec<bool> = netlist
        .inputs()
        .iter()
        .map(|n| record.settled[n.index()])
        .collect();
    let mut time_cursor = None;
    for (net, &v) in netlist.inputs().iter().zip(&final_in) {
        if initial[net.index()] != v {
            if time_cursor != Some(0u64) {
                let _ = writeln!(out, "#0");
                time_cursor = Some(0);
            }
            let _ = writeln!(out, "{}{}", u8::from(v), ident(net.index()));
        }
    }
    for e in record.events.iter().filter(|e| !e.absorbed) {
        let ticks = (e.time_ps / f64::from(timescale_ps)).round() as u64;
        if time_cursor != Some(ticks) {
            let _ = writeln!(out, "#{ticks}");
            time_cursor = Some(ticks);
        }
        let net = netlist.gate(e.gate).output();
        let _ = writeln!(out, "{}{}", u8::from(e.rising), ident(net.index()));
    }
    out
}

fn vcd_identifier(mut i: usize) -> String {
    // Printable ASCII 33..=126, base-94 encoding.
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use sbox_netlist::NetlistBuilder;

    #[test]
    fn vcd_contains_headers_and_changes() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(
            &nl,
            &SimConfig {
                process_sigma: 0.0,
                ..SimConfig::default()
            },
        );
        let rec = sim.session().transition(&[false], &[true]);
        let vcd = to_vcd(&nl, &[false], &rec, 1);
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$dumpvars"));
        // Two inverter events at 6 and 12 ps.
        assert!(vcd.contains("#6"), "{vcd}");
        assert!(vcd.contains("#12"));
    }

    #[test]
    fn identifiers_are_unique_and_printable() {
        let ids: Vec<String> = (0..500).map(vcd_identifier).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids
            .iter()
            .all(|s| s.bytes().all(|b| (33..=126).contains(&b))));
    }
}
