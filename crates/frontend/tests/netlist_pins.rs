//! Structural pins on every built-in netlist.
//!
//! The leakage goldens notice a change to a scheme's gates only through
//! the power it leaks; these digests notice it directly. Each value is
//! [`sca_frontend::netlist_digest`] of a freshly built netlist, so any
//! drift in the generators or in the two-level synthesizer behind LUT,
//! GLUT, RSM and the sum-of-products fixtures fails here with the
//! netlist's name. A deliberate netlist change must update the pin and
//! every leakage golden with it.

use sbox_circuits::{SboxCircuit, Scheme};
use sbox_netlist::Netlist;
use sca_frontend::{fixtures, netlist_digest};

const SCHEME_PINS: [(Scheme, u64); 7] = [
    (Scheme::Lut, 0x01e0_fdba_4a2c_6915),
    (Scheme::Opt, 0xe0da_e0e1_c12a_e1ae),
    (Scheme::Glut, 0x175d_8d2a_8138_84f5),
    (Scheme::Rsm, 0x2081_ef98_971c_a962),
    (Scheme::RsmRom, 0x2775_57af_5746_195e),
    (Scheme::Isw, 0xc701_2862_5669_5625),
    (Scheme::Ti, 0xd997_1198_9fe2_c15f),
];

fn check(name: &str, netlist: &Netlist, pin: u64) {
    let got = netlist_digest(netlist);
    assert_eq!(
        got,
        pin,
        "{name}: netlist digest {got:#018x} != pinned {pin:#018x} ({} gates)",
        netlist.gates().len()
    );
}

#[test]
fn scheme_netlists_match_their_pins() {
    for (scheme, pin) in SCHEME_PINS {
        check(scheme.label(), SboxCircuit::build(scheme).netlist(), pin);
    }
}

#[test]
fn sop_fixtures_match_their_pins() {
    check(
        "present_layer",
        &fixtures::present_layer(),
        0x1b16_a332_1088_0421,
    );
    check("aes_sbox", &fixtures::aes_sbox(), 0xc065_6c49_2e41_4ea5);
}
