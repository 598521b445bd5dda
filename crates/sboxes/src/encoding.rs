//! Stimulus encodings: class value + mask randomness → primary inputs.
//!
//! A scheme's masking contract is one table: the [`InputRole`] of each
//! primary input. [`RoleCodec`] derives everything else from that table
//! — the mask-bit layout, the encoder and the input unmasker — for the
//! seven native schemes ([`InputEncoding`]) and for any other role list
//! (imported, patched or hand-written subjects in `sca-verify`).

use std::sync::LazyLock;

use rand::Rng;

use crate::Scheme;

/// The security role one primary input plays in a scheme's masking
/// contract.
///
/// This is the ground truth a share-domain dataflow analysis (the
/// `sca-verify` crate) starts from: which wires carry shares of which
/// secret bit, and which carry *fresh* randomness that never reaches the
/// unmasked value on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputRole {
    /// Share `share` of secret nibble bit `bit`: the XOR of all shares of
    /// `bit` equals the unmasked bit. Unprotected schemes expose the bit
    /// as its own single share.
    Share {
        /// Which nibble bit (0..4) this input helps encode.
        bit: u8,
        /// Which share (0..[`InputEncoding::shares_per_bit`]) it is.
        share: u8,
    },
    /// Fresh uniform randomness that is *not* a share of any input bit:
    /// GLUT's output mask `MO`, ISW's gadget refresh `r`.
    Fresh,
}

/// The stimulus codec of a role list: which input carries which mask
/// bit, how a class and a mask word become primary-input values, and how
/// those values unmask back to the class.
///
/// The rule: share 0 of each secret bit closes the XOR of that bit's
/// other shares; every other share, and every `Fresh` port, takes the
/// next mask bit in port order. Appending ports therefore only appends
/// mask bits — an encoding under the old mask word is unchanged. Each
/// input is thus the parity of a fixed set of class and mask bits, its
/// [`RoleCodec::input_form`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleCodec {
    roles: Vec<InputRole>,
    mask_of: Vec<Option<usize>>,
    /// Per input, its [`RoleCodec::input_form`].
    forms: Vec<(u64, u64)>,
    secret_bits: usize,
    shares_per_bit: u8,
    mask_bits: usize,
}

impl RoleCodec {
    /// Validate a role list (one role per primary input, in port order)
    /// and derive its mask layout.
    ///
    /// # Errors
    ///
    /// Returns a description when the roles are malformed: a secret bit
    /// without a closing share 0 (shares must be `0..n` once each),
    /// uneven share counts across bits, more than 64 secret bits, or no
    /// secret bit at all.
    pub fn new(roles: Vec<InputRole>) -> Result<Self, String> {
        let secret_bits = roles
            .iter()
            .filter_map(|r| match r {
                InputRole::Share { bit, .. } => Some(usize::from(*bit) + 1),
                InputRole::Fresh => None,
            })
            .max()
            .unwrap_or(0);
        if secret_bits > 64 {
            return Err(format!(
                "{secret_bits} secret bits exceed the 64-bit taint budget"
            ));
        }
        let mut shares_per_bit = 0u8;
        for bit in 0..secret_bits {
            let mut shares: Vec<u8> = roles
                .iter()
                .filter_map(|r| match r {
                    InputRole::Share { bit: b, share } if usize::from(*b) == bit => Some(*share),
                    _ => None,
                })
                .collect();
            shares.sort_unstable();
            if !shares.iter().enumerate().all(|(i, &s)| usize::from(s) == i) {
                return Err(format!(
                    "secret bit {bit}: shares must be 0..n once each, got {shares:?}"
                ));
            }
            let k = shares.len() as u8;
            if bit == 0 {
                shares_per_bit = k;
            } else if shares_per_bit != k {
                return Err(format!(
                    "secret bit {bit} has {k} shares, earlier bits have {shares_per_bit}"
                ));
            }
        }
        if shares_per_bit == 0 {
            return Err("subject carries no secret bits".to_string());
        }
        let mut mask_bits = 0;
        let mask_of: Vec<Option<usize>> = roles
            .iter()
            .map(|r| match r {
                InputRole::Share { share: 0, .. } => None,
                _ => {
                    mask_bits += 1;
                    Some(mask_bits - 1)
                }
            })
            .collect();
        let select = |slot: Option<usize>| slot.filter(|&j| j < 64).map_or(0, |j| 1u64 << j);
        // The mask bits of each secret bit's shares, which its closing
        // share 0 XORs away.
        let mut others = vec![0u64; secret_bits];
        for (role, &slot) in roles.iter().zip(&mask_of) {
            if let InputRole::Share { bit, .. } = role {
                others[usize::from(*bit)] |= select(slot);
            }
        }
        let forms = roles
            .iter()
            .zip(&mask_of)
            .map(|(role, &slot)| match role {
                InputRole::Share { bit, share: 0 } => (1 << bit, others[usize::from(*bit)]),
                _ => (0, select(slot)),
            })
            .collect();
        Ok(Self {
            roles,
            mask_of,
            forms,
            secret_bits,
            shares_per_bit,
            mask_bits,
        })
    }

    /// Per-input roles, in port order.
    pub fn roles(&self) -> &[InputRole] {
        &self.roles
    }

    /// Number of secret bits the inputs jointly encode.
    pub fn secret_bits(&self) -> usize {
        self.secret_bits
    }

    /// Shares per secret bit (1 for unprotected inputs).
    pub fn shares_per_bit(&self) -> u8 {
        self.shares_per_bit
    }

    /// Total mask-word width in bits.
    pub fn mask_bits(&self) -> usize {
        self.mask_bits
    }

    /// Mask-bit index of each input port, in port order: `None` for a
    /// closing share 0, consecutive bits for every other port.
    pub fn mask_bit_of_input(&self) -> &[Option<usize>] {
        &self.mask_of
    }

    /// The linear form of input `port`: it carries the parity of the
    /// class bits and the mask bits (below 64) this pair selects. A
    /// closing share 0 selects its secret bit and the mask bits of that
    /// bit's other shares; every other port selects its own mask bit.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn input_form(&self, port: usize) -> (u64, u64) {
        self.forms[port]
    }

    /// Encode class `t` under mask word `mask` onto the primary inputs.
    /// Class bits from [`RoleCodec::secret_bits`] up are ignored; mask
    /// bits at index 64 and above read as zero.
    pub fn encode(&self, t: u64, mask: u64) -> Vec<bool> {
        self.forms
            .iter()
            .map(|&(class, masks)| ((t & class) ^ (mask & masks)).count_ones() & 1 == 1)
            .collect()
    }

    /// Recover the class a primary-input assignment encodes: the XOR of
    /// each secret bit's shares.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length.
    pub fn unmask(&self, inputs: &[bool]) -> u64 {
        assert_eq!(inputs.len(), self.roles.len(), "one value per input");
        self.roles
            .iter()
            .zip(inputs)
            .fold(0, |acc, (role, &v)| match role {
                InputRole::Share { bit, .. } => acc ^ u64::from(v) << bit,
                InputRole::Fresh => acc,
            })
    }
}

/// Shorthand for the role tables below.
const fn sh(bit: u8, share: u8) -> InputRole {
    InputRole::Share { bit, share }
}

const FRESH: InputRole = InputRole::Fresh;

/// LUT, OPT: x0..x3, each bit its own (only) share.
static UNMASKED: [InputRole; 4] = [sh(0, 0), sh(1, 0), sh(2, 0), sh(3, 0)];

/// RSM, RSM-ROM: `A = t ^ MI`, then `MI`. The output mask `(MI+1)%16` is
/// *derived*, not fresh — there is no third field.
#[rustfmt::skip]
static TWO_SHARES: [InputRole; 8] = [
    sh(0, 0), sh(1, 0), sh(2, 0), sh(3, 0),
    sh(0, 1), sh(1, 1), sh(2, 1), sh(3, 1),
];

/// GLUT: `A = t ^ MI`, `MI`, then the fresh output mask `MO`. ISW:
/// `xa = t ^ m`, `m`, then the per-gadget refresh masks `r0..r3`.
#[rustfmt::skip]
static TWO_SHARES_FRESH: [InputRole; 12] = [
    sh(0, 0), sh(1, 0), sh(2, 0), sh(3, 0),
    sh(0, 1), sh(1, 1), sh(2, 1), sh(3, 1),
    FRESH, FRESH, FRESH, FRESH,
];

/// TI: bit-major `x{bit}s{0..3}`; no fresh randomness at all.
#[rustfmt::skip]
static FOUR_SHARES: [InputRole; 16] = [
    sh(0, 0), sh(0, 1), sh(0, 2), sh(0, 3),
    sh(1, 0), sh(1, 1), sh(1, 2), sh(1, 3),
    sh(2, 0), sh(2, 1), sh(2, 2), sh(2, 3),
    sh(3, 0), sh(3, 1), sh(3, 2), sh(3, 3),
];

/// How a scheme's primary inputs encode an unmasked S-box input `t`.
///
/// The acquisition protocol (paper Fig. 5) drives every circuit with a
/// *random encoding* of class 0 (initial value) followed by a random
/// encoding of the class under measurement — [`InputEncoding::encode`]
/// produces exactly those assignments. The input side derives from the
/// scheme's role table through its [`RoleCodec`]; the output side and
/// the mask stratification are per-scheme tables, because roles cannot
/// express them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEncoding {
    scheme: Scheme,
    codec: &'static RoleCodec,
}

impl InputEncoding {
    /// The encoding for a scheme.
    pub fn for_scheme(scheme: Scheme) -> Self {
        static CODECS: LazyLock<Vec<RoleCodec>> = LazyLock::new(|| {
            Scheme::ALL
                .iter()
                .map(|s| {
                    let roles: &[InputRole] = match s {
                        Scheme::Lut | Scheme::Opt => &UNMASKED,
                        Scheme::Rsm | Scheme::RsmRom => &TWO_SHARES,
                        Scheme::Glut | Scheme::Isw => &TWO_SHARES_FRESH,
                        Scheme::Ti => &FOUR_SHARES,
                    };
                    RoleCodec::new(roles.to_vec()).expect("native role tables are well-formed")
                })
                .collect()
        });
        Self {
            scheme,
            codec: &CODECS[scheme as usize],
        }
    }

    /// The scheme this encoding belongs to.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The [`InputRole`] of every primary input, in netlist port order
    /// (matching [`sbox_netlist::Netlist::inputs`] of the generated
    /// circuit): the scheme's whole input-side masking contract.
    pub fn input_roles(&self) -> &'static [InputRole] {
        self.codec.roles()
    }

    /// The codec of [`InputEncoding::input_roles`] (built once per
    /// process).
    pub fn codec(&self) -> &'static RoleCodec {
        self.codec
    }

    /// Number of primary inputs the netlist expects.
    pub fn num_inputs(&self) -> usize {
        self.input_roles().len()
    }

    /// Number of masked output bits the netlist produces.
    pub fn num_outputs(&self) -> usize {
        match self.scheme {
            Scheme::Lut | Scheme::Opt | Scheme::Glut | Scheme::Rsm | Scheme::RsmRom => 4,
            Scheme::Isw => 8,
            Scheme::Ti => 16,
        }
    }

    /// How many shares jointly encode each secret nibble bit.
    ///
    /// Unprotected schemes carry the bit directly (one share); the Boolean
    /// masking schemes split it in two (`A = t ^ MI` plus `MI`); TI uses a
    /// four-share non-complete sharing.
    pub fn shares_per_bit(&self) -> u8 {
        self.codec().shares_per_bit()
    }

    /// Widths (in bits) of the scheme's independent mask subfields, in the
    /// order they pack into the mask word of [`InputEncoding::encode_masked`].
    /// A stratified sampler balances each subfield independently; the
    /// widths sum to [`InputEncoding::mask_bits`].
    pub fn mask_fields(&self) -> &'static [usize] {
        match self.scheme {
            Scheme::Lut | Scheme::Opt => &[],
            Scheme::Glut => &[4, 4],              // MI, MO
            Scheme::Rsm | Scheme::RsmRom => &[4], // MI
            Scheme::Isw => &[4, 4],               // sharing mask M, gadget R
            Scheme::Ti => &[3, 3, 3, 3],          // (s1,s2,s3) per input bit
        }
    }

    /// Total mask-word width in bits.
    pub fn mask_bits(&self) -> usize {
        self.codec().mask_bits()
    }

    /// Encode the unmasked value `t` onto the primary inputs using an
    /// explicit mask word (subfields packed LSB-first in
    /// [`InputEncoding::mask_fields`] order). Buses are LSB-first, in the
    /// port order the generators declare.
    ///
    /// # Panics
    ///
    /// Panics if `t >= 16` or the mask word exceeds
    /// [`InputEncoding::mask_bits`].
    pub fn encode_masked(&self, t: u8, mask_word: u32) -> Vec<bool> {
        assert!(t < 16, "PRESENT S-box input is a nibble");
        let codec = self.codec;
        assert!(
            u64::from(mask_word) >> codec.mask_bits() == 0,
            "mask word out of range"
        );
        codec.encode(u64::from(t), u64::from(mask_word))
    }

    /// Draw fresh uniform mask randomness and encode `t` (convenience
    /// wrapper over [`InputEncoding::encode_masked`]).
    ///
    /// # Panics
    ///
    /// Panics if `t >= 16`.
    pub fn encode<R: Rng + ?Sized>(&self, t: u8, rng: &mut R) -> Vec<bool> {
        let bits = self.mask_bits();
        let word = if bits == 0 {
            0
        } else {
            rng.gen_range(0..(1u32 << bits))
        };
        self.encode_masked(t, word)
    }

    /// For each unmasked S-box output bit, the output-port indices that
    /// jointly encode it (its output shares), in
    /// [`sbox_netlist::Netlist::outputs`] order.
    ///
    /// The masked-table schemes expose each output bit as one masked
    /// port; ISW as two shares (`y0_b`, `y1_b`); TI as four shares
    /// (`y{b}s{0..3}`, bit-major).
    pub fn output_share_groups(&self) -> Vec<Vec<usize>> {
        match self.scheme {
            Scheme::Lut | Scheme::Opt | Scheme::Glut | Scheme::Rsm | Scheme::RsmRom => {
                (0..4).map(|b| vec![b]).collect()
            }
            Scheme::Isw => (0..4).map(|b| vec![b, 4 + b]).collect(),
            Scheme::Ti => (0..4).map(|b| (4 * b..4 * b + 4).collect()).collect(),
        }
    }

    /// Recover the *unmasked* S-box output from a primary-input assignment
    /// and the resulting outputs (used for functional verification; an
    /// attacker cannot do this — the masks are secret).
    ///
    /// # Panics
    ///
    /// Panics if the slices have the wrong lengths.
    pub fn unmask_output(&self, inputs: &[bool], outputs: &[bool]) -> u8 {
        assert_eq!(inputs.len(), self.num_inputs());
        assert_eq!(outputs.len(), self.num_outputs());
        let shares = self.output_share_groups().into_iter().enumerate();
        let masked = shares.fold(0u8, |acc, (bit, ports)| {
            acc | u8::from(ports.iter().fold(false, |x, &p| x ^ outputs[p])) << bit
        });
        match self.scheme {
            Scheme::Glut => masked ^ pack_nibble(&inputs[8..12]), // MO
            Scheme::Rsm | Scheme::RsmRom => masked ^ ((pack_nibble(&inputs[4..8]) + 1) % 16), // MI+1
            _ => masked,
        }
    }

    /// Recover the unmasked S-box *input* encoded by a primary-input
    /// assignment (the class label of a stimulus).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length.
    pub fn unmask_input(&self, inputs: &[bool]) -> u8 {
        // Four secret bits: the class fits a nibble.
        self.codec().unmask(inputs) as u8
    }
}

fn pack_nibble(bits: &[bool]) -> u8 {
    bits.iter()
        .enumerate()
        .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn nibble_bits(v: u8) -> [bool; 4] {
        std::array::from_fn(|i| (v >> i) & 1 == 1)
    }

    /// The hand-written per-scheme encoders the role codec replaced: the
    /// independent oracle of the codec on the native schemes.
    fn hand_written_encode(scheme: Scheme, t: u8, mask_word: u32) -> Vec<bool> {
        match scheme {
            Scheme::Lut | Scheme::Opt => nibble_bits(t).to_vec(),
            Scheme::Glut => {
                let mi = (mask_word & 0xF) as u8;
                let mo = ((mask_word >> 4) & 0xF) as u8;
                let a = t ^ mi;
                [nibble_bits(a), nibble_bits(mi), nibble_bits(mo)].concat()
            }
            Scheme::Rsm | Scheme::RsmRom => {
                let mi = (mask_word & 0xF) as u8;
                let a = t ^ mi;
                [nibble_bits(a), nibble_bits(mi)].concat()
            }
            Scheme::Isw => {
                let m = (mask_word & 0xF) as u8;
                let r = ((mask_word >> 4) & 0xF) as u8;
                let xa = t ^ m;
                [nibble_bits(xa), nibble_bits(m), nibble_bits(r)].concat()
            }
            Scheme::Ti => {
                // Bit-major: x{bit}s{0..3}; share 0 closes the XOR.
                let mut v = Vec::with_capacity(16);
                for bit in 0..4u8 {
                    let x = (t >> bit) & 1 == 1;
                    let field = (mask_word >> (3 * bit)) & 0b111;
                    let s1 = field & 1 == 1;
                    let s2 = (field >> 1) & 1 == 1;
                    let s3 = (field >> 2) & 1 == 1;
                    let s0 = x ^ s1 ^ s2 ^ s3;
                    v.extend_from_slice(&[s0, s1, s2, s3]);
                }
                v
            }
        }
    }

    #[test]
    fn codec_matches_the_hand_written_encoders_over_every_mask() {
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            assert_eq!(enc.codec().secret_bits(), 4, "{scheme}");
            for t in 0..16u8 {
                for mask in 0..1u32 << enc.mask_bits() {
                    let v = enc.encode_masked(t, mask);
                    assert_eq!(
                        v,
                        hand_written_encode(scheme, t, mask),
                        "{scheme} t={t} mask={mask}"
                    );
                    assert_eq!(enc.unmask_input(&v), t, "{scheme} t={t} mask={mask}");
                }
            }
        }
    }

    #[test]
    fn mask_fields_tile_the_mask_word() {
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            let fields: usize = enc.mask_fields().iter().sum();
            assert_eq!(fields, enc.mask_bits(), "{scheme}");
        }
    }

    /// A well-formed random role list: `secret_bits` bits of `shares`
    /// shares each plus `fresh` fresh ports, in shuffled port order.
    fn random_roles(rng: &mut SmallRng) -> Vec<InputRole> {
        let secret_bits = rng.gen_range(1..=8u8);
        let shares = rng.gen_range(1..=4u8);
        let fresh = rng.gen_range(0..=8usize);
        let mut roles: Vec<InputRole> = (0..secret_bits)
            .flat_map(|bit| (0..shares).map(move |share| sh(bit, share)))
            .chain(std::iter::repeat_n(FRESH, fresh))
            .collect();
        roles.shuffle(rng);
        roles
    }

    #[test]
    fn codec_round_trips_random_role_layouts() {
        let mut rng = SmallRng::seed_from_u64(0xC0DEC);
        for case in 0..200 {
            let roles = random_roles(&mut rng);
            let codec = RoleCodec::new(roles.clone()).expect("well-formed");
            let closing = roles
                .iter()
                .filter(|r| matches!(r, InputRole::Share { share: 0, .. }))
                .count();
            assert_eq!(codec.secret_bits(), closing, "case {case}");
            assert_eq!(codec.mask_bits(), roles.len() - closing, "case {case}");
            // Appending a fresh port appends one mask bit and changes no
            // old encoding, which repair's `mask | extra << base_bits`
            // and the incremental re-analysis's row tiling rely on.
            let mut grown_roles = roles.clone();
            grown_roles.push(FRESH);
            let grown = RoleCodec::new(grown_roles).expect("well-formed");
            assert_eq!(grown.mask_bits(), codec.mask_bits() + 1, "case {case}");
            for _ in 0..16 {
                let t = rng.gen_range(0..1u64 << codec.secret_bits());
                let mask = rng.gen_range(0..1u64 << codec.mask_bits());
                let v = codec.encode(t, mask);
                assert_eq!(codec.unmask(&v), t, "case {case}");
                // Every non-closing port carries its mask bit, allocated
                // in port order.
                let mut next = 0;
                for ((role, &slot), &value) in roles.iter().zip(codec.mask_bit_of_input()).zip(&v) {
                    if matches!(role, InputRole::Share { share: 0, .. }) {
                        assert_eq!(slot, None, "case {case}");
                    } else {
                        assert_eq!(slot, Some(next), "case {case}");
                        assert_eq!(value, mask >> next & 1 == 1, "case {case}");
                        next += 1;
                    }
                }
                let extra = rng.gen_range(0..2u64);
                let w = grown.encode(t, mask | extra << codec.mask_bits());
                assert_eq!(w[..v.len()], v[..], "case {case}");
                assert_eq!(w[v.len()], extra == 1, "case {case}");
            }
        }
    }

    #[test]
    fn codec_handles_more_than_64_inputs() {
        // 20 bits of 4 shares plus 10 fresh ports: 90 inputs, 70 mask bits,
        // of which bits 64 and above read as zero.
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut roles: Vec<InputRole> = (0..20)
            .flat_map(|bit| (0..4).map(move |share| sh(bit, share)))
            .chain(std::iter::repeat_n(FRESH, 10))
            .collect();
        roles.shuffle(&mut rng);
        let codec = RoleCodec::new(roles).expect("well-formed");
        assert_eq!(codec.mask_bits(), 70);
        for _ in 0..64 {
            let t = rng.gen_range(0..1u64 << 20);
            let mask = rng.gen::<u64>();
            let v = codec.encode(t, mask);
            assert_eq!(v.len(), 90);
            assert_eq!(codec.unmask(&v), t);
            for (&slot, &value) in codec.mask_bit_of_input().iter().zip(&v) {
                if let Some(j) = slot {
                    assert_eq!(value, j < 64 && mask >> j & 1 == 1, "mask bit {j}");
                }
            }
        }
    }

    #[test]
    fn codec_rejects_malformed_role_lists() {
        let reject = |roles: Vec<InputRole>| RoleCodec::new(roles).expect_err("malformed");
        // Two share 1s and no closing share 0.
        assert!(reject(vec![sh(0, 1), sh(0, 1)]).contains("shares must be 0..n"));
        // Uneven share counts across bits.
        assert!(reject(vec![sh(0, 0), sh(0, 1), sh(1, 0)]).contains("earlier bits have 2"));
        // A secret bit with no share at all, including bit 0.
        assert!(reject(vec![sh(0, 0), sh(2, 0)]).contains("secret bit 1 has 0 shares"));
        assert!(reject(vec![sh(1, 0)]).contains("secret bit 1 has 1 shares"));
        assert!(reject(vec![FRESH]).contains("no secret bits"));
        assert!(reject(vec![sh(64, 0)]).contains("64-bit taint budget"));
        let wide = RoleCodec::new((0..64).map(|bit| sh(bit, 0)).collect()).expect("64 bits fit");
        assert_eq!(wide.unmask(&wide.encode(u64::MAX, 0)), u64::MAX);
    }

    #[test]
    fn encode_round_trips_the_class_label() {
        let mut rng = SmallRng::seed_from_u64(9);
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            for t in 0..16u8 {
                for _ in 0..8 {
                    let v = enc.encode(t, &mut rng);
                    assert_eq!(v.len(), enc.num_inputs(), "{scheme}");
                    assert_eq!(enc.unmask_input(&v), t, "{scheme} t={t}");
                }
            }
        }
    }

    #[test]
    fn masked_encodings_are_randomized() {
        let mut rng = SmallRng::seed_from_u64(10);
        for scheme in Scheme::ALL.iter().filter(|s| s.is_protected()) {
            let enc = InputEncoding::for_scheme(*scheme);
            let all_same = (0..16)
                .map(|_| enc.encode(5, &mut rng))
                .collect::<std::collections::HashSet<_>>()
                .len()
                == 1;
            assert!(!all_same, "{scheme} encodings never vary");
        }
    }

    #[test]
    fn unprotected_encoding_is_the_identity() {
        let mut rng = SmallRng::seed_from_u64(11);
        let enc = InputEncoding::for_scheme(Scheme::Lut);
        assert_eq!(enc.encode(0b1010, &mut rng), vec![false, true, false, true]);
    }

    #[test]
    fn input_roles_cover_every_input() {
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            let roles = enc.input_roles();
            assert_eq!(roles.len(), enc.num_inputs(), "{scheme}");
            for bit in 0..4u8 {
                let shares: Vec<u8> = roles
                    .iter()
                    .filter_map(|r| match r {
                        InputRole::Share { bit: b, share } if *b == bit => Some(*share),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    shares.len(),
                    usize::from(enc.shares_per_bit()),
                    "{scheme} bit {bit}"
                );
                let mut sorted = shares.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..enc.shares_per_bit()).collect::<Vec<_>>(),
                    "{scheme} bit {bit}: shares must be 0..n, once each"
                );
            }
        }
    }

    #[test]
    fn shares_xor_to_the_secret_bit() {
        // The roles are only meaningful if XOR-ing the inputs labelled as
        // shares of bit `b` recovers bit `b` of the class, for every mask.
        for scheme in Scheme::ALL {
            let enc = InputEncoding::for_scheme(scheme);
            let roles = enc.input_roles();
            let mask_words: Vec<u32> = if enc.mask_bits() == 0 {
                vec![0]
            } else {
                (0..1u32 << enc.mask_bits()).step_by(3).collect()
            };
            for t in 0..16u8 {
                for &mask in &mask_words {
                    let v = enc.encode_masked(t, mask);
                    for bit in 0..4u8 {
                        let xor = roles
                            .iter()
                            .zip(&v)
                            .filter(
                                |(r, _)| matches!(r, InputRole::Share { bit: b, .. } if *b == bit),
                            )
                            .fold(false, |acc, (_, &val)| acc ^ val);
                        assert_eq!(
                            xor,
                            (t >> bit) & 1 == 1,
                            "{scheme} t={t} mask={mask} bit={bit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fresh_inputs_match_table_one_refresh_budget() {
        // GLUT's MO and ISW's gadget masks are the only fresh (non-share)
        // randomness in the seven schemes.
        let fresh = |s: Scheme| {
            InputEncoding::for_scheme(s)
                .input_roles()
                .iter()
                .filter(|r| matches!(r, InputRole::Fresh))
                .count()
        };
        assert_eq!(fresh(Scheme::Glut), 4);
        assert_eq!(fresh(Scheme::Isw), 4);
        for s in [
            Scheme::Lut,
            Scheme::Opt,
            Scheme::Rsm,
            Scheme::RsmRom,
            Scheme::Ti,
        ] {
            assert_eq!(fresh(s), 0, "{s}");
        }
    }

    #[test]
    fn random_bits_match_table_one() {
        assert_eq!(Scheme::Glut.random_bits(), 8);
        assert_eq!(Scheme::Rsm.random_bits(), 4);
        assert_eq!(Scheme::RsmRom.random_bits(), 4);
        assert_eq!(Scheme::Isw.random_bits(), 4);
        assert_eq!(Scheme::Ti.random_bits(), 12);
    }
}
