//! Capture-backend selection: the event-driven reference engine vs the
//! bit-sliced levelized engine.
//!
//! Every acquisition path in this workspace is defined by the
//! event-driven engine's semantics; the bit-sliced backend is a pure
//! throughput optimisation that must reproduce those semantics
//! bit-for-bit wherever it runs at all. Netlists it cannot handle
//! (sub-resolution effective delays, where commit order — and therefore
//! inertial-absorption order — is not reproducible from levelized
//! evaluation) are rejected statically by
//! [`Simulator::bitsliced_session`]; [`Backend::resolve`] turns that
//! check into the one engine choice every caller shares.
//!
//! [`Simulator::bitsliced_session`]: gatesim::Simulator::bitsliced_session

use gatesim::{BitsliceUnsupported, BitslicedSession, Simulator};

/// Which gate-level capture engine executes scheduled stimuli.
///
/// Selected per campaign (env knob `SCA_BACKEND` in the experiment
/// binaries) and recorded in run reports, so a throughput number is
/// never quoted without the engine that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-driven engine: one trace per pass, full glitch-order
    /// fidelity on every netlist. The reference semantics.
    #[default]
    Event,
    /// The bit-sliced levelized engine: up to [`gatesim::LANES`] traces
    /// per pass. Requests the fast path; [`Backend::resolve`] rejects
    /// netlists the static support check fails (the campaign executor
    /// then falls back to `Event` with a recorded warning).
    Bitsliced,
    /// Probe bit-sliced support per netlist and use it where available,
    /// silently taking the event-driven path otherwise.
    Auto,
}

impl Backend {
    /// The knob spelling of this backend (`event` / `bitsliced` /
    /// `auto`), as written to run reports and `campaign_runs.jsonl`.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Bitsliced => "bitsliced",
            Backend::Auto => "auto",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = ();

    /// Parse the `SCA_BACKEND` knob spellings (case-insensitive).
    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "event" => Ok(Backend::Event),
            "bitsliced" => Ok(Backend::Bitsliced),
            "auto" => Ok(Backend::Auto),
            _ => Err(()),
        }
    }
}

impl Backend {
    /// Resolve this request against `sim`'s netlist — the one place the
    /// engine choice is made, shared by the sequential acquisition loop
    /// and the campaign executor.
    ///
    /// Returns the bit-sliced session to capture on, or `None` for the
    /// event engine: [`Backend::Event`] always takes the event engine,
    /// [`Backend::Auto`] takes the bit-sliced one where the static
    /// support check passes and silently falls back otherwise, and
    /// [`Backend::Bitsliced`] returns the check's rejection as `Err`.
    pub fn resolve<'s>(
        self,
        sim: &'s Simulator<'_>,
    ) -> Result<Option<BitslicedSession<'s>>, BitsliceUnsupported> {
        match self {
            Backend::Event => Ok(None),
            Backend::Auto => Ok(sim.bitsliced_session().ok()),
            Backend::Bitsliced => sim.bitsliced_session().map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{acquire_with_derating, LeakageStudy, ProtocolConfig};
    use gatesim::Derating;
    use sbox_circuits::{SboxCircuit, Scheme};

    fn small_config() -> ProtocolConfig {
        ProtocolConfig {
            traces_per_class: 4,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn backend_knob_spellings_round_trip() {
        for b in [Backend::Event, Backend::Bitsliced, Backend::Auto] {
            assert_eq!(b.as_str().parse::<Backend>(), Ok(b));
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!("BITSLICED".parse::<Backend>(), Ok(Backend::Bitsliced));
        assert!("fast".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Event);
    }

    /// Every scheme, fresh and at 24 months: the merged acquisition loop
    /// returns the same bits on every backend. `Backend::Bitsliced`
    /// never falls back, so its `Ok` proves the bit-sliced engine ran.
    #[test]
    fn every_backend_acquires_identical_bits_on_every_scheme_fresh_and_aged() {
        let config = small_config();
        let study = LeakageStudy::new(config.clone());
        for scheme in Scheme::ALL {
            let circuit = SboxCircuit::build(scheme);
            let device = study.aged_device(&circuit);
            for months in [0.0, 24.0] {
                let derating = device.derating_at_months(months);
                let sim = Simulator::with_derating(circuit.netlist(), &config.sim, &derating);
                assert!(sim.bitsliced_session().is_ok(), "{scheme} at {months}");
                let acquire =
                    |backend| acquire_with_derating(&circuit, &config, &derating, backend);
                let event = acquire(Backend::Event).expect("the event engine runs everything");
                for backend in [Backend::Bitsliced, Backend::Auto] {
                    let got = acquire(backend).expect("scheme netlists are bitslice-supported");
                    assert_eq!(
                        got, event,
                        "{scheme} at {months} months: {backend} diverges"
                    );
                }
            }
        }
    }

    /// On a sub-resolution derating an explicit bit-sliced request is
    /// refused, and `Auto` falls back to the event engine's exact bits.
    #[test]
    fn unsupported_netlists_reject_bitsliced_and_auto_falls_back_to_event() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let gates = circuit.netlist().gates().len();
        let derating = Derating::from_factors(vec![1e-12; gates], vec![1.0; gates]);
        let sim = Simulator::with_derating(circuit.netlist(), &config.sim, &derating);
        assert!(Backend::Bitsliced.resolve(&sim).is_err());
        assert!(matches!(Backend::Auto.resolve(&sim), Ok(None)));
        let acquire = |backend| acquire_with_derating(&circuit, &config, &derating, backend);
        let err = acquire(Backend::Bitsliced).expect_err("sub-resolution delays are unsupported");
        assert!(err.to_string().contains("event-driven"));
        let event = acquire(Backend::Event).expect("the event engine runs everything");
        assert_eq!(acquire(Backend::Auto), Ok(event));
    }
}
