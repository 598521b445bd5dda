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
//! check into the campaign executor's engine choice.

use crate::{BitsliceUnsupported, BitslicedSession, Simulator};

/// Which gate-level capture engine executes scheduled stimuli.
///
/// Selected per campaign and recorded in run reports, so a throughput
/// number is never quoted without the engine that produced it. The
/// default, [`Backend::Auto`], lets the netlist choose: no knob selects
/// the engine, because both give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-driven engine: one trace per pass, full glitch-order
    /// fidelity on every netlist. The reference semantics.
    Event,
    /// The bit-sliced levelized engine: up to [`LANES`](crate::LANES) traces
    /// per pass. Requests the fast path; [`Backend::resolve`] rejects
    /// netlists the static support check fails (the campaign executor
    /// then falls back to `Event` with a recorded warning).
    Bitsliced,
    /// Probe bit-sliced support per netlist and use it where available,
    /// silently taking the event-driven path otherwise.
    #[default]
    Auto,
}

impl Backend {
    /// The name of this backend (`event` / `bitsliced` / `auto`), as
    /// written to run reports and `campaign_runs.jsonl`.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Bitsliced => "bitsliced",
            Backend::Auto => "auto",
        }
    }

    /// Resolve this request against `sim`'s netlist — the one place the
    /// engine choice is made.
    ///
    /// Returns the bit-sliced session to capture on, or `None` for the
    /// event engine: [`Backend::Event`] always takes the event engine,
    /// [`Backend::Auto`] (the default) takes the bit-sliced one where
    /// the static support check passes and silently falls back
    /// otherwise, and [`Backend::Bitsliced`] returns the check's
    /// rejection as `Err`.
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

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_netlist_picks_the_engine_by_default() {
        assert_eq!(Backend::default(), Backend::Auto);
        for b in [Backend::Event, Backend::Bitsliced, Backend::Auto] {
            assert_eq!(b.to_string(), b.as_str());
        }
    }
}
