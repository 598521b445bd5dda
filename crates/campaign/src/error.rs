//! The campaign error hierarchy.
//!
//! Campaign hot paths never unwind past the executor and never abort a
//! sweep on a persistence problem: capture failures are retried, then
//! quarantined into the run report; store, cache, and report-log
//! failures degrade to a warning plus re-acquisition (the figures are
//! the primary artifact), and their own errors (`StoreError`,
//! `io::Error`) reach callers unwrapped. `CampaignError` names what is
//! left: a short run's warning and a bad configuration value.

use std::fmt;

/// A campaign run that fell short, or a configuration it cannot use.
#[derive(Debug)]
pub enum CampaignError {
    /// A run completed but had to quarantine trace indices, so the
    /// resulting set is incomplete.
    Incomplete {
        /// Quarantined schedule indices, ascending.
        quarantined: Vec<usize>,
        /// Total traces the schedule asked for.
        scheduled: usize,
    },
    /// A configuration value (usually from the environment) could not be
    /// interpreted.
    Config {
        /// The configuration knob, e.g. `"SCA_WORKERS"`.
        name: String,
        /// The value that failed to parse.
        value: String,
    },
    /// A run budget expired (deadline, trace cap, or cancellation)
    /// before the schedule finished; the completed prefix is in the
    /// checkpoint and a re-run resumes bit-identically.
    Interrupted {
        /// Why the run stopped, e.g. `"deadline expired"`.
        cause: String,
        /// Schedule indices not captured before the stop.
        remaining: usize,
        /// Total traces the schedule asked for.
        scheduled: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Incomplete {
                quarantined,
                scheduled,
            } => write!(
                f,
                "campaign quarantined {} of {scheduled} trace(s): {quarantined:?}",
                quarantined.len()
            ),
            CampaignError::Config { name, value } => {
                write!(f, "cannot interpret {name}={value:?}")
            }
            CampaignError::Interrupted {
                cause,
                remaining,
                scheduled,
            } => write!(
                f,
                "run interrupted ({cause}) with {remaining} of {scheduled} trace(s) \
                 uncaptured; resume from the checkpoint to finish bit-identically"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_self_describing() {
        let e = CampaignError::Incomplete {
            quarantined: vec![4, 9],
            scheduled: 32,
        };
        assert!(e.to_string().contains("2 of 32"));

        let e = CampaignError::Config {
            name: "SCA_WORKERS".into(),
            value: "banana".into(),
        };
        assert!(e.to_string().contains("SCA_WORKERS"));
        assert!(e.to_string().contains("banana"));

        let e = CampaignError::Interrupted {
            cause: "deadline expired".into(),
            remaining: 12,
            scheduled: 64,
        };
        assert!(e.to_string().contains("deadline expired"));
        assert!(e.to_string().contains("12 of 64"));
    }
}
