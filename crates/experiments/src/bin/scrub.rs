//! `scrub` — verify and self-heal the on-disk trace store.
//!
//! Walks every `SCTR` file under `results/traces/` (the shared campaign
//! store), verifies header, per-record, and whole-file checksums, and
//! repairs what it can: damaged records are re-captured seed-stably from
//! the header's protocol seed so a healed store is bit-identical to one
//! that was never damaged. Files it cannot heal safely (foreign
//! configuration, tampered name, unsalvageable header) are renamed
//! aside with a `.quarantined` suffix.
//!
//! Exit status: `0` when every store verified (clean or healed), `1`
//! when anything had to be quarantined, `2` on a malformed `SCA_*`
//! knob.
//!
//! The heal and quarantine paths are pinned by `cargo test --test
//! fault_tolerance`.

use std::process::ExitCode;

use experiments::{campaign_from_args, finish_campaign};

fn main() -> ExitCode {
    let mut campaign = campaign_from_args();
    let report = campaign.scrub();
    print!("{report}");
    finish_campaign(&campaign);
    if report.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
