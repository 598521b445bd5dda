//! Import an external netlist (Yosys JSON or structural EDIF) and run
//! it through the full measurement stack: capture, spectrum, and the
//! `sca-verify` masking report.
//!
//! ```text
//! import <file> [--scheme NAME | --sidecar PATH] [--format yosys|edif]
//!        [--tpc N] [--no-capture]
//! ```
//!
//! With `--scheme` (or a `--sidecar` declaring one), the imported
//! netlist binds to that scheme's input encoding and the campaign
//! acquires its classified trace set under a cache label keyed by the
//! *netlist content hash* (`import-<scheme>-<digest>`): re-importing the
//! same file hits the trace store, importing a modified file misses it.
//! Without a scheme the tool stops after structural import and reports
//! the netlist's statistics. A typed import failure, and a zero or
//! malformed `--tpc`, exit 2; panics are a bug.
//!
//! The round trip of every scheme through both writers — structure,
//! captures on both engines, `sca-verify` reports and content-hash
//! keying — is pinned by `cargo test --test frontend_conformance`.

use campaign::{Campaign, Subject};
use experiments::{campaign_config, count_from_value, finish_campaign};
use sbox_circuits::SboxCircuit;
use sca_frontend::{import_str, netlist_digest, EncodingSidecar, FrontendError, SourceFormat};

use acquisition::ProtocolConfig;

/// Parsed command line. Manual parsing: the shared
/// `experiments::protocol_from_args` helper reads `args[1]` as a trace
/// count, which would eat the file path.
struct Args {
    file: Option<String>,
    scheme: Option<String>,
    sidecar: Option<String>,
    format: Option<SourceFormat>,
    tpc: usize,
    capture: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: import <file> [--scheme NAME | --sidecar PATH] \
         [--format yosys|edif] [--tpc N] [--no-capture]"
    );
    std::process::exit(2);
}

/// Parse the command line after the program name; `None` is a usage
/// error. The trace count goes through the shared positive-count
/// parser, so a zero or malformed `--tpc N` is rejected.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Option<Args> {
    let mut args = Args {
        file: None,
        scheme: None,
        sidecar: None,
        format: None,
        tpc: 16,
        capture: true,
    };
    let count = |value: String| count_from_value(Some(value), 0).ok();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => args.scheme = Some(it.next()?),
            "--sidecar" => args.sidecar = Some(it.next()?),
            "--format" => match it.next()?.as_str() {
                "yosys" | "yosys-json" | "json" => args.format = Some(SourceFormat::YosysJson),
                "edif" => args.format = Some(SourceFormat::Edif),
                _ => return None,
            },
            "--tpc" => args.tpc = count(it.next()?)?,
            "--no-capture" => args.capture = false,
            "--help" | "-h" => return None,
            other if other.starts_with("--") => return None,
            other if args.file.is_none() => args.file = Some(other.to_string()),
            _ => return None,
        }
    }
    Some(args)
}

/// The content-hash campaign label for an imported circuit.
fn import_label(circuit: &SboxCircuit) -> String {
    format!(
        "import-{}-{:016x}",
        circuit.scheme().label().to_lowercase(),
        netlist_digest(circuit.netlist())
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|| usage());
    std::process::exit(run_import(&args));
}

/// Import one file, report its structure, and (when a scheme is known)
/// capture + verify it. Typed diagnostics exit 2; nothing panics.
fn run_import(args: &Args) -> i32 {
    let Some(path) = &args.file else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            let err = FrontendError::Io {
                path: path.clone(),
                message: e.to_string(),
            };
            eprintln!("import: {err}");
            return 2;
        }
    };
    let result = match args.format {
        Some(format) => import_str(&text, format),
        None => sca_frontend::import_auto(&text),
    };
    let design = match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("import: {e}");
            return 2;
        }
    };
    for warning in &design.warnings {
        eprintln!("import: warning: {warning}");
    }
    let stats = design.netlist.stats();
    println!(
        "imported `{}` ({}): {} inputs, {} outputs, {} gates, depth {}",
        design.netlist.name(),
        design.format,
        design.netlist.num_inputs(),
        design.netlist.num_outputs(),
        design.netlist.gates().len(),
        stats.delay_gates,
    );

    // Resolve the encoding: an explicit sidecar file wins, then
    // `--scheme`, else stop after the structural import.
    let sidecar = match (&args.sidecar, &args.scheme) {
        (Some(path), _) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "import: {}",
                        FrontendError::Io {
                            path: path.clone(),
                            message: e.to_string(),
                        }
                    );
                    return 2;
                }
            };
            match EncodingSidecar::parse(&text) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("import: {e}");
                    return 2;
                }
            }
        }
        (None, Some(name)) => match EncodingSidecar::parse(&format!("scheme = \"{name}\"\n")) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("import: {e}");
                return 2;
            }
        },
        (None, None) => None,
    };
    let Some(sidecar) = sidecar else {
        println!("no scheme declared (--scheme/--sidecar); stopping after structural import");
        return 0;
    };

    let circuit = match sidecar.bind(design.netlist) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("import: {e}");
            return 2;
        }
    };
    println!(
        "bound to scheme {} ({} shares/bit)",
        circuit.scheme().label(),
        circuit.encoding().shares_per_bit()
    );

    let analysis = sca_verify::analyze(&circuit);
    print!("{}", sca_verify::report::human(&analysis));

    if !args.capture {
        return 0;
    }
    let label = import_label(&circuit);
    println!("campaign label: {label}");
    let mut campaign = Campaign::new(campaign_config(ProtocolConfig {
        traces_per_class: args.tpc,
        ..ProtocolConfig::default()
    }));
    let subject = Subject::Imported {
        circuit: &circuit,
        label: &label,
    };
    let outcome = campaign.acquire_aged(subject, 0.0);
    println!(
        "captured {} traces (cache hit: {}); total leakage power {:.3e}",
        outcome.traces.len(),
        outcome.cache_hit,
        outcome.spectrum.total_leakage_power(),
    );
    finish_campaign(&campaign);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Option<Args> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn trace_counts_must_be_positive() {
        assert_eq!(parse(&["f.json"]).expect("default budget").tpc, 16);
        assert_eq!(parse(&["f.json", "--tpc", "8"]).expect("valid").tpc, 8);
        for bad in ["0", "x2", "-1", ""] {
            assert!(parse(&["f.json", "--tpc", bad]).is_none(), "--tpc {bad:?}");
        }
        assert!(parse(&["f.json", "--tpc"]).is_none(), "missing count");
    }

    #[test]
    fn options_and_the_file_parse() {
        let args = parse(&[
            "isw.edif",
            "--scheme",
            "ISW",
            "--format",
            "edif",
            "--no-capture",
        ])
        .expect("valid");
        assert_eq!(args.file.as_deref(), Some("isw.edif"));
        assert_eq!(args.scheme.as_deref(), Some("ISW"));
        assert!(matches!(args.format, Some(SourceFormat::Edif)));
        assert!(!args.capture);
        for bad in [
            &["a", "b"][..],
            &["--format", "vhdl"],
            &["--bogus"],
            &["-h"],
        ] {
            assert!(parse(bad).is_none(), "{bad:?}");
        }
    }
}
