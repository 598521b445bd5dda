//! Import an external netlist (Yosys JSON or structural EDIF) and run
//! it through the full measurement stack: capture, spectrum, and the
//! `sca-verify` masking report.
//!
//! ```text
//! import <file> [--scheme NAME | --sidecar PATH] [--format yosys|edif]
//!        [--tpc N] [--no-capture]
//! import --selftest [TPC]
//! ```
//!
//! With `--scheme` (or a `--sidecar` declaring one), the imported
//! netlist binds to that scheme's input encoding and the campaign
//! acquires its classified trace set under a cache label keyed by the
//! *netlist content hash* (`import-<scheme>-<digest>`): re-importing the
//! same file hits the trace store, importing a modified file misses it.
//! Without a scheme the tool stops after structural import and reports
//! the netlist's statistics.
//!
//! `--selftest` is the conformance mode CI runs (including under the
//! `SCA_FAULTS` injection matrix): every hand-built scheme is exported
//! through both writers, re-imported, and checked for structural
//! identity, bit-identical captures on both simulation backends,
//! byte-identical `sca-verify` reports, and content-hash cache keying.
//! Any typed import failure exits 2; any conformance mismatch exits 1;
//! panics are a bug.

use campaign::{Backend, CacheMode, Campaign, CampaignConfig, Subject};
use experiments::{campaign_config, count_from_value, finish_campaign};
use leakage_core::ClassifiedTraces;
use sbox_circuits::{SboxCircuit, Scheme};
use sca_frontend::{
    import_str, netlist_digest, sidecar_toml, structural_diff, to_edif, to_yosys_json,
    EncodingSidecar, FrontendError, SourceFormat,
};

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
    selftest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: import <file> [--scheme NAME | --sidecar PATH] \
         [--format yosys|edif] [--tpc N] [--no-capture]\n       import --selftest [TPC]"
    );
    std::process::exit(2);
}

/// Parse the command line after the program name; `None` is a usage
/// error. Trace counts go through the shared positive-count parser, so
/// a zero or malformed `--selftest N` or `--tpc N` is rejected.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Option<Args> {
    let mut args = Args {
        file: None,
        scheme: None,
        sidecar: None,
        format: None,
        tpc: 16,
        capture: true,
        selftest: false,
    };
    let count = |value: String| count_from_value(Some(value), 0).ok();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--selftest" => {
                args.selftest = true;
                if let Some(tpc) = it.next() {
                    args.tpc = count(tpc)?;
                }
            }
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

fn protocol(tpc: usize) -> ProtocolConfig {
    ProtocolConfig {
        traces_per_class: tpc,
        ..ProtocolConfig::default()
    }
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
    let code = if args.selftest {
        selftest(args.tpc)
    } else {
        run_import(&args)
    };
    std::process::exit(code);
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
    let mut campaign = Campaign::new(campaign_config(protocol(args.tpc)));
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

/// The conformance selftest: export → re-import → compare, for every
/// scheme, both formats, both backends, plus content-hash cache keying.
fn selftest(tpc: usize) -> i32 {
    let config = protocol(tpc);
    let mut failures = 0usize;
    let mut campaign = Campaign::new(campaign_config(config.clone()));

    for scheme in Scheme::ALL {
        let label = scheme.label();
        let native = SboxCircuit::build(scheme);

        // Yosys JSON round trip.
        let json = to_yosys_json(native.netlist());
        let imported = match import_str(&json, SourceFormat::YosysJson) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("selftest: {label}: yosys-json import failed: {e}");
                return 2;
            }
        };
        if let Some(diff) = structural_diff(native.netlist(), &imported.netlist) {
            eprintln!("selftest: {label}: yosys-json structural drift: {diff}");
            failures += 1;
            continue;
        }

        // EDIF round trip.
        let edif = to_edif(native.netlist());
        match import_str(&edif, SourceFormat::Edif) {
            Ok(d) => {
                if let Some(diff) = structural_diff(native.netlist(), &d.netlist) {
                    eprintln!("selftest: {label}: edif structural drift: {diff}");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("selftest: {label}: edif import failed: {e}");
                return 2;
            }
        }

        // Sidecar bind (ground-truth roles included).
        let sidecar = match EncodingSidecar::parse(&sidecar_toml(&native)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("selftest: {label}: sidecar failed: {e}");
                return 2;
            }
        };
        let circuit = match sidecar.bind(imported.netlist) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("selftest: {label}: sidecar bind failed: {e}");
                return 2;
            }
        };

        // Captures must be bit-identical on both engines, and the
        // bit-sliced support check must treat both netlists alike: on a
        // netlist it rejects, a `Bitsliced` campaign degrades to the
        // event engine.
        let cache_label = import_label(&circuit);
        let subject = Subject::Imported {
            circuit: &circuit,
            label: &cache_label,
        };
        for backend in [Backend::Event, Backend::Bitsliced] {
            let mut uncached = Campaign::new(CampaignConfig {
                backend,
                cache: CacheMode::Off,
                ..campaign.config().clone()
            });
            let engine = |c: &Campaign| c.log().reports().last().and_then(|r| r.backend);
            let native_traces = uncached.acquire_aged(scheme, 0.0);
            let native_engine = engine(&uncached);
            let import_traces = uncached.acquire_aged(subject, 0.0);
            if native_engine != engine(&uncached) {
                eprintln!(
                    "selftest: {label}: {backend} support drift: native ran {native_engine:?}, \
                     the import {:?}",
                    engine(&uncached)
                );
                failures += 1;
            } else if native_traces.partial.is_none() && import_traces.partial.is_none() {
                if let Some(diff) = trace_diff(&native_traces.traces, &import_traces.traces) {
                    eprintln!("selftest: {label}: {backend} capture drift: {diff}");
                    failures += 1;
                }
            }
        }

        // The verifier must issue byte-identical diagnostics.
        let native_report = sca_verify::report::json(&sca_verify::analyze(&native));
        let import_report = sca_verify::report::json(&sca_verify::analyze(&circuit));
        if native_report != import_report {
            eprintln!("selftest: {label}: sca-verify report drift");
            failures += 1;
        }

        // Campaign capture under the content-hash label: the second
        // acquisition of the same imported netlist must hit the cache
        // (when caching is enabled) and agree trace-for-trace.
        let first = campaign.acquire_aged(subject, 0.0);
        let second = campaign.acquire_aged(subject, 0.0);
        if first.partial.is_none() && second.partial.is_none() {
            if let Some(diff) = trace_diff(&first.traces, &second.traces) {
                eprintln!("selftest: {label}: campaign re-acquisition drift: {diff}");
                failures += 1;
            }
        }
        println!(
            "selftest: {label}: ok (campaign label {cache_label}, cache hit on re-acquire: {})",
            second.cache_hit
        );
    }

    finish_campaign(&campaign);
    if failures > 0 {
        eprintln!("selftest: {failures} conformance failure(s)");
        1
    } else {
        println!("selftest: all schemes conform");
        0
    }
}

/// First difference between two classified sets, comparing f64s bit for
/// bit.
fn trace_diff(a: &ClassifiedTraces, b: &ClassifiedTraces) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("trace count {} vs {}", a.len(), b.len()));
    }
    for (i, ((ca, ta), (cb, tb))) in a.iter().zip(b.iter()).enumerate() {
        if ca != cb {
            return Some(format!("trace {i} class {ca} vs {cb}"));
        }
        if ta.len() != tb.len() {
            return Some(format!("trace {i} samples {} vs {}", ta.len(), tb.len()));
        }
        for (s, (x, y)) in ta.iter().zip(tb).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!("trace {i} sample {s}: {x:e} vs {y:e}"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Option<Args> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn trace_counts_must_be_positive() {
        let selftest = parse(&["--selftest"]).expect("default budget");
        assert!(selftest.selftest);
        assert_eq!(selftest.tpc, 16);
        assert_eq!(parse(&["--selftest", "2"]).expect("valid").tpc, 2);
        assert_eq!(parse(&["f.json", "--tpc", "8"]).expect("valid").tpc, 8);
        for bad in ["0", "x2", "-1", ""] {
            assert!(parse(&["--selftest", bad]).is_none(), "--selftest {bad:?}");
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
