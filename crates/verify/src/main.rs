//! `sca-verify` — static masking-security analyzer CLI.
//!
//! ```text
//! sca-verify [SCHEME...] [--json-dir DIR] [--quiet]
//! ```
//!
//! With no schemes (or `all`), analyzes all seven netlists. Prints the
//! human report and writes `DIR/<scheme>.json` (default
//! `results/verify`). The reports are the documents pinned under
//! `tests/golden/verify/`; `cargo test --test verify_expectations`
//! byte-checks them.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use sbox_circuits::{SboxCircuit, Scheme};
use sca_verify::{analyze, expect, report};

struct Options {
    schemes: Vec<Scheme>,
    json_dir: PathBuf,
    quiet: bool,
}

fn parse_scheme(name: &str) -> Option<Scheme> {
    match name.to_lowercase().as_str() {
        "lut" => Some(Scheme::Lut),
        "opt" | "lut-opt" => Some(Scheme::Opt),
        "glut" => Some(Scheme::Glut),
        "rsm" => Some(Scheme::Rsm),
        "rsm-rom" | "rsmrom" => Some(Scheme::RsmRom),
        "isw" => Some(Scheme::Isw),
        "ti" => Some(Scheme::Ti),
        _ => None,
    }
}

fn usage() -> &'static str {
    "usage: sca-verify [SCHEME...] [--json-dir DIR] [--quiet]\n\
     SCHEME: all lut lut-opt glut rsm rsm-rom isw ti (default: all)"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        schemes: Vec::new(),
        json_dir: PathBuf::from("results/verify"),
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json-dir" => {
                let dir = it.next().ok_or("--json-dir needs a value")?;
                opts.json_dir = PathBuf::from(dir);
            }
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            "all" => opts.schemes.extend(Scheme::ALL),
            name => {
                let scheme = parse_scheme(name)
                    .ok_or_else(|| format!("unknown scheme '{name}'\n{}", usage()))?;
                opts.schemes.push(scheme);
            }
        }
    }
    if opts.schemes.is_empty() {
        opts.schemes.extend(Scheme::ALL);
    }
    // Each scheme once, at its first mention.
    let mut seen = HashSet::new();
    opts.schemes.retain(|&s| seen.insert(s));
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    for &scheme in &opts.schemes {
        let analysis = analyze(&SboxCircuit::build(scheme));
        if !opts.quiet {
            print!("{}", report::human(&analysis));
        }
        let path = expect::expectation_path(&opts.json_dir, scheme.label());
        if let Err(e) = expect::bless(&path, &report::json(&analysis)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemes(args: &[&str]) -> Vec<Scheme> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).expect("valid arguments").schemes
    }

    #[test]
    fn each_scheme_is_analyzed_once_in_first_mention_order() {
        assert_eq!(schemes(&[]), Scheme::ALL);
        assert_eq!(schemes(&["all", "isw"]), Scheme::ALL);
        assert_eq!(schemes(&["isw", "ti", "isw"]), [Scheme::Isw, Scheme::Ti]);
        assert_eq!(
            schemes(&["ti", "TI", "rsm-rom", "rsmrom"]),
            [Scheme::Ti, Scheme::RsmRom]
        );
        let mut isw_first = vec![Scheme::Isw];
        isw_first.extend(Scheme::ALL.into_iter().filter(|&s| s != Scheme::Isw));
        assert_eq!(schemes(&["isw", "all"]), isw_first);
    }

    #[test]
    fn unknown_schemes_and_missing_values_are_errors() {
        let parse = |args: &[&str]| {
            parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).is_err()
        };
        assert!(parse(&["nope"]));
        assert!(parse(&["--json-dir"]));
        assert!(!parse(&["--json-dir", "out", "-q", "lut"]));
    }
}
