//! Source-level deny-list for the library crates.
//!
//! The two crates on user-input paths come first: the netlist frontend
//! (parses foreign files) and the repair engine (transforms whatever the
//! frontend produced). Both must degrade through typed errors, never
//! panics: a malformed EDIF or a hostile netlist is an expected input,
//! and a panic inside a parser is a denial-of-service on every tool
//! built on top. `.expect(` stays allowed in the frontend, where it
//! documents checked invariants (and names a parser combinator in
//! `json.rs`) — but the newer repair crate is held to the stricter bar.
//!
//! The analysis and capture crates ([`LIBRARY_CRATES`]) are held to the
//! same default list. `netlist` and `sboxes` stay out: both keep
//! internal `unreachable!`s on invariants of netlists they built
//! themselves.
//!
//! The scan covers non-test code only: everything above the trailing
//! `#[cfg(test)] mod …` test module. A `#[cfg(test)]` on a single item
//! (a test-only helper, or a `mod name;` declaration) does not end it.

use std::path::Path;

/// Library crates held to the default deny-list, besides the frontend
/// and repair crates.
const LIBRARY_CRATES: [&str; 8] = [
    "core",
    "attacks",
    "acquisition",
    "aging",
    "gatesim",
    "campaign",
    "verify",
    "present",
];

/// Tokens that abort the process instead of returning an error.
const DENIED: [&str; 5] = [
    "panic!",
    ".unwrap()",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

fn scan(dir: &Path, extra_denied: &[&str]) -> Vec<String> {
    let mut findings = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let lines: Vec<&str> = text.lines().collect();
        for (lineno, line) in lines.iter().enumerate() {
            if opens_test_module(&lines, lineno) {
                break;
            }
            let code = line.split("//").next().unwrap_or(line);
            for token in DENIED.iter().chain(extra_denied) {
                if code.contains(token) {
                    findings.push(format!(
                        "{}:{}: {}",
                        path.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    findings
}

/// Whether line `i` opens the trailing test module: `#[cfg(test)]`
/// followed, on the same or the next line, by an inline `mod … {`.
fn opens_test_module(lines: &[&str], i: usize) -> bool {
    let Some(rest) = lines[i].trim().strip_prefix("#[cfg(test)]") else {
        return false;
    };
    let item = match rest.trim() {
        "" => lines.get(i + 1).map_or("", |next| next.trim()),
        same_line => same_line,
    };
    item.starts_with("mod ") && item.ends_with('{')
}

fn crate_src(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(name)
        .join("src")
}

#[test]
fn frontend_library_code_never_panics_on_input() {
    let findings = scan(&crate_src("frontend"), &[]);
    assert!(
        findings.is_empty(),
        "frontend must return typed errors, not panic:\n{}",
        findings.join("\n")
    );
}

#[test]
fn repair_library_code_never_panics_on_input() {
    let findings = scan(&crate_src("repair"), &[".expect("]);
    assert!(
        findings.is_empty(),
        "repair must return typed errors, not panic:\n{}",
        findings.join("\n")
    );
}

#[test]
fn library_crates_never_panic_on_input() {
    let findings: Vec<String> = LIBRARY_CRATES
        .iter()
        .flat_map(|name| scan(&crate_src(name), &[]))
        .collect();
    assert!(
        findings.is_empty(),
        "library crates must return typed errors, not panic:\n{}",
        findings.join("\n")
    );
}

#[test]
fn only_the_trailing_test_module_ends_the_scan() {
    let file = [
        "#[cfg(test)]",
        "fn helper() {}",
        "#[cfg(test)]",
        "mod window;",
        "#[cfg(test)]",
        "mod tests {",
    ];
    let ends: Vec<usize> = (0..file.len())
        .filter(|&i| opens_test_module(&file, i))
        .collect();
    assert_eq!(ends, [4]);
    assert!(opens_test_module(&["#[cfg(test)] mod tests {"], 0));
}
