//! `dgsched-analyze` — the determinism lint behind the contracts the
//! rest of the system stakes its results on.
//!
//! Byte-identical parallel sweeps, crash-safe resume, and the
//! fingerprint-keyed serve cache all assume that a `RunResult` depends
//! only on `(scenario, seed, stopping rule)` — never on pool width, hash
//! seeds, wall clocks, or thread identity. Nothing used to *enforce*
//! that: this crate walks `crates/**/*.rs` with a hand-rolled scanner
//! ([`lexer`]) and flags the four leak classes ([`rules::RULES`]) that
//! can silently break the contract. In the knowledge-free spirit of the
//! paper's verification story, the lint checks what the code *does*, not
//! what its author claims — and every exception must be written down in
//! source with a reason.
//!
//! Scope policy, deliberately simple and documented here once:
//!
//! * the default walk covers `crates/**/*.rs`, **excluding** `tests/`
//!   directories, files named `tests.rs`, `benches/`, and anything under
//!   `target/` — test shadow state is not result-path;
//! * `#[cfg(test)]` / `#[test]`-gated items inside shipping files are
//!   skipped the same way;
//! * a small built-in path allowlist covers the two places whose entire
//!   purpose is wall-clock measurement (`crates/des/src/profile.rs`, the
//!   feature-gated span engine, and the `crates/bench` harness);
//! * everything else needs an in-source
//!   `// dgsched-analyze: allow(<rule>) -- <reason>` suppression.

pub mod lexer;
pub mod rules;

use rules::{scan_source, Finding};
use std::path::{Path, PathBuf};

/// Built-in (rule, path-suffix-or-component, reason) allowlist. Paths
/// are matched against `/`-normalized file paths.
pub const PATH_ALLOW: &[(&str, &str, &str)] = &[
    (
        "wall-clock",
        "crates/des/src/profile.rs",
        "the feature-gated profiling span engine exists to read the wall clock; \
         spans never feed results",
    ),
    (
        "wall-clock",
        "crates/bench/",
        "the criterion benches and the benchmark package measure wall time by \
         design; their timings are never simulation results",
    ),
];

/// Result of linting a set of files.
#[derive(Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// `(file, comment-line)` of suppressions that matched nothing.
    pub unused_suppressions: Vec<(String, u32)>,
    pub files_scanned: usize,
}

/// Lints one already-read source buffer (the unit the fixture tests
/// drive directly). Applies the path allowlist.
pub fn lint_source(path: &Path, src: &str) -> rules::ScanOutcome {
    let mut out = scan_source(path, src);
    let norm = path.display().to_string().replace('\\', "/");
    out.findings.retain(|f| {
        !PATH_ALLOW
            .iter()
            .any(|(rule, frag, _)| f.rule == *rule && norm.contains(frag))
    });
    out
}

/// Lints every file in `files` (read from disk), in the given order.
pub fn lint_files(files: &[PathBuf]) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let out = lint_source(path, &src);
        report.findings.extend(out.findings);
        report
            .unused_suppressions
            .extend(out.unused.iter().map(|&l| (path.display().to_string(), l)));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Collects `*.rs` under `root`, depth-first in sorted order (the lint's
/// own output must be deterministic), applying the scope policy: skips
/// `target`, `tests`, `benches` and `fixtures` directories and files
/// named `tests.rs`.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    collect_into(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_into(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "target" | "tests" | "benches" | "fixtures") {
                continue;
            }
            collect_into(&path, out)?;
        } else if name.ends_with(".rs") && name != "tests.rs" {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root (the ancestor of `start` whose `Cargo.toml`
/// declares `[workspace]`).
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Lints the default scope (`<workspace>/crates`).
pub fn lint_tree(workspace: &Path) -> Result<LintReport, String> {
    let files = collect_rs_files(&workspace.join("crates"))?;
    lint_files(&files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_allowlist_swallows_bench_wall_clock() {
        let path = PathBuf::from("crates/bench/benches/queues.rs");
        let out = lint_source(&path, "fn f() { let t = Instant::now(); }\n");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn path_allowlist_is_rule_specific() {
        let path = PathBuf::from("crates/bench/benches/queues.rs");
        let out = lint_source(&path, "fn f() { let m = HashMap::new(); }\n");
        assert_eq!(out.findings.len(), 1, "only wall-clock is allowlisted");
    }

    #[test]
    fn allowlist_reasons_are_written_down() {
        for (rule, _, reason) in PATH_ALLOW {
            assert!(rules::rule_named(rule).is_some(), "unknown rule {rule}");
            assert!(!reason.is_empty());
        }
    }
}
