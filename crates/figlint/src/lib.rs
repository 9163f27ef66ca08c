//! # figlint — repo-specific static analysis for the FIGARO workspace
//!
//! FIGARO's headline claim is **bit-identical reproduction**: the exact
//! kernels, four schedulers and a sweep grid must all agree to the last
//! bit, and a shared on-disk result cache must never return anything a
//! fresh run would not produce (the cache itself guarantees the latter:
//! each entry is named by its full run spec and checked on read). The
//! invariants that make the rest true are domain rules no generic linter
//! knows:
//!
//! | Rule | ID | Bug class it mechanizes |
//! |---|---|---|
//! | [`rules::determinism`] | FIG001 | order-dependent `HashMap`/`HashSet` iteration, wall-clock reads, unseeded RNG in result-affecting crates |
//! | [`rules::horizon`] | FIG002 | `Cycle::MAX`/`u64::MAX` as `unwrap_or`/`fold` defaults in `*horizon*`/`next_*`/`earliest_*` functions (the PR-3 refresh-disable bug) |
//! | [`rules::floats`] | FIG003 | lossy `{}`/`{:?}` float formatting in serialization functions (the PR-6 cache-corruption bug) |
//! | [`rules::env_registry`] | FIG005 | `FIGARO_*` env vars read in code but undocumented (or documented but unread) |
//! | [`rules::panics`] | FIG006 | unbudgeted `unwrap`/`expect`/`panic!` growth in library code |
//! | [`rules::probe`] | FIG007 | telemetry emits in result-affecting crates not behind the zero-cost `probe!` guard |
//! | (driver) | FIG000 | stale allowlist entries that no longer match anything |
//!
//! The analyzer is a hand-rolled line/token scanner (see [`scan`]) — no
//! `syn`, no registry dependencies, consistent with the workspace's
//! offline-shims constraint. Rules are configured by a root
//! `figlint.toml` ([`config`]) whose allowlists **require a
//! justification string** and fail the run when they go stale.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p figlint --release
//! ```
//!
//! Exit status: `0` clean, `1` violations, `2` configuration/IO errors.

#![forbid(unsafe_code)]

pub mod config;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

use config::LintConfig;
use scan::SourceFile;

/// One finding, printable as `file:line: [RULE] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule ID (`FIG000` … `FIG007`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The scanned workspace rules operate on.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Lexed `.rs` files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Parsed `figlint.toml`.
    pub config: LintConfig,
}

impl Workspace {
    /// The lexed file at a workspace-relative path.
    #[must_use]
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel)
    }

    /// Reads a non-Rust text file (e.g. `README.md`) relative to root.
    pub fn read_text(&self, rel: &str) -> Result<String, String> {
        std::fs::read_to_string(self.root.join(rel)).map_err(|e| format!("{rel}: cannot read: {e}"))
    }
}

/// Directory names the walker never descends into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".github"];

/// Collects every `.rs` file under `root` (skipping build output, VCS
/// metadata and figlint's own lint fixtures), lexes them, and loads
/// `figlint.toml`.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let toml_path = root.join("figlint.toml");
    let toml_text = std::fs::read_to_string(&toml_path)
        .map_err(|e| format!("{}: cannot read: {e}", toml_path.display()))?;
    let config = LintConfig::parse(&toml_text)?;
    let mut rel_paths = Vec::new();
    walk(root, root, &mut rel_paths)?;
    rel_paths.sort();
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("{rel}: cannot read: {e}"))?;
        files.push(SourceFile::lex(&rel, &text));
    }
    Ok(Workspace { root: root.to_path_buf(), files, config })
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot list: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: cannot list: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Runs the full rule catalog on the workspace at `root`.
///
/// Returns diagnostics sorted by `(file, line, rule)`; an empty vector
/// means the workspace is clean.
pub fn analyze_root(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = load_workspace(root)?;
    let mut tracker = rules::AllowTracker::default();
    let mut diags = Vec::new();
    diags.extend(rules::determinism::run(&ws, &mut tracker)?);
    diags.extend(rules::horizon::run(&ws, &mut tracker)?);
    diags.extend(rules::floats::run(&ws, &mut tracker)?);
    diags.extend(rules::env_registry::run(&ws, &mut tracker)?);
    diags.extend(rules::panics::run(&ws, &mut tracker)?);
    diags.extend(rules::probe::run(&ws, &mut tracker)?);
    diags.extend(tracker.stale());
    diags.sort();
    diags.dedup();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            file: "crates/core/src/engine.rs".into(),
            line: 42,
            rule: "FIG001",
            message: "HashMap iteration".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/engine.rs:42: [FIG001] HashMap iteration");
    }
}
