//! FIG002 — horizon sentinels: no `::MAX` defaults in horizon-shaped
//! functions.
//!
//! The PR-3 bug class: a conservative-PDES horizon function that folds
//! per-source bounds with `unwrap_or(Cycle::MAX)` silently treats "this
//! source has no pending event" as "this source never constrains the
//! horizon". When a whole category is empty (e.g. refresh disabled) the
//! horizon jumps to infinity and the event kernel skips events it
//! should have executed, diverging from the reference kernel.
//!
//! The rule scans functions whose name contains `horizon` or starts
//! with `next_` / `earliest_` inside the crates listed under `[horizon]
//! crates`, and flags lines that combine a defaulting combinator
//! (`unwrap_or`, `unwrap_or_else`, `map_or`, `map_or_else`, `.fold(`)
//! or a `None =>` match arm with a `::MAX` sentinel. The fix is a
//! dedicated backstop (PR-3's `compute_horizon` clamps against the
//! global event floor) or an explicit `Option` return; a deliberate
//! sentinel needs an `[horizon] allow` entry naming the function.
//!
//! Known limitation: the check is line-based, so a combinator split
//! across lines (`.map_or(\n    Cycle::MAX, …)`) evades it. `rustfmt`
//! keeps these on one line at the widths used in this workspace.

use crate::rules::{in_crates, AllowTracker};
use crate::{Diagnostic, Workspace};

/// Combinators that substitute a default for an absent value.
const DEFAULTING: &[&str] =
    &["unwrap_or(", "unwrap_or_else(", "map_or(", "map_or_else(", ".fold(", "None =>"];

/// Whether a function name is horizon-shaped.
#[must_use]
pub fn is_horizon_fn(name: &str) -> bool {
    name.contains("horizon") || name.starts_with("next_") || name.starts_with("earliest_")
}

/// Runs FIG002 over the workspace.
pub fn run(ws: &Workspace, tracker: &mut AllowTracker) -> Result<Vec<Diagnostic>, String> {
    let crates = ws.config.strings("horizon.crates");
    tracker.register("horizon", ws.config.allow("horizon")?);
    let mut diags = Vec::new();
    for file in &ws.files {
        if !in_crates(&file.rel_path, &crates) {
            continue;
        }
        for (i, code) in file.code_lines.iter().enumerate() {
            let line = i + 1;
            if file.is_test_line(line) {
                continue;
            }
            let Some(f) = file.fn_at(line) else { continue };
            if !is_horizon_fn(&f.name) {
                continue;
            }
            if !code.contains("::MAX") {
                continue;
            }
            let Some(comb) = DEFAULTING.iter().find(|d| code.contains(**d)) else {
                continue;
            };
            if tracker.allows("horizon", &file.rel_path, code, Some(&f.name)) {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line,
                rule: "FIG002",
                message: format!(
                    "`::MAX` used as a `{}` default in horizon-shaped fn `{}` — an empty \
                     event source must not unbound the horizon (PR-3 bug class); clamp \
                     against a global backstop or return `Option` instead",
                    comb.trim_end_matches('('),
                    f.name
                ),
            });
        }
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_fn_names() {
        assert!(is_horizon_fn("in_order_horizon"));
        assert!(is_horizon_fn("compute_horizon"));
        assert!(is_horizon_fn("next_refresh"));
        assert!(is_horizon_fn("earliest_ready"));
        assert!(!is_horizon_fn("advance"));
        assert!(!is_horizon_fn("renext_thing"));
    }
}
