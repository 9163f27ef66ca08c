//! FIG005 — env-var registry: every `FIGARO_*` variable read in code
//! must be documented, and every documented one must still be read.
//!
//! Environment toggles are the least discoverable configuration surface
//! the simulator has — nothing type-checks them, and an undocumented
//! one is invisible until someone greps. The rule keeps three sets in
//! sync:
//!
//! * **reads** — string literals starting with `[env_registry] prefix`
//!   on lines that call one of [`READERS`] (`env::var` / `env::var_os`,
//!   or the `env_var` / `env_lookup` closure a parser that takes a lookup
//!   function reads through), anywhere in the workspace (test code
//!   included: a test-only knob still needs docs);
//! * **docs** — `FIGARO_*` tokens appearing in the `[env_registry]
//!   docs` files (e.g. `README.md`);
//! * **usage** — tokens in string literals of the `[env_registry]
//!   usage` files (e.g. the `diag` binary's `usage()` text).
//!
//! A read missing from docs or usage is flagged at the read site; a
//! documented/usage token nothing reads is flagged where it is written
//! (a rename that forgot the docs). `[env_registry] allow` entries use
//! the variable name as the path: `"FIGARO_FOO -- why"`.

use crate::rules::AllowTracker;
use crate::{Diagnostic, Workspace};

/// Calls that read a variable: the process environment directly, or the
/// lookup closure `Runner::from_env` parses through (`env_lookup`, and
/// `env_var`, which drops empty values) so tests never touch the process
/// environment.
const READERS: &[&str] = &["env::var(", "env::var_os(", "env_var(", "env_lookup("];

/// Runs FIG005 over the workspace.
pub fn run(ws: &Workspace, tracker: &mut AllowTracker) -> Result<Vec<Diagnostic>, String> {
    let prefix = ws.config.string_or("env_registry.prefix", "FIGARO_");
    tracker.register("env_registry", ws.config.allow("env_registry")?);

    // (var, file, line) for every same-line `<reader>("PREFIX…")` read.
    let mut reads: Vec<(String, String, usize)> = Vec::new();
    for file in &ws.files {
        for (i, code) in file.code_lines.iter().enumerate() {
            let line = i + 1;
            if !READERS.iter().any(|r| code.contains(r)) {
                continue;
            }
            for lit in file.strings_on(line) {
                if lit.text.starts_with(&prefix) && is_var_name(&lit.text) {
                    reads.push((lit.text.clone(), file.rel_path.clone(), line));
                }
            }
        }
    }

    // Tokens mentioned in docs files and usage files.
    let mut docs: Vec<(String, String, usize)> = Vec::new();
    for doc in ws.config.strings("env_registry.docs") {
        let text = ws.read_text(&doc)?;
        for (i, line) in text.lines().enumerate() {
            for tok in extract_tokens(line, &prefix) {
                docs.push((tok, doc.clone(), i + 1));
            }
        }
    }
    let mut usage: Vec<(String, String, usize)> = Vec::new();
    for path in ws.config.strings("env_registry.usage") {
        let Some(file) = ws.file(&path) else {
            return Err(format!("figlint.toml: [env_registry] usage: no such file `{path}`"));
        };
        for lit in &file.strings {
            for tok in extract_tokens(&lit.text, &prefix) {
                usage.push((tok, path.clone(), lit.line));
            }
        }
    }

    let mut diags = Vec::new();
    let mut flag = |var: &str, file: &str, line: usize, msg: String, tr: &mut AllowTracker| {
        if tr.take("env_registry", var).is_none() {
            diags.push(Diagnostic { file: file.into(), line, rule: "FIG005", message: msg });
        }
    };
    let read_vars: Vec<&String> = reads.iter().map(|(v, _, _)| v).collect();
    let mut seen = Vec::new();
    for (var, file, line) in &reads {
        if seen.contains(var) {
            continue;
        }
        seen.push(var.clone());
        if !docs.iter().any(|(v, _, _)| v == var) {
            flag(
                var,
                file,
                *line,
                format!("`{var}` is read here but not documented in the env-var registry"),
                tracker,
            );
        }
        if !usage.is_empty() && !usage.iter().any(|(v, _, _)| v == var) {
            flag(
                var,
                file,
                *line,
                format!("`{var}` is read here but missing from the diag usage catalog"),
                tracker,
            );
        }
    }
    for set in [&docs, &usage] {
        let mut seen = Vec::new();
        for (var, file, line) in set {
            if seen.contains(var) || read_vars.contains(&var) {
                continue;
            }
            seen.push(var.clone());
            flag(
                var,
                file,
                *line,
                format!("`{var}` is documented here but nothing in the workspace reads it"),
                tracker,
            );
        }
    }
    Ok(diags)
}

/// Whether `s` is a well-formed env-var name (`A–Z`, `0–9`, `_`).
fn is_var_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Maximal `PREFIX[A-Z0-9_]*` tokens in `text`.
fn extract_tokens(text: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = text[start..].find(prefix) {
        let abs = start + p;
        // Reject mid-identifier matches (`XFIGARO_Y`).
        let boundary = abs == 0
            || !text[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let rest = &text[abs..];
        let len = rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_'))
            .map_or(rest.len(), |(i, _)| i);
        let tok = &rest[..len];
        if boundary && tok.len() > prefix.len() && !out.contains(&tok.to_string()) {
            out.push(tok.to_string());
        }
        start = abs + prefix.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_extraction() {
        let toks = extract_tokens(
            "| `FIGARO_KERNEL` | picks kernel | also FIGARO_SCHED. XFIGARO_NOPE",
            "FIGARO_",
        );
        assert_eq!(toks, vec!["FIGARO_KERNEL", "FIGARO_SCHED"]);
    }

    #[test]
    fn var_name_shape() {
        assert!(is_var_name("FIGARO_FREE_RELOC"));
        assert!(!is_var_name("FIGARO_lower"));
        assert!(!is_var_name(""));
    }
}
