//! `figlint.toml` loading: a minimal, dependency-free TOML subset.
//!
//! The configuration language is the subset the rule catalog needs —
//! `[section]` tables, `key = "string"`, and `key = [ "…", "…" ]` string
//! arrays (multi-line, trailing commas allowed, `#` comments). Unknown
//! sections or keys are **errors**: a typo in a rule name must not
//! silently disable the rule.
//!
//! ## Allowlist entries
//!
//! Every rule accepts an `allow` array. Each entry is one string:
//!
//! ```text
//! "<path>[: <token>] -- <justification>"
//! ```
//!
//! * `path` — workspace-relative file the exemption applies to;
//! * `token` — optional refinement: the violating line must contain the
//!   token, **or** the enclosing function must be named exactly `token`
//!   (for the panic audit the token is instead a decimal **site
//!   budget**);
//! * `justification` — required free text; an entry without one is a
//!   configuration error. Allowlists exist to *record* why a violation
//!   is acceptable, not to hide it.
//!
//! Entries that match nothing are reported as `FIG000` (stale allow) so
//! the list can only shrink when the code improves.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path the exemption applies to.
    pub path: String,
    /// Optional refinement token (or budget, for the panic audit).
    pub token: Option<String>,
    /// Why the exemption is sound (required).
    pub justification: String,
    /// `figlint.toml` line the entry was defined on (for FIG000).
    pub line: usize,
}

impl AllowEntry {
    /// Parses `"<path>[: <token>] -- <justification>"`.
    fn parse(raw: &str, line: usize) -> Result<AllowEntry, String> {
        let Some((head, justification)) = raw.split_once(" -- ") else {
            return Err(format!(
                "figlint.toml:{line}: allow entry `{raw}` is missing a ` -- justification`"
            ));
        };
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!(
                "figlint.toml:{line}: allow entry `{raw}` has an empty justification"
            ));
        }
        let (path, token) = match head.split_once(": ") {
            Some((p, t)) => (p.trim(), Some(t.trim().to_string())),
            None => (head.trim(), None),
        };
        if path.is_empty() {
            return Err(format!("figlint.toml:{line}: allow entry `{raw}` has an empty path"));
        }
        Ok(AllowEntry {
            path: path.to_string(),
            token,
            justification: justification.to_string(),
            line,
        })
    }
}

/// A raw string value with its source line.
#[derive(Debug, Clone)]
pub struct Spanned {
    /// The string value.
    pub value: String,
    /// 1-based `figlint.toml` line.
    pub line: usize,
}

/// Parsed configuration: `section.key` → list of spanned strings.
#[derive(Debug, Default)]
pub struct LintConfig {
    values: BTreeMap<String, Vec<Spanned>>,
}

/// The sections and keys the rule catalog understands.
const SCHEMA: &[&str] = &[
    "determinism.crates",
    "determinism.allow",
    "horizon.crates",
    "horizon.allow",
    "floats.float_structs",
    "floats.scopes",
    "floats.sanitizers",
    "floats.allow",
    "env_registry.prefix",
    "env_registry.docs",
    "env_registry.usage",
    "env_registry.allow",
    "panics.crates",
    "panics.allow",
    "probe.crates",
    "probe.emit",
    "probe.guards",
    "probe.allow",
];

impl LintConfig {
    /// Parses `figlint.toml` text.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("figlint.toml:{lineno}: expected `key = value`, got `{line}`"));
            };
            let key = key.trim();
            let full =
                if section.is_empty() { key.to_string() } else { format!("{section}.{key}") };
            if !SCHEMA.contains(&full.as_str()) {
                let mut known = String::new();
                for s in SCHEMA {
                    let _ = write!(known, " {s}");
                }
                return Err(format!("figlint.toml:{lineno}: unknown key `{full}` (known:{known})"));
            }
            let mut value = value.trim().to_string();
            let entry = cfg.values.entry(full).or_default();
            if let Some(s) = parse_bare_string(&value) {
                entry.push(Spanned { value: s, line: lineno });
                continue;
            }
            if !value.starts_with('[') {
                return Err(format!(
                    "figlint.toml:{lineno}: expected a \"string\" or [array], got `{value}`"
                ));
            }
            // Accumulate array text until the closing bracket.
            while !array_closed(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("figlint.toml:{lineno}: unterminated array"));
                };
                value.push('\n');
                value.push_str(strip_comment(next).trim_end());
            }
            for (at, piece) in (lineno..).zip(value.split('\n')) {
                for s in split_array_strings(piece, at)? {
                    entry.push(s);
                }
            }
        }
        Ok(cfg)
    }

    /// String-list value of `section.key` (empty when absent).
    #[must_use]
    pub fn list(&self, key: &str) -> Vec<Spanned> {
        self.values.get(key).cloned().unwrap_or_default()
    }

    /// Plain string values of `section.key`.
    #[must_use]
    pub fn strings(&self, key: &str) -> Vec<String> {
        self.list(key).into_iter().map(|s| s.value).collect()
    }

    /// Single string value (last one wins), or `default`.
    #[must_use]
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.list(key).last().map_or_else(|| default.to_string(), |s| s.value.clone())
    }

    /// Parsed allowlist for a rule section.
    pub fn allow(&self, section: &str) -> Result<Vec<AllowEntry>, String> {
        self.list(&format!("{section}.allow"))
            .iter()
            .map(|s| AllowEntry::parse(&s.value, s.line))
            .collect()
    }
}

/// Strips a `#` comment (quote-aware).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// `"string"` → contents, else `None`.
fn parse_bare_string(v: &str) -> Option<String> {
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

/// Whether the accumulated array text has its closing `]` (quote-aware).
fn array_closed(text: &str) -> bool {
    let mut in_str = false;
    for b in text.bytes() {
        match b {
            b'"' => in_str = !in_str,
            b']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

/// Extracts the `"…"` elements of one physical line of array text.
fn split_array_strings(piece: &str, line: usize) -> Result<Vec<Spanned>, String> {
    let mut out = Vec::new();
    let bytes = piece.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if j >= bytes.len() {
                return Err(format!("figlint.toml:{line}: unterminated string in array"));
            }
            out.push(Spanned { value: piece[start..j].to_string(), line });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_strings() {
        let text = "\n# top comment\n[determinism]\ncrates = [\n    \"crates/core\", # inline\n    \"crates/sim\",\n]\nallow = [\"a.rs: tok -- why\"]\n\n[env_registry]\nprefix = \"FIGARO_\"\n";
        let cfg = LintConfig::parse(text).unwrap();
        assert_eq!(cfg.strings("determinism.crates"), vec!["crates/core", "crates/sim"]);
        assert_eq!(cfg.string_or("env_registry.prefix", "X"), "FIGARO_");
        let allow = cfg.allow("determinism").unwrap();
        assert_eq!(allow.len(), 1);
        assert_eq!(allow[0].path, "a.rs");
        assert_eq!(allow[0].token.as_deref(), Some("tok"));
        assert_eq!(allow[0].justification, "why");
    }

    #[test]
    fn rejects_unknown_keys() {
        let err = LintConfig::parse("[determinism]\ncrate = [\"x\"]\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn rejects_missing_justification() {
        let cfg = LintConfig::parse("[horizon]\nallow = [\"a.rs: tok\"]\n").unwrap();
        let err = cfg.allow("horizon").unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn entry_lines_point_into_the_file() {
        let text = "[panics]\nallow = [\n  \"a.rs: 3 -- documented\",\n  \"b.rs -- fine\",\n]\n";
        let cfg = LintConfig::parse(text).unwrap();
        let allow = cfg.allow("panics").unwrap();
        assert_eq!(allow[0].line, 3);
        assert_eq!(allow[1].line, 4);
    }
}
