//! Source scanning: a comment/string-aware lexical pass over Rust files.
//!
//! figlint deliberately avoids a full parser (`syn` would be a network
//! dependency; the workspace builds offline). Instead every file is run
//! through a character-level state machine that produces:
//!
//! * **code text** — the source with comment bodies and string/char
//!   literal contents blanked to spaces (line structure preserved), so
//!   token scans never match inside a comment or a string;
//! * **string literals** — each literal's line, column and content, for
//!   the rules that *do* care about strings (env-var reads, format
//!   strings);
//! * **test spans** — lines inside `#[cfg(test)]` modules, which most
//!   rules skip;
//! * **function spans** — `(name, start..end)` line ranges found by
//!   lexical brace matching, so rules can scope checks to functions by
//!   name (`*horizon*`, serializers, …).
//!
//! The model is heuristic by design: it trades exhaustive syntactic
//! fidelity for zero dependencies and total transparency. Each rule
//! documents the idioms it recognizes; code that defeats the scanner
//! (e.g. building an env-var name by concatenation) is a review problem,
//! not a lint problem.

/// One extracted string literal.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 1-based line of the opening quote.
    pub line: usize,
    /// 0-based byte column of the opening quote within that line.
    pub col: usize,
    /// Literal content (escapes left as written; no unescaping).
    pub text: String,
}

/// A function span found by lexical scanning.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the closing brace.
    pub end: usize,
}

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Code text per line (comments and literal contents blanked).
    pub code_lines: Vec<String>,
    /// All string literals in order of appearance.
    pub strings: Vec<StrLit>,
    /// `true` for lines inside a `#[cfg(test)]` module.
    pub test_mask: Vec<bool>,
    /// Function spans (outer and nested, in source order).
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes `source` into the scan model.
    #[must_use]
    pub fn lex(rel_path: &str, source: &str) -> SourceFile {
        let (code, strings) = blank_noncode(source);
        let code_lines: Vec<String> = code.lines().map(str::to_string).collect();
        let test_mask = mask_test_mods(&code_lines);
        let fns = find_fns(&code_lines);
        SourceFile { rel_path: rel_path.to_string(), code_lines, strings, test_mask, fns }
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` module.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// The innermost function span containing 1-based `line`.
    #[must_use]
    pub fn fn_at(&self, line: usize) -> Option<&FnSpan> {
        self.fns.iter().filter(|f| f.start <= line && line <= f.end).min_by_key(|f| f.end - f.start)
    }

    /// String literals whose opening quote sits on 1-based `line`.
    pub fn strings_on(&self, line: usize) -> impl Iterator<Item = &StrLit> {
        self.strings.iter().filter(move |s| s.line == line)
    }

    /// Code text of a 1-based inclusive line range, joined with newlines.
    #[must_use]
    pub fn code_span(&self, start: usize, end: usize) -> String {
        self.code_lines[start - 1..end.min(self.code_lines.len())].join("\n")
    }
}

/// Lexer state for [`blank_noncode`].
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

/// Blanks comments and literal contents: returns the code text (same
/// line structure as the input) and the extracted string literals.
fn blank_noncode(src: &str) -> (String, Vec<StrLit>) {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut strings = Vec::new();
    let mut state = State::Normal;
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 0usize;
    let mut cur_lit: Option<StrLit> = None;
    let mut cur_text = String::new();
    while i < bytes.len() {
        let c = bytes[i];
        let push = |out: &mut Vec<u8>, b: u8| out.push(b);
        match state {
            State::Normal => {
                if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    push(&mut out, b' ');
                    push(&mut out, b' ');
                    i += 2;
                    col += 2;
                    continue;
                }
                if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    push(&mut out, b' ');
                    push(&mut out, b' ');
                    i += 2;
                    col += 2;
                    continue;
                }
                if c == b'"' {
                    cur_lit = Some(StrLit { line, col, text: String::new() });
                    cur_text.clear();
                    state = State::Str { raw_hashes: None };
                    push(&mut out, b'"');
                    i += 1;
                    col += 1;
                    continue;
                }
                if c == b'r' && matches!(bytes.get(i + 1), Some(b'"' | b'#')) {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        cur_lit = Some(StrLit { line, col, text: String::new() });
                        cur_text.clear();
                        state = State::Str { raw_hashes: Some(hashes) };
                        for _ in i..=j {
                            push(&mut out, b' ');
                        }
                        col += j - i + 1;
                        i = j + 1;
                        continue;
                    }
                }
                if c == b'\'' {
                    // Char literal vs lifetime: a lifetime is `'ident` not
                    // followed by a closing quote.
                    let next = bytes.get(i + 1).copied().unwrap_or(0);
                    let is_lifetime = (next.is_ascii_alphabetic() || next == b'_')
                        && bytes.get(i + 2) != Some(&b'\'');
                    if !is_lifetime {
                        state = State::Char;
                        push(&mut out, b'\'');
                        i += 1;
                        col += 1;
                        continue;
                    }
                }
                push(&mut out, c);
            }
            State::LineComment => {
                if c == b'\n' {
                    state = State::Normal;
                    push(&mut out, b'\n');
                } else {
                    push(&mut out, b' ');
                }
            }
            State::BlockComment(depth) => {
                if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    push(&mut out, b' ');
                    push(&mut out, b' ');
                    i += 2;
                    col += 2;
                    continue;
                }
                if c == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 { State::Normal } else { State::BlockComment(depth - 1) };
                    push(&mut out, b' ');
                    push(&mut out, b' ');
                    i += 2;
                    col += 2;
                    continue;
                }
                push(&mut out, if c == b'\n' { b'\n' } else { b' ' });
            }
            State::Str { raw_hashes } => {
                let closed = match raw_hashes {
                    None => {
                        if c == b'\\' {
                            // Skip the escaped byte too.
                            cur_text.push('\\');
                            if let Some(&e) = bytes.get(i + 1) {
                                cur_text.push(e as char);
                                push(&mut out, b' ');
                                push(&mut out, if e == b'\n' { b'\n' } else { b' ' });
                                if e == b'\n' {
                                    line += 1;
                                    col = 0;
                                } else {
                                    col += 2;
                                }
                                i += 2;
                                continue;
                            }
                            false
                        } else {
                            c == b'"'
                        }
                    }
                    Some(h) => {
                        if c == b'"' {
                            let mut j = i + 1;
                            let mut seen = 0u32;
                            while seen < h && bytes.get(j) == Some(&b'#') {
                                seen += 1;
                                j += 1;
                            }
                            seen == h
                        } else {
                            false
                        }
                    }
                };
                if closed {
                    let skip = 1 + raw_hashes.unwrap_or(0) as usize;
                    for _ in 0..skip {
                        push(&mut out, if skip == 1 { b'"' } else { b' ' });
                    }
                    if let Some(mut lit) = cur_lit.take() {
                        lit.text = std::mem::take(&mut cur_text);
                        strings.push(lit);
                    }
                    state = State::Normal;
                    i += skip;
                    col += skip;
                    continue;
                }
                cur_text.push(c as char);
                push(&mut out, if c == b'\n' { b'\n' } else { b' ' });
            }
            State::Char => {
                if c == b'\\' {
                    push(&mut out, b' ');
                    if bytes.get(i + 1).is_some() {
                        push(&mut out, b' ');
                        i += 2;
                        col += 2;
                        continue;
                    }
                } else if c == b'\'' {
                    state = State::Normal;
                    push(&mut out, b'\'');
                } else {
                    push(&mut out, if c == b'\n' { b'\n' } else { b' ' });
                }
            }
        }
        if c == b'\n' {
            line += 1;
            col = 0;
        } else {
            col += 1;
        }
        i += 1;
    }
    (String::from_utf8_lossy(&out).into_owned(), strings)
}

/// Marks the line spans of `#[cfg(test)] mod … { … }` blocks.
fn mask_test_mods(code_lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        if code_lines[i].contains("#[cfg(test)]") {
            // Find the `mod` item this attribute decorates (skipping
            // further attributes) and mask to its matching close brace.
            let mut j = i;
            let mut found_mod = false;
            while j < code_lines.len() {
                let t = code_lines[j].trim_start();
                if t.contains("mod ") || t.starts_with("mod") {
                    found_mod = true;
                    break;
                }
                // Attribute applied to a single fn/item instead of a
                // module: mask that item the same way.
                if t.contains("fn ") || t.contains("impl ") {
                    found_mod = true;
                    break;
                }
                j += 1;
                if j > i + 4 {
                    break;
                }
            }
            if found_mod {
                if let Some((_, end)) = brace_block(code_lines, j) {
                    for m in &mut mask[i..end] {
                        *m = true;
                    }
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// From `start_line` (0-based), finds the first `{` and returns the
/// 0-based start line and **1-based exclusive** end line of the block.
fn brace_block(code_lines: &[String], start_line: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut seen_open = false;
    for (li, l) in code_lines.iter().enumerate().skip(start_line) {
        for b in l.bytes() {
            match b {
                b'{' => {
                    depth += 1;
                    seen_open = true;
                }
                b'}' => depth -= 1,
                b';' if !seen_open => {
                    // Item without a body (trait method, use decl).
                    return None;
                }
                _ => {}
            }
            if seen_open && depth == 0 {
                return Some((start_line, li + 1));
            }
        }
    }
    None
}

/// Finds `fn name` items and their brace spans (lexical, nested included).
fn find_fns(code_lines: &[String]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for (li, l) in code_lines.iter().enumerate() {
        let mut rest: &str = l;
        let mut off = 0usize;
        while let Some(p) = rest.find("fn ") {
            // Token boundary on the left ("fn" must not be a suffix of a
            // longer ident or keyword chain).
            let abs = off + p;
            let left_ok = abs == 0
                || !l.as_bytes()[abs - 1].is_ascii_alphanumeric() && l.as_bytes()[abs - 1] != b'_';
            if left_ok {
                let after = &l[abs + 3..];
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    if let Some((_, end)) = brace_block(code_lines, li) {
                        spans.push(FnSpan { name, start: li + 1, end });
                    }
                }
            }
            off = abs + 3;
            rest = &l[off..];
        }
    }
    spans
}

/// Whether `text` contains `word` bounded by non-identifier characters.
#[must_use]
pub fn contains_word(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(p) = text[start..].find(word) {
        let abs = start + p;
        let before_ok = abs == 0 || {
            let b = text.as_bytes()[abs - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        let after = abs + word.len();
        let after_ok = after >= text.len() || {
            let b = text.as_bytes()[after];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len().max(1);
    }
    false
}

/// The identifier ending at byte offset `end` (exclusive) of `line`,
/// e.g. the receiver name just before a `.method(` call.
#[must_use]
pub fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut s = end;
    while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
        s -= 1;
    }
    if s == end {
        return None;
    }
    Some(&line[s..end])
}

/// `(name, type, decl_line)` for each named field of `struct_name` in
/// `file`. Errors when the struct is not found.
pub fn struct_fields(
    file: &SourceFile,
    struct_name: &str,
) -> Result<Vec<(String, String, usize)>, String> {
    let decl = file
        .code_lines
        .iter()
        .position(|c| {
            contains_word(c, "struct") && contains_word(c, struct_name) && !c.contains("impl")
        })
        .ok_or_else(|| format!("figlint.toml: no `struct {struct_name}` in `{}`", file.rel_path))?;
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut opened = false;
    for (i, code) in file.code_lines.iter().enumerate().skip(decl) {
        if opened && depth == 1 {
            let t = code.trim();
            let t = t.strip_prefix("pub ").unwrap_or(t);
            if let Some((name, ty)) = t.split_once(':') {
                let name = name.trim();
                if !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                {
                    fields.push((name.to_string(), ty.trim().to_string(), i + 1));
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if opened && depth == 0 {
            break;
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap\nlet y = 1; /* HashMap */ let z = 2;\n";
        let f = SourceFile::lex("a.rs", src);
        assert!(!f.code_lines[0].contains("HashMap"));
        assert!(!f.code_lines[1].contains("HashMap"));
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].text, "HashMap");
        assert_eq!(f.strings[0].line, 1);
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"a \"quoted\" b\"#;\nlet c = '\"';\nlet lt: &'static str = \"x\";\n";
        let f = SourceFile::lex("a.rs", src);
        assert_eq!(f.strings.len(), 2);
        assert_eq!(f.strings[0].text, "a \"quoted\" b");
        assert_eq!(f.strings[1].text, "x");
    }

    #[test]
    fn multiline_string_with_continuation() {
        let src = "eprintln!(\n    \"line one\\n\\\n     line two\"\n);\nlet x = 1;\n";
        let f = SourceFile::lex("a.rs", src);
        assert_eq!(f.strings.len(), 1);
        assert!(f.strings[0].text.contains("line two"));
        assert!(f.code_lines[4].contains("let x = 1;"));
    }

    #[test]
    fn test_mod_masking() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn after() {}\n";
        let f = SourceFile::lex("a.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn fn_spans_nested() {
        let src = "fn outer() {\n    let f = 1;\n    fn inner_horizon() {\n        let x = 2;\n    }\n}\n";
        let f = SourceFile::lex("a.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fn_at(4).unwrap().name, "inner_horizon");
        assert_eq!(f.fn_at(2).unwrap().name, "outer");
    }

    #[test]
    fn word_and_ident_helpers() {
        assert!(contains_word("a.pending.iter()", "pending"));
        assert!(!contains_word("suspending.iter()", "pending"));
        let line = "self.pending.iter()";
        let dot = line.rfind(".iter").unwrap();
        assert_eq!(ident_ending_at(line, dot), Some("pending"));
    }

    #[test]
    fn parses_struct_fields_with_lines() {
        let src = "\
/// Doc.\n\
pub struct Cfg {\n\
    /// Cores.\n\
    pub cores: usize,\n\
    pub sched: Sched, // which\n\
    limits: Vec<f64>,\n\
}\n\
pub struct Other { pub x: u8 }\n";
        let f = SourceFile::lex("a.rs", src);
        let fields = struct_fields(&f, "Cfg").unwrap();
        let names: Vec<&str> = fields.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["cores", "sched", "limits"]);
        assert_eq!(fields[0].2, 4);
        assert!(fields[2].1.contains("f64"));
        assert!(struct_fields(&f, "Missing").is_err());
    }
}
