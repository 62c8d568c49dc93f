//! Lexer-level sanitizer: blank out comments and literals so rule
//! patterns only ever match real code, while collecting `// lint:`
//! annotations from the comments as they are skipped.
//!
//! The scanner is deliberately not a full Rust parser — it tracks just
//! enough token structure (line/block comments, string/char/byte/raw
//! literals, lifetimes, brace depth, `#[cfg(test)]` blocks) to make
//! substring rules sound on this workspace, with zero dependencies.

/// One `// lint: allow(<rule>) -- <justification>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowAnnotation {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule id being allowed.
    pub rule: String,
    /// Free-text justification after `--` (empty when missing).
    pub justification: String,
}

/// One `// lint: typed-sibling(<fn>)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiblingAnnotation {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Test function the annotation points at.
    pub test_fn: String,
}

/// One `// lint: taint-barrier(<why>)` annotation (consumed by the
/// deep-lint call-graph taint pass, docs/LINTS.md): on a source line
/// it suppresses that nondeterminism source; on (or up to three lines
/// above) a `fn` definition it stops taint from propagating out of
/// that function to its callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierAnnotation {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Why the boundary is sound (mandatory).
    pub why: String,
}

/// A source file after sanitization.
#[derive(Debug)]
pub struct Sanitized {
    /// Per-line code with comment and literal *contents* blanked to
    /// spaces (column positions preserved).
    pub code_lines: Vec<String>,
    /// Whether each line sits inside a `#[cfg(test)]` block.
    pub test_lines: Vec<bool>,
    /// All allow annotations, in line order.
    pub allows: Vec<AllowAnnotation>,
    /// All typed-sibling annotations, in line order.
    pub siblings: Vec<SiblingAnnotation>,
    /// All taint-barrier annotations, in line order.
    pub barriers: Vec<BarrierAnnotation>,
    /// Lines whose comment opens a `// SAFETY:` justification (used by
    /// the deep-lint unsafe audit).
    pub safety_lines: Vec<usize>,
    /// Malformed `// lint:` comments (line, problem).
    pub bad_annotations: Vec<(usize, String)>,
}

impl Sanitized {
    /// Whether `rule` is allowed on 1-based line `line`: an annotation
    /// on the line itself or alone on the line directly above.
    #[must_use]
    pub fn allow_for(&self, line: usize, rule: &str) -> Option<&AllowAnnotation> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Sanitize `source`, blanking comments and literal contents and
/// collecting annotations.
#[must_use]
pub fn sanitize(source: &str) -> Sanitized {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments: Vec<(usize, String)> = Vec::new(); // (1-based line, text)
    let mut line = 1usize;
    let mut i = 0usize;

    // Emit `c` into the blanked stream, tracking line numbers.
    macro_rules! keep {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
            }
            out.push(c);
        }};
    }
    // Blank `c`: newlines survive, everything else becomes a space.
    macro_rules! blank {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                out.push('\n');
            } else {
                out.push(' ');
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                // Line comment: blank it, but capture the text so
                // `// lint:` annotations survive.
                let start_line = line;
                let mut text = String::new();
                while i < chars.len() && chars[i] != '\n' {
                    text.push(chars[i]);
                    blank!(chars[i]);
                    i += 1;
                }
                comments.push((start_line, text));
            }
            '/' if next == Some('*') => {
                let mut depth = 0usize;
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        blank!(chars[i]);
                        blank!(chars[i + 1]);
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        blank!(chars[i]);
                        blank!(chars[i + 1]);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        blank!(chars[i]);
                        i += 1;
                    }
                }
            }
            '"' => {
                // Ordinary string literal.
                keep!('"');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        blank!(chars[i]);
                        blank!(chars[i + 1]);
                        i += 2;
                    } else if chars[i] == '"' {
                        keep!('"');
                        i += 1;
                        break;
                    } else {
                        blank!(chars[i]);
                        i += 1;
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                // r"...", r#"..."#, br"...", b"..." — skip prefix, count
                // hashes, blank until the matching close.
                while chars[i] == 'r' || chars[i] == 'b' {
                    keep!(chars[i]);
                    i += 1;
                }
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    keep!('#');
                    hashes += 1;
                    i += 1;
                }
                keep!('"'); // opening quote (is_raw_string_start checked it)
                i += 1;
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            keep!('"');
                            i += 1;
                            for _ in 0..hashes {
                                keep!('#');
                                i += 1;
                            }
                            break 'raw;
                        }
                    }
                    blank!(chars[i]);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a
                // few chars ('x', '\n', '\u{1F600}'); a lifetime does
                // not.
                if let Some(end) = char_literal_end(&chars, i) {
                    keep!('\'');
                    i += 1;
                    while i < end {
                        blank!(chars[i]);
                        i += 1;
                    }
                    keep!('\'');
                    i += 1;
                } else {
                    keep!('\'');
                    i += 1;
                }
            }
            c => {
                keep!(c);
                i += 1;
            }
        }
    }

    let code_lines: Vec<String> = out.lines().map(str::to_string).collect();
    let test_lines = mark_test_lines(&code_lines);

    let mut allows = Vec::new();
    let mut siblings = Vec::new();
    let mut barriers = Vec::new();
    let mut safety_lines = Vec::new();
    let mut bad = Vec::new();
    for (cline, text) in comments {
        let body = text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        if body.starts_with("SAFETY:") {
            safety_lines.push(cline);
        }
        parse_annotation(
            cline,
            &text,
            &mut allows,
            &mut siblings,
            &mut barriers,
            &mut bad,
        );
    }

    Sanitized {
        code_lines,
        test_lines,
        allows,
        siblings,
        barriers,
        safety_lines,
        bad_annotations: bad,
    }
}

/// Does `chars[i..]` start a raw/byte string literal (`r"`, `r#"`,
/// `br"`, `b"`)? `i` points at the `r`/`b`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Not a prefix if glued to a preceding identifier (e.g. `var"`
    // cannot occur, but `numbr` followed by `"` could confuse us).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') && j - i < 2 {
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// If `chars[i]` (a `'`) opens a char literal, return the index of the
/// closing quote; `None` for lifetimes.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escaped: find the next unescaped quote within a small
            // window (covers \n, \u{...}, \x7f).
            let mut j = i + 2;
            while j < chars.len() && j - i < 12 {
                if chars[j] == '\'' {
                    return Some(j);
                }
                j += 1;
            }
            None
        }
        _ => {
            // 'x' — exactly one char then a quote. Anything else
            // (e.g. 'static) is a lifetime.
            (chars.get(i + 2) == Some(&'\'')).then_some(i + 2)
        }
    }
}

/// Mark every line inside a `#[cfg(test)]` block (attribute line
/// included) as test code by tracking brace depth. A brace-less item
/// (`#[cfg(test)] mod tests;`) ends at its `;`.
fn mark_test_lines(code_lines: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    // While inside a test block: Some(depth the block closes at).
    let mut close_at: Option<i64> = None;
    let mut pending = false;
    // `(`/`[` nesting of the pending item, so `[u8; 4]` is no item end.
    let mut nest: i64 = 0;
    for (idx, line) in code_lines.iter().enumerate() {
        if close_at.is_none() && line.contains("#[cfg(test)]") {
            pending = true;
        }
        if close_at.is_some() || pending {
            flags[idx] = true;
        }
        for c in line.chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if pending && nest == 0 => pending = false,
                '{' => {
                    depth += 1;
                    if pending {
                        // The block the attribute applies to.
                        close_at = Some(depth - 1);
                        pending = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if close_at == Some(depth) {
                        close_at = None;
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// Parse a single comment's text for `lint:` annotations.
fn parse_annotation(
    line: usize,
    text: &str,
    allows: &mut Vec<AllowAnnotation>,
    siblings: &mut Vec<SiblingAnnotation>,
    barriers: &mut Vec<BarrierAnnotation>,
    bad: &mut Vec<(usize, String)>,
) {
    // Only comments whose body *starts* with `lint:` are annotations;
    // prose that merely mentions the syntax (docs, hints) is not.
    let stripped = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let Some(rest) = stripped.strip_prefix("lint:") else {
        return;
    };
    let body = rest.trim();
    if let Some(rest) = body.strip_prefix("allow(") {
        let Some(close) = rest.find(')') else {
            bad.push((line, "unclosed allow(...)".into()));
            return;
        };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if rule.is_empty() {
            bad.push((line, "empty rule id in allow()".into()));
            return;
        }
        if justification.is_empty() {
            bad.push((
                line,
                format!("allow({rule}) needs a justification: `-- <why>`"),
            ));
            return;
        }
        allows.push(AllowAnnotation {
            line,
            rule,
            justification: justification.to_string(),
        });
    } else if let Some(rest) = body.strip_prefix("typed-sibling(") {
        let Some(close) = rest.find(')') else {
            bad.push((line, "unclosed typed-sibling(...)".into()));
            return;
        };
        let test_fn = rest[..close].trim().to_string();
        if test_fn.is_empty() {
            bad.push((line, "empty test name in typed-sibling()".into()));
            return;
        }
        siblings.push(SiblingAnnotation { line, test_fn });
    } else if let Some(rest) = body.strip_prefix("taint-barrier(") {
        // The why lives inside the parens; allow nested parens in the
        // prose by matching the *last* close on the line.
        let Some(close) = rest.rfind(')') else {
            bad.push((line, "unclosed taint-barrier(...)".into()));
            return;
        };
        let why = rest[..close].trim().to_string();
        if why.is_empty() {
            bad.push((
                line,
                "taint-barrier() needs a justification inside the parens".into(),
            ));
            return;
        }
        barriers.push(BarrierAnnotation { line, why });
    } else {
        bad.push((
            line,
            format!(
                "unknown lint annotation `{}`",
                body.chars().take(40).collect::<String>()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"Instant::now\"; // Instant::now in comment\nlet b = 1;\n";
        let s = sanitize(src);
        assert!(!s.code_lines[0].contains("Instant::now"));
        assert!(s.code_lines[1].contains("let b = 1;"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_lifetimes_kept() {
        let src = "let r = r#\"panic!(\"x\")\"#;\nlet c = '\\n';\nfn f<'a>(x: &'a str) {}\n";
        let s = sanitize(src);
        assert!(!s.code_lines[0].contains("panic!"));
        assert!(s.code_lines[2].contains("&'a str"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let s = sanitize(src);
        assert!(!s.code_lines[0].contains("comment"));
        assert!(s.code_lines[0].contains("let x = 1;"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = sanitize(src);
        assert_eq!(s.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_a_braceless_item_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nmod reference;\npub use a::{B, C};\n\
                   #[cfg(test)]\nconst N: [u8; 2] = [0; 2];\nfn lib() {}\n";
        let s = sanitize(src);
        assert_eq!(s.test_lines, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn allow_annotations_are_parsed_and_require_justification() {
        let src = "x.unwrap(); // lint: allow(no-panic) -- index proven in bounds\n\
                   y.unwrap(); // lint: allow(no-panic)\n";
        let s = sanitize(src);
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].rule, "no-panic");
        assert_eq!(s.allows[0].justification, "index proven in bounds");
        assert_eq!(s.bad_annotations.len(), 1);
        assert!(s.bad_annotations[0].1.contains("justification"));
    }

    #[test]
    fn allow_applies_to_own_and_next_line() {
        let src = "// lint: allow(determinism-hash) -- order never observed\nuse std::collections::HashSet;\n";
        let s = sanitize(src);
        assert!(s.allow_for(2, "determinism-hash").is_some());
        assert!(s.allow_for(3, "determinism-hash").is_none());
        assert!(s.allow_for(2, "no-panic").is_none());
    }

    #[test]
    fn typed_sibling_annotations_are_parsed() {
        let src = "// lint: typed-sibling(bad_config_is_typed)\n#[test]\n";
        let s = sanitize(src);
        assert_eq!(s.siblings.len(), 1);
        assert_eq!(s.siblings[0].test_fn, "bad_config_is_typed");
    }

    #[test]
    fn taint_barrier_annotations_are_parsed_and_require_a_why() {
        let src = "// lint: taint-barrier(wall-clock hook (watchdog) only)\n\
                   std::thread::sleep(d);\n\
                   // lint: taint-barrier()\n";
        let s = sanitize(src);
        assert_eq!(s.barriers.len(), 1);
        assert_eq!(s.barriers[0].line, 1);
        assert_eq!(s.barriers[0].why, "wall-clock hook (watchdog) only");
        assert_eq!(s.bad_annotations.len(), 1);
        assert!(s.bad_annotations[0].1.contains("justification"));
    }

    #[test]
    fn safety_comment_openers_are_recorded() {
        let src = "// SAFETY: delegates to System unchanged; the slot\n\
                   // never dangles.\n\
                   unsafe { work() }\n\
                   let x = 1; // not a safety comment\n";
        let s = sanitize(src);
        assert_eq!(s.safety_lines, vec![1]);
    }
}
