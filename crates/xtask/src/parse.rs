//! Token-tree parser for the deep-lint passes.
//!
//! Built on the same [`sanitize`](crate::sanitize) front end as the
//! lexer-level rules: comments and literals are blanked first, then the
//! remaining code is tokenized and scanned with just enough structure —
//! brace depth, `impl`/`trait`/`mod` contexts, `fn` items with matched
//! bodies — to extract, per file:
//!
//! * every function item (name, enclosing `impl`/`trait` type,
//!   visibility, signature text, body line range);
//! * every call expression inside a non-test function body (plain
//!   `helper(..)`, qualified `Type::assoc(..)` with `Self` resolved
//!   against the enclosing `impl`, and `.method(..)` calls);
//! * every `unsafe` block / fn / impl, paired with whether a
//!   `// SAFETY:` comment justifies it;
//! * every `pub` item header, for the API-surface lock.
//!
//! This is still not a Rust compiler: there is no name resolution, no
//! type inference, and calls through function *values* (closures,
//! `fn`-pointer fields, `map(f)`) produce no edge. The call graph is a
//! name-matched over-approximation that [`graph`](crate::graph)
//! assembles workspace-wide — sound enough for the determinism taint
//! pass on this tree, and its known blind spots are documented in
//! docs/LINTS.md.

use crate::sanitize::{sanitize, BarrierAnnotation};

/// One token of sanitized code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier, keyword or number literal chunk.
    Ident(String),
    /// `::`
    PathSep,
    /// `->`
    Arrow,
    /// Any other single non-whitespace character.
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: usize,
    /// The token itself.
    pub tok: Tok,
}

/// Tokenize sanitized code lines (comments/literals already blanked).
#[must_use]
pub fn tokenize(code_lines: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    line: lineno,
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                });
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Token {
                    line: lineno,
                    tok: Tok::PathSep,
                });
                i += 2;
            } else if c == '-' && chars.get(i + 1) == Some(&'>') {
                out.push(Token {
                    line: lineno,
                    tok: Tok::Arrow,
                });
                i += 2;
            } else {
                out.push(Token {
                    line: lineno,
                    tok: Tok::Punct(c),
                });
                i += 1;
            }
        }
    }
    out
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: usize,
    /// Path segments of the callee (`Self` already resolved to the
    /// enclosing impl type); a bare `helper(..)` call has one segment.
    pub path: Vec<String>,
    /// `true` for `.method(..)` receiver calls.
    pub method: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` self type, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based inclusive line range of the body (equals `(line, line)`
    /// for bodyless trait-method signatures).
    pub body: (usize, usize),
    /// Declared `pub` without restriction.
    pub is_pub: bool,
    /// Defined inside `#[cfg(test)]` (or a test-class file — the
    /// caller flips this for `tests/`/`benches/` trees).
    pub is_test: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Normalized signature text from `fn` to the body brace.
    pub signature: String,
    /// Calls made inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// One `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// `"block"`, `"fn"`, `"impl"` or `"trait"`.
    pub kind: &'static str,
    /// Whether a `// SAFETY:` comment (same line, or an unbroken
    /// comment/blank run directly above) justifies the site.
    pub justified: bool,
    /// Inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// Display name of the enclosing function, or the impl'd type.
    pub context: String,
}

/// One `pub` item header, for the API-surface lock.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// 1-based line of the item keyword.
    pub line: usize,
    /// Normalized header text (e.g. `pub fn FrameSim::try_run(..) -> ..`,
    /// `pub struct FramePrefix`).
    pub text: String,
}

/// Everything the parser extracted from one file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// Unsafe sites, in source order.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Public item headers, in source order.
    pub pub_items: Vec<PubItem>,
    /// Taint-barrier annotations found in the file.
    pub barriers: Vec<BarrierAnnotation>,
    /// Sanitized code lines (for the source-needle scan).
    pub code_lines: Vec<String>,
    /// Per-line `#[cfg(test)]` flags.
    pub test_lines: Vec<bool>,
}

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "break", "continue",
    "else", "let", "mut", "ref", "where", "impl", "fn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "async", "await", "dyn", "box", "yield",
];

/// Item keywords captured for the public surface.
const SURFACE_KEYWORDS: &[&str] = &["struct", "enum", "trait", "type", "const", "static", "use"];

struct Ctx {
    /// Brace depth this context closes at.
    close: i64,
    kind: CtxKind,
}

enum CtxKind {
    /// `impl Type { .. }`, `impl Trait for Type { .. }` or
    /// `trait Name { .. }` — `ty` qualifies contained fns.
    Impl { ty: String },
    /// `mod name { .. }` — no qualification, just a scope.
    Mod,
    /// A function body; `idx` into the output `fns` vec.
    Fn { idx: usize },
}

/// Parse one file. `rel` is the workspace-relative path with forward
/// slashes, `whole_file_is_test` marks `tests/`/`benches/` trees.
#[must_use]
pub fn parse_file(rel: &str, source: &str, whole_file_is_test: bool) -> ParsedFile {
    let s = sanitize(source);
    let toks = tokenize(&s.code_lines);
    let is_test_line = |line: usize| {
        whole_file_is_test
            || s.test_lines
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    };

    let mut fns: Vec<FnItem> = Vec::new();
    let mut unsafe_sites: Vec<UnsafeSite> = Vec::new();
    let mut pub_items: Vec<PubItem> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut depth: i64 = 0;
    let mut pending_pub = false;
    let mut pending_unsafe: Option<usize> = None; // line of the keyword

    let impl_ty = |stack: &[Ctx]| -> Option<String> {
        stack.iter().rev().find_map(|c| match &c.kind {
            CtxKind::Impl { ty } => Some(ty.clone()),
            _ => None,
        })
    };
    let fn_ctx = |stack: &[Ctx]| -> Option<usize> {
        stack.iter().rev().find_map(|c| match &c.kind {
            CtxKind::Fn { idx } => Some(*idx),
            _ => None,
        })
    };
    let context_name = |stack: &[Ctx], fns: &[FnItem]| -> String {
        if let Some(idx) = fn_ctx(stack) {
            display_name(&fns[idx])
        } else if let Some(ty) = impl_ty(stack) {
            ty
        } else {
            "<file>".to_string()
        }
    };
    let justified = |line: usize| -> bool {
        if s.safety_lines.contains(&line) {
            return true;
        }
        // Walk up through an unbroken run of blank / comment-only
        // lines (sanitized text empty) looking for the SAFETY opener.
        let mut l = line;
        for _ in 0..16 {
            if l <= 1 {
                return false;
            }
            l -= 1;
            if s.safety_lines.contains(&l) {
                return true;
            }
            let blankish = s.code_lines.get(l - 1).is_none_or(|c| c.trim().is_empty());
            if !blankish {
                return false;
            }
        }
        false
    };

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('#') => {
                // Attribute: `#[..]` or `#![..]` — skip wholesale so
                // `derive(..)`, `cfg(..)` etc. never look like calls.
                i += 1;
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    i += 1;
                }
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    let mut brackets = 0i64;
                    while i < toks.len() {
                        match toks[i].tok {
                            Tok::Punct('[') => brackets += 1,
                            Tok::Punct(']') => {
                                brackets -= 1;
                                if brackets == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            Tok::Punct('{') => {
                if let Some(line) = pending_unsafe.take() {
                    unsafe_sites.push(UnsafeSite {
                        line,
                        kind: "block",
                        justified: justified(line),
                        in_test: is_test_line(line),
                        context: context_name(&stack, &fns),
                    });
                }
                pending_pub = false;
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                while stack.last().is_some_and(|c| c.close == depth) {
                    if let Some(ctx) = stack.pop() {
                        if let CtxKind::Fn { idx } = ctx.kind {
                            fns[idx].body.1 = toks[i].line;
                        }
                    }
                }
                pending_pub = false;
                pending_unsafe = None;
                i += 1;
            }
            Tok::Ident(w) if w == "pub" => {
                i += 1;
                // `pub(crate)` / `pub(super)` are not public API.
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    let mut parens = 0i64;
                    while i < toks.len() {
                        match toks[i].tok {
                            Tok::Punct('(') => parens += 1,
                            Tok::Punct(')') => {
                                parens -= 1;
                                if parens == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                } else {
                    pending_pub = true;
                }
            }
            Tok::Ident(w) if w == "unsafe" => {
                pending_unsafe = Some(toks[i].line);
                i += 1;
            }
            Tok::Ident(w) if w == "mod" => {
                let line = toks[i].line;
                i += 1;
                let name = match toks.get(i).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => {
                        i += 1;
                        n.clone()
                    }
                    _ => String::new(),
                };
                if pending_pub && !is_test_line(line) && !name.is_empty() {
                    pub_items.push(PubItem {
                        line,
                        text: format!("pub mod {name}"),
                    });
                }
                pending_pub = false;
                pending_unsafe = None;
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('{'))) {
                    stack.push(Ctx {
                        close: depth,
                        kind: CtxKind::Mod,
                    });
                    depth += 1;
                    i += 1;
                }
            }
            Tok::Ident(w) if w == "impl" || w == "trait" => {
                let was_unsafe = pending_unsafe.take();
                let is_impl = w == "impl";
                let start_line = toks[i].line;
                let keep_pub = pending_pub && !is_impl;
                pending_pub = false;
                i += 1;
                // Skip `<generics>` straight after the keyword.
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
                    let mut angle = 0i64;
                    while i < toks.len() {
                        match toks[i].tok {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => {
                                angle -= 1;
                                if angle == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
                // Collect header tokens until `{` or `;` at paren depth 0.
                let header_start = i;
                let mut parens = 0i64;
                let mut has_body = false;
                while i < toks.len() {
                    match toks[i].tok {
                        Tok::Punct('(') | Tok::Punct('[') => parens += 1,
                        Tok::Punct(')') | Tok::Punct(']') => parens -= 1,
                        Tok::Punct('{') if parens == 0 => {
                            has_body = true;
                            break;
                        }
                        Tok::Punct(';') if parens == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                let header = &toks[header_start..i.min(toks.len())];
                let ty = self_type_of(header, is_impl);
                if let (Some(line), true) = (was_unsafe, is_impl) {
                    unsafe_sites.push(UnsafeSite {
                        line,
                        kind: "impl",
                        justified: justified(line),
                        in_test: is_test_line(line),
                        context: ty.clone().unwrap_or_else(|| "<impl>".into()),
                    });
                }
                if keep_pub && !is_test_line(start_line) {
                    if let Some(name) = &ty {
                        pub_items.push(PubItem {
                            line: start_line,
                            text: format!("pub trait {name}"),
                        });
                    }
                }
                if has_body {
                    stack.push(Ctx {
                        close: depth,
                        kind: CtxKind::Impl {
                            ty: ty.unwrap_or_else(|| "<anon>".into()),
                        },
                    });
                    depth += 1;
                    i += 1; // consume '{'
                }
            }
            Tok::Ident(w) if w == "fn" => {
                // `fn(..)` is a function-pointer *type*, not an item.
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    pending_unsafe = None;
                    pending_pub = false;
                    i += 1;
                    continue;
                }
                let fn_line = toks[i].line;
                let sig_start = i;
                i += 1;
                let name = match toks.get(i).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => {
                        i += 1;
                        n.clone()
                    }
                    _ => {
                        pending_pub = false;
                        pending_unsafe = None;
                        continue;
                    }
                };
                // Generics (Arrow tokens keep `-> T` out of the angle count).
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
                    let mut angle = 0i64;
                    while i < toks.len() {
                        match toks[i].tok {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => {
                                angle -= 1;
                                if angle == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
                // Scan to the body `{` or terminating `;` at depth 0.
                let mut parens = 0i64;
                let mut has_body = false;
                while i < toks.len() {
                    match toks[i].tok {
                        Tok::Punct('(') | Tok::Punct('[') => parens += 1,
                        Tok::Punct(')') | Tok::Punct(']') => parens -= 1,
                        Tok::Punct('{') if parens == 0 => {
                            has_body = true;
                            break;
                        }
                        Tok::Punct(';') if parens == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                let signature = render_tokens(&toks[sig_start..i.min(toks.len())]);
                let is_unsafe = pending_unsafe.take();
                let item = FnItem {
                    name,
                    impl_type: impl_ty(&stack),
                    line: fn_line,
                    body: (fn_line, fn_line),
                    is_pub: pending_pub,
                    is_test: is_test_line(fn_line),
                    is_unsafe: is_unsafe.is_some(),
                    signature,
                    calls: Vec::new(),
                };
                pending_pub = false;
                if let Some(line) = is_unsafe {
                    unsafe_sites.push(UnsafeSite {
                        line,
                        kind: "fn",
                        justified: justified(line),
                        in_test: item.is_test,
                        context: display_name(&item),
                    });
                }
                if item.is_pub && !item.is_test {
                    pub_items.push(PubItem {
                        line: fn_line,
                        text: surface_text(&item),
                    });
                }
                let idx = fns.len();
                fns.push(item);
                if has_body {
                    fns[idx].body = (toks[i].line, toks[i].line);
                    stack.push(Ctx {
                        close: depth,
                        kind: CtxKind::Fn { idx },
                    });
                    depth += 1;
                    i += 1; // consume '{'
                }
            }
            Tok::Ident(w) if SURFACE_KEYWORDS.contains(&w.as_str()) => {
                let line = toks[i].line;
                let capture = pending_pub && !is_test_line(line);
                pending_pub = false;
                pending_unsafe = None;
                // Capture the header up to the first `{`, `(`, `=` or
                // `;` — enough to name the item (and the full path for
                // `pub use`).
                let start = i;
                i += 1;
                let mut end = i;
                let full_use = w == "use";
                while end < toks.len() {
                    match toks[end].tok {
                        Tok::Punct('{') if !full_use => break,
                        Tok::Punct('(') | Tok::Punct('=') if !full_use => break,
                        Tok::Punct('<') => break,
                        Tok::Punct(';') => break,
                        _ => {}
                    }
                    end += 1;
                }
                if capture {
                    pub_items.push(PubItem {
                        line,
                        text: format!("pub {}", render_tokens(&toks[start..end])),
                    });
                }
                // Advance past the name so tuple structs (`Foo(`) are
                // not mistaken for calls; bodies are walked normally.
                i = end.min(toks.len());
            }
            Tok::Ident(name) => {
                // Possible call expression (only inside fn bodies and
                // outside test code).
                if let Some(fidx) = fn_ctx(&stack) {
                    let line = toks[i].line;
                    if !is_test_line(line)
                        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                        && !NON_CALL_KEYWORDS.contains(&name.as_str())
                    {
                        let mut path = vec![name.clone()];
                        let mut j = i;
                        while j >= 2
                            && matches!(toks[j - 1].tok, Tok::PathSep)
                            && matches!(toks[j - 2].tok, Tok::Ident(_))
                        {
                            if let Tok::Ident(seg) = &toks[j - 2].tok {
                                path.insert(0, seg.clone());
                            }
                            j -= 2;
                        }
                        // Only a bare name can be a method call; a
                        // qualified path preceded by `.` is struct-
                        // update syntax (`..Type::default()`).
                        let method =
                            path.len() == 1 && j >= 1 && matches!(toks[j - 1].tok, Tok::Punct('.'));
                        if path[0] == "Self" {
                            if let Some(ty) = impl_ty(&stack) {
                                path[0] = ty;
                            }
                        }
                        fns[fidx].calls.push(CallSite { line, path, method });
                    }
                }
                pending_pub = false;
                pending_unsafe = None;
                i += 1;
            }
            Tok::Punct(';') => {
                pending_pub = false;
                pending_unsafe = None;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // Close any still-open fn bodies at EOF (unbalanced braces only
    // happen on pathological input; pin the body end to the last line).
    let last_line = s.code_lines.len().max(1);
    while let Some(ctx) = stack.pop() {
        if let CtxKind::Fn { idx } = ctx.kind {
            fns[idx].body.1 = last_line;
        }
    }
    // Body start should be the fn line (signature included) so source
    // needles in default-argument positions are seen too.
    for f in &mut fns {
        f.body.0 = f.line;
    }

    ParsedFile {
        rel: rel.to_string(),
        fns,
        unsafe_sites,
        pub_items,
        barriers: s.barriers,
        code_lines: s.code_lines,
        test_lines: s.test_lines,
    }
}

/// `Type::name` (or `name` for free fns).
#[must_use]
pub fn display_name(f: &FnItem) -> String {
    match &f.impl_type {
        Some(ty) => format!("{ty}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Surface-lock line for a public fn: signature with the impl
/// qualifier spliced into the name.
fn surface_text(f: &FnItem) -> String {
    let sig = match &f.impl_type {
        Some(ty) => f.signature.replacen(
            &format!("fn {}", f.name),
            &format!("fn {ty}::{}", f.name),
            1,
        ),
        None => f.signature.clone(),
    };
    if f.is_unsafe {
        format!("pub unsafe {sig}")
    } else {
        format!("pub {sig}")
    }
}

/// The type an `impl`/`trait` header names. A trait is the identifier
/// right after `trait`, so its generics, supertraits and `where`
/// clause cannot displace it. An impl's self type is the last
/// identifier at angle-depth 0 of the `for` part (or the whole header
/// when there is no `for`), keywords and lifetimes skipped.
fn self_type_of(header: &[Token], is_impl: bool) -> Option<String> {
    if !is_impl {
        return match &header.first()?.tok {
            Tok::Ident(name) => Some(name.clone()),
            _ => None,
        };
    }
    let mut slice_start = 0usize;
    let mut angle = 0i64;
    for (k, t) in header.iter().enumerate() {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(w) if w == "for" && angle == 0 => slice_start = k + 1,
            _ => {}
        }
    }
    let mut angle = 0i64;
    let mut last: Option<String> = None;
    for t in &header[slice_start..] {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(w) if w == "where" && angle == 0 => break,
            Tok::Ident(w)
                if angle == 0 && !matches!(w.as_str(), "mut" | "dyn" | "const" | "for") =>
            {
                last = Some(w.clone());
            }
            _ => {}
        }
        if angle == 0 && matches!(t.tok, Tok::Punct('{')) {
            break;
        }
    }
    last
}

/// Render tokens back to normalized text (deterministic spacing).
#[must_use]
pub fn render_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        let piece = match &t.tok {
            Tok::Ident(s) => s.as_str(),
            Tok::PathSep => "::",
            Tok::Arrow => "->",
            Tok::Punct(c) => {
                out.push_str(match c {
                    ',' => ", ",
                    _ => {
                        // Single chars handled below via push.
                        ""
                    }
                });
                if *c != ',' {
                    let no_space_before = matches!(
                        c,
                        ')' | ']' | '>' | ';' | '?' | '!' | '.' | ':' | '(' | '<' | '\''
                    );
                    if !no_space_before && !out.is_empty() && !out.ends_with(' ') {
                        let tight_after = out.ends_with(['(', '[', '<', '&', '*', '.', '\''])
                            || out.ends_with("::");
                        if !tight_after {
                            out.push(' ');
                        }
                    }
                    out.push(*c);
                }
                continue;
            }
        };
        if !out.is_empty()
            && !out.ends_with(['(', '[', '<', '&', '*', '.', '\''])
            && !out.ends_with("::")
            && !out.ends_with(' ')
        {
            out.push(' ');
        }
        out.push_str(piece);
    }
    // Collapse the few double spaces the simple joiner leaves behind.
    while out.contains("  ") {
        out = out.replace("  ", " ");
    }
    out.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_impls_and_calls_are_extracted() {
        let src = "pub struct FrameSim;\n\
                   impl FrameSim {\n\
                       pub fn try_run(x: u64) -> u64 {\n\
                           helper_a(x)\n\
                       }\n\
                       fn inner(&self) -> u64 {\n\
                           Self::try_run(1) + self.other()\n\
                       }\n\
                   }\n\
                   fn helper_a(x: u64) -> u64 {\n\
                       mem::replay(x)\n\
                   }\n";
        let p = parse_file("crates/pipeline/src/lib.rs", src, false);
        assert_eq!(p.fns.len(), 3);
        let try_run = &p.fns[0];
        assert_eq!(try_run.name, "try_run");
        assert_eq!(try_run.impl_type.as_deref(), Some("FrameSim"));
        assert!(try_run.is_pub);
        assert_eq!(try_run.calls.len(), 1);
        assert_eq!(try_run.calls[0].path, vec!["helper_a"]);
        assert!(!try_run.calls[0].method);

        let inner = &p.fns[1];
        assert_eq!(inner.calls.len(), 2);
        assert_eq!(
            inner.calls[0].path,
            vec!["FrameSim", "try_run"],
            "Self resolved"
        );
        assert!(inner.calls[1].method);
        assert_eq!(inner.calls[1].path, vec!["other"]);

        let helper = &p.fns[2];
        assert!(helper.impl_type.is_none());
        assert_eq!(helper.calls[0].path, vec!["mem", "replay"]);
        assert!(p
            .pub_items
            .iter()
            .any(|it| it.text == "pub struct FrameSim"));
        assert!(p
            .pub_items
            .iter()
            .any(|it| it.text.contains("pub fn FrameSim::try_run(x: u64) -> u64")));
    }

    #[test]
    fn struct_update_default_is_a_typed_call_not_a_method() {
        let src = "fn build() -> TileRecord {\n\
                       TileRecord {\n\
                           tile: (0, 0),\n\
                           ..TileRecord::default()\n\
                       }\n\
                   }\n";
        let p = parse_file("crates/pipeline/src/lib.rs", src, false);
        assert_eq!(p.fns.len(), 1);
        let calls = &p.fns[0].calls;
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].path, vec!["TileRecord", "default"]);
        assert!(
            !calls[0].method,
            "the `.` before a qualified path is struct-update syntax, not a method receiver"
        );
    }

    #[test]
    fn macros_keywords_and_test_code_produce_no_calls() {
        let src = "fn lib() {\n\
                       assert!(true);\n\
                       if (x) { return (y); }\n\
                       match (z) { _ => {} }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { tainted_helper(); }\n\
                   }\n";
        let p = parse_file("crates/mem/src/lib.rs", src, false);
        let lib = &p.fns[0];
        assert!(lib.calls.is_empty(), "{:?}", lib.calls);
        let t = &p.fns[1];
        assert!(t.is_test);
        assert!(t.calls.is_empty(), "test bodies are not scanned");
    }

    #[test]
    fn unsafe_sites_need_safety_comments() {
        let src = "// SAFETY: delegates to System; never unwinds.\n\
                   unsafe impl Sync for Meter {}\n\
                   fn f() {\n\
                       unsafe { danger() }\n\
                   }\n\
                   // SAFETY: pointer proven live above.\n\
                   // (multi-line continuation)\n\
                   unsafe fn g() {}\n";
        let p = parse_file("crates/alloc/src/lib.rs", src, false);
        assert_eq!(p.unsafe_sites.len(), 3);
        let by_kind = |k: &str| p.unsafe_sites.iter().find(|u| u.kind == k).unwrap();
        assert!(by_kind("impl").justified);
        assert!(
            !by_kind("block").justified,
            "no SAFETY comment near the block"
        );
        assert!(by_kind("fn").justified, "comment run above the fn counts");
        assert_eq!(by_kind("block").context, "f");
    }

    #[test]
    fn fn_pointer_types_and_tuple_structs_are_not_items_or_calls() {
        let src = "pub struct Wrapper(pub u64);\n\
                   pub struct Opts { pub sleeper: fn(u64) }\n\
                   fn f(g: fn(u64) -> u64) -> u64 { g(1) }\n";
        let p = parse_file("crates/core/src/lib.rs", src, false);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "f");
        // `g(1)` resolves (or not) by name later; `Wrapper(` is not a call.
        assert!(p.pub_items.iter().any(|it| it.text == "pub struct Wrapper"));
    }

    #[test]
    fn trait_methods_get_the_trait_as_type_and_bodies_close() {
        let src = "pub trait Probe {\n\
                       fn enabled(&self) -> bool;\n\
                       fn record(&mut self) { self.enabled(); }\n\
                   }\n\
                   fn after() {}\n";
        let p = parse_file("crates/obs/src/lib.rs", src, false);
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Probe"));
        assert_eq!(p.fns[1].calls.len(), 1);
        assert!(p.fns[2].impl_type.is_none(), "trait scope closed");
        assert!(p.pub_items.iter().any(|it| it.text == "pub trait Probe"));
    }

    #[test]
    fn impl_headers_resolve_generic_and_for_forms() {
        let toks = tokenize(&["GlobalAlloc for CountingAlloc".to_string()]);
        assert_eq!(self_type_of(&toks, true).as_deref(), Some("CountingAlloc"));
        let toks = tokenize(&["Display for Vec<Foo>".to_string()]);
        assert_eq!(self_type_of(&toks, true).as_deref(), Some("Vec"));
        let toks = tokenize(&["FrameSim".to_string()]);
        assert_eq!(self_type_of(&toks, true).as_deref(), Some("FrameSim"));
    }

    #[test]
    fn trait_headers_name_the_trait_not_a_bound() {
        let src = "pub trait FromJson: Sized {\n\
                       fn from_json(v: &Json) -> Option<Self>;\n\
                   }\n\
                   pub trait Sink<T: Clone + Send, const N: usize>: Probe + Send {\n\
                       fn put(&mut self, t: T);\n\
                   }\n\
                   pub trait Folded<T> where T: Iterator<Item = u8>, Self: Sized {\n\
                       fn fold(t: T) -> Self;\n\
                   }\n";
        let p = parse_file("crates/obs/src/json.rs", src, false);
        let items: Vec<&str> = p.pub_items.iter().map(|it| it.text.as_str()).collect();
        assert_eq!(
            items,
            ["pub trait FromJson", "pub trait Sink", "pub trait Folded"]
        );
        let types: Vec<Option<&str>> = p.fns.iter().map(|f| f.impl_type.as_deref()).collect();
        assert_eq!(types, [Some("FromJson"), Some("Sink"), Some("Folded")]);
    }

    #[test]
    fn pub_crate_items_stay_out_of_the_surface() {
        let src = "pub(crate) fn internal() {}\npub fn external() {}\n";
        let p = parse_file("crates/mem/src/lib.rs", src, false);
        assert_eq!(p.pub_items.len(), 1);
        assert!(p.pub_items[0].text.contains("external"));
    }
}
