//! Aggregated lint report with text and JSON rendering.
//!
//! JSON is hand-rolled (xtask has no dependencies) and shaped for CI
//! consumption:
//!
//! ```json
//! {
//!   "ok": false,
//!   "files_scanned": 61,
//!   "violation_count": 2,
//!   "allow_count": 23,
//!   "violations": [{"file": "...", "line": 12, "rule": "no-panic",
//!                   "snippet": "...", "hint": "..."}],
//!   "allowed": [{"file": "...", "line": 30, "rule": "no-panic",
//!                "justification": "...", "source": "annotation"}]
//! }
//! ```

use crate::rules::{AllowedSite, Finding};
use std::fmt::Write as _;

/// One violation, located in the workspace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Suggested fix.
    pub hint: String,
}

/// One allowed site, located in the workspace.
#[derive(Debug, Clone)]
pub struct Allowed {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: String,
    /// Annotation justification or allowlist reason.
    pub justification: String,
    /// `true` for built-in allowlist entries.
    pub builtin: bool,
}

/// The whole lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, in path/line order.
    pub violations: Vec<Violation>,
    /// All allowed sites, in path/line order.
    pub allowed: Vec<Allowed>,
}

impl Report {
    /// Fold one file's outcome into the report.
    pub fn absorb(&mut self, file: &str, findings: Vec<Finding>, allowed: Vec<AllowedSite>) {
        self.files_scanned += 1;
        for f in findings {
            self.violations.push(Violation {
                file: file.to_string(),
                line: f.line,
                rule: f.rule,
                snippet: f.snippet,
                hint: f.hint,
            });
        }
        for a in allowed {
            self.allowed.push(Allowed {
                file: file.to_string(),
                line: a.line,
                rule: a.rule,
                justification: a.justification,
                builtin: a.builtin,
            });
        }
    }

    /// No violations?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "error[{}]: {}:{}", v.rule, v.file, v.line);
            if !v.snippet.is_empty() {
                let _ = writeln!(out, "    {}", v.snippet);
            }
            let _ = writeln!(out, "    hint: {}", v.hint);
        }
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} violation(s), {} allowed site(s) ({} annotated, {} allowlisted)",
            self.files_scanned,
            self.violations.len(),
            self.allowed.len(),
            self.allowed.iter().filter(|a| !a.builtin).count(),
            self.allowed.iter().filter(|a| a.builtin).count(),
        );
        out
    }

    /// Machine-readable rendering for CI.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violation_count\": {},", self.violations.len());
        let _ = writeln!(out, "  \"allow_count\": {},", self.allowed.len());
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}, \"hint\": {}}}",
                json_str(&v.file),
                v.line,
                json_str(&v.rule),
                json_str(&v.snippet),
                json_str(&v.hint),
            );
        }
        out.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"allowed\": [");
        for (i, a) in self.allowed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"justification\": {}, \"source\": {}}}",
                json_str(&a.file),
                a.line,
                json_str(&a.rule),
                json_str(&a.justification),
                json_str(if a.builtin { "allowlist" } else { "annotation" }),
            );
        }
        out.push_str(if self.allowed.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Escape a string as a JSON literal (with quotes).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::default();
        r.absorb(
            "crates/mem/src/lib.rs",
            vec![Finding {
                line: 3,
                rule: "determinism-hash".into(),
                snippet: "use std::collections::HashMap;".into(),
                hint: "use BTreeMap".into(),
            }],
            vec![AllowedSite {
                line: 9,
                rule: "no-panic".into(),
                justification: "proven \"in\" bounds".into(),
                builtin: false,
            }],
        );
        r
    }

    #[test]
    fn text_names_file_line_and_rule() {
        let t = sample().render_text();
        assert!(t.contains("error[determinism-hash]: crates/mem/src/lib.rs:3"));
        assert!(t.contains("1 violation(s)"));
        assert!(t.contains("1 allowed site(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let j = sample().render_json();
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\"allow_count\": 1"));
        assert!(j.contains("proven \\\"in\\\" bounds"));
        assert!(j.contains("\"source\": \"annotation\""));
    }

    #[test]
    fn empty_report_is_ok() {
        let r = Report::default();
        assert!(r.ok());
        assert!(r.render_json().contains("\"violations\": []"));
    }
}
