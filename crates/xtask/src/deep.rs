//! `cargo xtask deep-lint` — the call-graph analysis tier.
//!
//! Orchestrates the three deep passes over the workspace
//! (docs/LINTS.md "Deep lint: call-graph passes"):
//!
//! 1. **determinism taint** ([`taint`](crate::taint)) — transitive
//!    source-to-sim-entry-point reachability over the call graph;
//! 2. **unsafe audit** — every non-test `unsafe` block/fn/impl needs
//!    a `// SAFETY:` justification; the full inventory ships in the
//!    JSON report;
//! 3. **API-surface lock** ([`surface`](crate::surface)) — undeclared
//!    public-item drift in the sim crates fails the run.
//!
//! Used taint-barriers are budgeted per crate in the
//! `[deep-allow-budgets]` table of `lint-budgets.toml`, with the same
//! ratchet-only rule as tier 1.

use crate::budgets;
use crate::graph::Graph;
use crate::parse::{parse_file, ParsedFile};
use crate::report::{json_str, Violation};
use crate::rules::FileClass;
use crate::surface;
use crate::taint;
use crate::walk;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Flags for one deep-lint run.
#[derive(Debug, Default)]
pub struct DeepOptions {
    /// Rewrite `api-surface.lock` from the current surface instead of
    /// diffing against it.
    pub update_surface: bool,
    /// Ratchet the `[deep-allow-budgets]` table before checking.
    pub update_budgets: bool,
    /// Explain this symbol's taint status (`--why`).
    pub why: Option<String>,
}

/// One entry of the unsafe inventory.
#[derive(Debug, Clone)]
pub struct UnsafeEntry {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// `block` / `fn` / `impl`.
    pub kind: &'static str,
    /// Enclosing function or impl'd type.
    pub context: String,
    /// Carries a `// SAFETY:` justification.
    pub justified: bool,
}

/// One used taint-barrier (a deep escape hatch).
#[derive(Debug, Clone)]
pub struct BarrierEntry {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: usize,
    /// Its justification.
    pub why: String,
}

/// The whole deep-lint run.
#[derive(Debug, Default)]
pub struct DeepReport {
    /// Number of `.rs` files parsed.
    pub files_scanned: usize,
    /// Function nodes in the call graph.
    pub fn_count: usize,
    /// Call edges resolved to workspace functions.
    pub edge_count: usize,
    /// All violations across the three passes, in path/line order.
    pub violations: Vec<Violation>,
    /// Used taint-barriers (budgeted per crate).
    pub barriers: Vec<BarrierEntry>,
    /// Every non-test unsafe site, justified or not.
    pub unsafe_inventory: Vec<UnsafeEntry>,
    /// `--why` explanation, when requested.
    pub why: Option<String>,
}

impl DeepReport {
    /// No violations?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(why) = &self.why {
            out.push_str(why);
        }
        for v in &self.violations {
            let _ = writeln!(out, "error[{}]: {}:{}", v.rule, v.file, v.line);
            if !v.snippet.is_empty() {
                let _ = writeln!(out, "    {}", v.snippet);
            }
            let _ = writeln!(out, "    hint: {}", v.hint);
        }
        let _ = writeln!(
            out,
            "{} file(s) parsed, {} fn(s), {} call edge(s), {} violation(s), {} taint-barrier(s), \
             {} unsafe site(s)",
            self.files_scanned,
            self.fn_count,
            self.edge_count,
            self.violations.len(),
            self.barriers.len(),
            self.unsafe_inventory.len(),
        );
        out
    }

    /// Machine-readable rendering for CI (`deep-lint-report.json`).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"fn_count\": {},", self.fn_count);
        let _ = writeln!(out, "  \"edge_count\": {},", self.edge_count);
        let _ = writeln!(out, "  \"violation_count\": {},", self.violations.len());
        let _ = writeln!(out, "  \"barrier_count\": {},", self.barriers.len());
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
        out.push_str("  \"barriers\": [");
        for (i, b) in self.barriers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"why\": {}}}",
                json_str(&b.file),
                b.line,
                json_str(&b.why),
            );
        }
        out.push_str(if self.barriers.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"unsafe_inventory\": [");
        for (i, u) in self.unsafe_inventory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"kind\": {}, \"context\": {}, \
                 \"justified\": {}}}",
                json_str(&u.file),
                u.line,
                json_str(u.kind),
                json_str(&u.context),
                u.justified,
            );
        }
        out.push_str(if self.unsafe_inventory.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Parse every workspace source under `root`.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable tree or file).
pub fn parse_root(root: &Path) -> io::Result<(Vec<ParsedFile>, Vec<bool>)> {
    let mut files = Vec::new();
    let mut test_flags = Vec::new();
    for src in walk::sources(root)? {
        let whole_test = src.class == FileClass::Test;
        files.push(parse_file(&src.rel, &src.text, whole_test));
        test_flags.push(whole_test);
    }
    Ok((files, test_flags))
}

/// Run the deep-lint passes over the workspace under `root`.
///
/// # Errors
///
/// Propagates filesystem errors and a malformed budget file.
pub fn deep_lint_root(root: &Path, opts: &DeepOptions) -> io::Result<DeepReport> {
    let (files, test_flags) = parse_root(root)?;
    let g = Graph::build(&files, &test_flags);

    let mut report = DeepReport {
        files_scanned: files.len(),
        fn_count: g.fns.len(),
        edge_count: g.callees.iter().map(Vec::len).sum(),
        ..DeepReport::default()
    };

    // Pass 1: determinism taint.
    let outcome = taint::analyze(&g);
    report.violations.extend(outcome.violations);
    for (file, line, why) in outcome.used_barriers {
        report.barriers.push(BarrierEntry { file, line, why });
    }
    if let Some(symbol) = &opts.why {
        report.why = Some(taint::why(&g, &outcome.tainted, symbol));
    }

    // Pass 2: unsafe audit.
    for (pf, &whole_test) in files.iter().zip(&test_flags) {
        if whole_test {
            continue;
        }
        for u in &pf.unsafe_sites {
            if u.in_test {
                continue;
            }
            report.unsafe_inventory.push(UnsafeEntry {
                file: pf.rel.clone(),
                line: u.line,
                kind: u.kind,
                context: u.context.clone(),
                justified: u.justified,
            });
            if !u.justified {
                report.violations.push(Violation {
                    file: pf.rel.clone(),
                    line: u.line,
                    rule: "unsafe-safety".into(),
                    snippet: format!("unsafe {} in {}", u.kind, u.context),
                    hint: "every unsafe site needs a `// SAFETY:` comment (same line or \
                           directly above) stating the invariant that makes it sound"
                        .into(),
                });
            }
        }
    }

    // Pass 3: API-surface lock.
    let current = surface::current(&files);
    let lock_path = root.join(surface::SURFACE_FILE);
    if opts.update_surface {
        fs::write(&lock_path, surface::render(&current))?;
    } else if lock_path.exists() {
        let recorded = surface::parse(&fs::read_to_string(&lock_path)?);
        report.violations.extend(surface::diff(&current, &recorded));
    }
    // Trees without a lock (fixtures, fresh checkouts) skip the check,
    // mirroring the budget-file behavior.

    // Deep budgets: used barriers per crate, ratchet-only.
    let budget_path = root.join(budgets::BUDGET_FILE);
    if budget_path.exists() {
        let mut recorded =
            budgets::parse_file(&fs::read_to_string(&budget_path)?).map_err(io::Error::other)?;
        let mut current_counts: BTreeMap<String, usize> = BTreeMap::new();
        for b in &report.barriers {
            *current_counts
                .entry(budgets::bucket_of(&b.file))
                .or_insert(0) += 1;
        }
        if opts.update_budgets {
            recorded.deep = budgets::tighten(&recorded.deep, &current_counts);
            fs::write(&budget_path, budgets::render_file(&recorded))?;
        }
        report.violations.extend(budgets::check_counts(
            &current_counts,
            &recorded.deep,
            "used taint-barrier",
            "cargo xtask deep-lint --update-budgets",
        ));
    }

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .barriers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .unsafe_inventory
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_carries_all_three_sections() {
        let mut r = DeepReport::default();
        r.violations.push(Violation {
            file: "crates/pipeline/src/frame.rs".into(),
            line: 3,
            rule: "deep-determinism-taint".into(),
            snippet: "FrameSim::try_run".into(),
            hint: "chain".into(),
        });
        r.barriers.push(BarrierEntry {
            file: "crates/alloc/src/lib.rs".into(),
            line: 9,
            why: "identity key only".into(),
        });
        r.unsafe_inventory.push(UnsafeEntry {
            file: "crates/alloc/src/lib.rs".into(),
            line: 20,
            kind: "fn",
            context: "CountingAlloc::alloc".into(),
            justified: true,
        });
        let j = r.render_json();
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("\"barriers\": ["));
        assert!(j.contains("\"unsafe_inventory\": ["));
        assert!(j.contains("\"justified\": true"));
        assert!(j.contains("deep-determinism-taint"));
    }

    #[test]
    fn text_report_summarizes_counts() {
        let r = DeepReport {
            files_scanned: 3,
            fn_count: 10,
            edge_count: 7,
            ..DeepReport::default()
        };
        let t = r.render_text();
        assert!(t.contains("3 file(s) parsed"), "{t}");
        assert!(t.contains("10 fn(s)"), "{t}");
        assert!(t.contains("0 violation(s)"), "{t}");
    }
}
