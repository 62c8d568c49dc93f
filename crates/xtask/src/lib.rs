//! `cargo xtask lint` — repo invariant checker.
//!
//! A dependency-free, lexer-level scanner enforcing the invariants the
//! DTexL reproduction depends on (docs/LINTS.md):
//!
//! * **determinism** in simulation crates — no unordered-container
//!   iteration, ambient randomness, wall-clock reads or environment
//!   sniffing in any path that feeds simulated metrics;
//! * **no-panic** in library code — typed errors or a justified
//!   `// lint: allow(no-panic) -- <why>` annotation;
//! * **typed-error parity** — every `#[should_panic]` test names a
//!   sibling pinning the typed error via
//!   `// lint: typed-sibling(<test_fn>)`.
//!
//! The scanner is intentionally not a Rust parser: [`sanitize`] blanks
//! comments and literals so the substring rules in [`rules`] are sound
//! on this workspace, and that is all `cargo xtask lint` needs to work
//! against the offline vendored registry.
//!
//! A second, deeper tier — `cargo xtask deep-lint` ([`deep`]) — parses
//! the same sanitized sources into a workspace call graph ([`parse`],
//! [`graph`]) and runs transitive passes on top: determinism taint
//! ([`taint`]), the unsafe audit, and the API-surface lock
//! ([`surface`]). Tier 1 stays line-local and fast; tier 2 catches
//! what only whole-program reachability can see.

pub mod budgets;
pub mod deep;
pub mod graph;
pub mod parse;
pub mod report;
pub mod rules;
pub mod sanitize;
pub mod surface;
pub mod taint;
pub mod walk;

use report::Report;
use std::fs;
use std::io;
use std::path::Path;

/// Scan every workspace source under `root` (pattern + structural
/// rules only — no budget enforcement).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable tree or file).
pub fn scan_root(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for src in walk::sources(root)? {
        let outcome = rules::check_file(&src.rel, src.class, &src.text);
        report.absorb(&src.rel, outcome.findings, outcome.allowed);
    }
    Ok(report)
}

/// Lint every workspace source under `root`, returning the aggregated
/// report. When `root` carries a [`budgets::BUDGET_FILE`], per-crate
/// allowlist budgets are enforced on top of the scan (trees without
/// one — fixtures, fresh checkouts — lint exactly as before).
///
/// # Errors
///
/// Propagates filesystem errors and a malformed budget file.
pub fn lint_root(root: &Path) -> io::Result<Report> {
    let mut report = scan_root(root)?;
    let budget_path = root.join(budgets::BUDGET_FILE);
    if budget_path.exists() {
        let text = fs::read_to_string(&budget_path)?;
        let recorded = budgets::parse(&text).map_err(io::Error::other)?;
        let mut budget_violations = budgets::check(&report, &recorded);
        report.violations.append(&mut budget_violations);
    }
    Ok(report)
}

/// `--update-budgets`: scan, ratchet the budget file down to
/// `min(recorded, current)` per crate (creating it from current counts
/// if absent), and return the scan report — which, checked against the
/// file just written, can still fail on *over*-recorded crates because
/// the ratchet never raises a budget.
///
/// # Errors
///
/// Propagates filesystem errors and a malformed existing budget file.
pub fn update_budgets(root: &Path) -> io::Result<Report> {
    let report = scan_root(root)?;
    let budget_path = root.join(budgets::BUDGET_FILE);
    let mut recorded = if budget_path.exists() {
        budgets::parse_file(&fs::read_to_string(&budget_path)?).map_err(io::Error::other)?
    } else {
        budgets::BudgetFile::default()
    };
    // Tighten the tier-1 table only; the [deep-allow-budgets] table is
    // deep-lint's and rides through verbatim.
    recorded.allow = budgets::tighten(&recorded.allow, &budgets::counts(&report));
    fs::write(&budget_path, budgets::render_file(&recorded))?;
    let mut report = report;
    let mut budget_violations = budgets::check(&report, &recorded.allow);
    report.violations.append(&mut budget_violations);
    Ok(report)
}
