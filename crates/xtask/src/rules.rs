//! The rule table and per-file checker.
//!
//! Three rule families (docs/LINTS.md):
//!
//! * **determinism** (`determinism-hash`, `determinism-rng`,
//!   `determinism-clock`, `determinism-env`) — simulation crates must
//!   not consult unordered containers, ambient randomness, the wall
//!   clock or the process environment: one stray `HashMap` iteration
//!   breaks the bit-identity that makes the paper numbers checkable.
//! * **no-panic** (`no-panic`) — non-test library code must surface
//!   typed errors instead of panicking, unless a site carries a
//!   `// lint: allow(no-panic) -- <why>` justification.
//! * **determinism-iter** (`determinism-iter`) — a structural check
//!   (in [`check_file`], not the pattern table): a float reduction
//!   (`.sum::<f64>()`, `.fold(0.0, ..)`, …) within three lines of an
//!   unordered container (`HashMap`, `HashSet`, `BinaryHeap`) is
//!   flagged even where the container itself carries a membership-only
//!   `allow(determinism-hash)`: float addition is not associative, so
//!   reducing over unspecified iteration order yields run-dependent
//!   sums. Reductions over slices/`Vec`s/`BTreeMap`s are ordered and
//!   never flagged.
//! * **typed-error parity** (`typed-error-parity`) — every
//!   `#[should_panic]` test names a sibling test pinning the typed
//!   error variant via `// lint: typed-sibling(<test_fn>)`.
//!
//! Annotation hygiene itself is checked as `lint-annotation`
//! (malformed or stale annotations are violations too).

use crate::sanitize::sanitize;

/// Crate directories whose `src/` trees are simulation code and get
/// the determinism rules. This is a superset of the issue's floor
/// (`core::{sim,metrics,experiments}`): all of `core` is scanned, with
/// the sweep watchdog covered by the built-in allowlist below.
pub const SIM_CRATES: &[&str] = &[
    "gmath", "mem", "texture", "sched", "scene", "pipeline", "trace", "core", "alloc", "obs",
];

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Non-test lines of simulation-crate library code.
    Sim,
    /// Non-test lines of any workspace library code.
    Lib,
}

/// A literal pattern with optional identifier-boundary checks.
#[derive(Debug)]
pub struct Pattern {
    /// Substring to search for in sanitized code.
    pub needle: &'static str,
    /// Require a non-identifier character (or line start) before.
    pub word_start: bool,
    /// Require a non-identifier character (or line end) after.
    pub word_end: bool,
}

/// One lint rule: an id, a scope, the patterns that trigger it and a
/// fix hint.
#[derive(Debug)]
pub struct Rule {
    /// Stable rule id (used in `allow(...)` annotations and reports).
    pub id: &'static str,
    /// Scope the rule applies to.
    pub scope: RuleScope,
    /// Any match on a non-test line is a violation.
    pub patterns: &'static [Pattern],
    /// Suggested fix, printed with each violation.
    pub hint: &'static str,
}

const fn word(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        word_start: true,
        word_end: true,
    }
}

const fn prefix(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        word_start: true,
        word_end: false,
    }
}

const fn exact(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        word_start: false,
        word_end: false,
    }
}

/// The rule table. `typed-error-parity` and `lint-annotation` are
/// structural checks implemented in [`check_file`] rather than
/// pattern rules.
pub const RULES: &[Rule] = &[
    Rule {
        id: "determinism-hash",
        scope: RuleScope::Sim,
        patterns: &[word("HashMap"), word("HashSet")],
        hint: "iteration order is unspecified: use BTreeMap/BTreeSet or a sorted Vec, or \
               justify membership-only use with `// lint: allow(determinism-hash) -- <why>`",
    },
    Rule {
        id: "determinism-rng",
        scope: RuleScope::Sim,
        patterns: &[word("thread_rng"), word("from_entropy")],
        hint: "ambient randomness breaks replay: seed explicitly (splitmix64-style) so every \
               run is bit-identical",
    },
    Rule {
        id: "determinism-clock",
        scope: RuleScope::Sim,
        patterns: &[
            exact("Instant::now"),
            exact("SystemTime::now"),
            exact("thread::sleep"),
        ],
        hint: "wall-clock reads diverge across runs: derive timing from simulated cycles, or \
               justify a wall-clock-only effect with `// lint: allow(determinism-clock) -- <why>`",
    },
    Rule {
        id: "determinism-env",
        scope: RuleScope::Sim,
        patterns: &[prefix("env::var"), word("available_parallelism")],
        hint: "ambient environment reads make results machine-dependent: thread the value \
               through a config field instead",
    },
    Rule {
        id: "no-panic",
        scope: RuleScope::Lib,
        patterns: &[
            exact(".unwrap()"),
            exact(".expect("),
            word("panic!"),
            word("unreachable!"),
            word("todo!"),
            word("unimplemented!"),
        ],
        hint: "return a typed error (SimError/TraceError/JobError) instead, or justify with \
               `// lint: allow(no-panic) -- <why>`",
    },
];

/// Fix hint for the structural `typed-error-parity` rule.
pub const PARITY_HINT: &str =
    "pair this `#[should_panic]` with a sibling test pinning the typed SimError/TraceError \
     variant and name it in `// lint: typed-sibling(<test_fn>)` on the line above";

/// A built-in allowlist entry: `needle` occurrences of `rule` in files
/// whose path ends with `path_suffix` are allowed without a per-line
/// annotation. Reserved for the two wall-clock escapes the design
/// depends on (docs/LINTS.md).
#[derive(Debug)]
pub struct BuiltinAllow {
    /// Path suffix (forward slashes) the entry applies to.
    pub path_suffix: &'static str,
    /// Rule id being allowed.
    pub rule: &'static str,
    /// Only matches of this needle are allowed.
    pub needle: &'static str,
    /// Why this site is exempt.
    pub reason: &'static str,
}

/// The built-in allowlist.
pub const ALLOWLIST: &[BuiltinAllow] = &[
    BuiltinAllow {
        path_suffix: "crates/core/src/sweep.rs",
        rule: "determinism-clock",
        needle: "Instant::now",
        reason: "sweep watchdog: wall-clock timeouts of watched jobs' disposable threads; \
                 simulated metrics are derived from replayed cycles and unaffected",
    },
    BuiltinAllow {
        path_suffix: "crates/core/src/sweep.rs",
        rule: "determinism-clock",
        needle: "thread::sleep",
        reason: "retry backoff sleeps on the sweep control thread; job results are identical \
                 with the test sleeper injected",
    },
    BuiltinAllow {
        path_suffix: "crates/pipeline/src/frame.rs",
        rule: "determinism-clock",
        needle: "thread::sleep",
        reason: "fault-injection wall stall: shifts wall time only and never touches \
                 simulated state",
    },
    BuiltinAllow {
        path_suffix: "crates/core/src/dispatch.rs",
        rule: "determinism-clock",
        needle: "Instant::now",
        reason: "fleet supervisor: wedge timers and restart backoff schedule real child \
                 processes; simulated results come from the children's journals and are \
                 bit-identical regardless of supervision timing \
                 (pinned by crates/cli/tests/dispatch_resilience.rs)",
    },
];

/// How a file is treated by the pattern rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Simulation-crate library code: determinism + no-panic.
    SimLib,
    /// Other library code: no-panic only.
    Lib,
    /// Binary entry points: structural rules only.
    Bin,
    /// Integration tests / benches: structural rules only.
    Test,
}

/// Classify a workspace-relative path (forward slashes).
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
        return FileClass::Test;
    }
    if rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.ends_with("/main.rs")
    {
        return FileClass::Bin;
    }
    for c in SIM_CRATES {
        let prefix = format!("crates/{c}/src/");
        if rel.starts_with(&prefix) {
            return FileClass::SimLib;
        }
    }
    FileClass::Lib
}

/// One rule violation in one file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Suggested fix.
    pub hint: String,
}

/// One allowed (annotated or allowlisted) site.
#[derive(Debug, Clone)]
pub struct AllowedSite {
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: String,
    /// Annotation justification or allowlist reason.
    pub justification: String,
    /// `true` when from the built-in allowlist, `false` for a
    /// `// lint: allow` annotation.
    pub builtin: bool,
}

/// Everything the checker found in one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations, in line order.
    pub findings: Vec<Finding>,
    /// Allowed sites, in line order.
    pub allowed: Vec<AllowedSite>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn line_matches(line: &str, p: &Pattern) -> bool {
    for (idx, _) in line.match_indices(p.needle) {
        let start_ok =
            !p.word_start || line[..idx].chars().next_back().is_none_or(|c| !is_ident(c));
        let end_ok = !p.word_end
            || line[idx + p.needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c));
        if start_ok && end_ok {
            return true;
        }
    }
    false
}

fn builtin_allow(rel: &str, rule: &str, line: &str) -> Option<&'static BuiltinAllow> {
    ALLOWLIST
        .iter()
        .find(|a| a.rule == rule && rel.ends_with(a.path_suffix) && line.contains(a.needle))
}

/// Check one file. `rel` is the workspace-relative path with forward
/// slashes, `class` its [`crate::walk::sources`] class and `source` its
/// full text.
#[must_use]
pub fn check_file(rel: &str, class: FileClass, source: &str) -> FileOutcome {
    let s = sanitize(source);
    let original: Vec<&str> = source.lines().collect();
    let snippet = |line: usize| -> String {
        original
            .get(line - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut out = FileOutcome::default();
    let mut used_allows: Vec<bool> = vec![false; s.allows.len()];
    let mut used_siblings: Vec<bool> = vec![false; s.siblings.len()];

    for (line, problem) in &s.bad_annotations {
        out.findings.push(Finding {
            line: *line,
            rule: "lint-annotation".into(),
            snippet: snippet(*line),
            hint: format!("malformed annotation: {problem}"),
        });
    }

    for rule in RULES {
        let applies = matches!(
            (rule.scope, class),
            (RuleScope::Sim, FileClass::SimLib)
                | (RuleScope::Lib, FileClass::SimLib | FileClass::Lib)
        );
        if !applies {
            continue;
        }
        for (idx, code) in s.code_lines.iter().enumerate() {
            if s.test_lines.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let lineno = idx + 1;
            if !rule.patterns.iter().any(|p| line_matches(code, p)) {
                continue;
            }
            if let Some(pos) = s
                .allows
                .iter()
                .position(|a| a.rule == rule.id && (a.line == lineno || a.line + 1 == lineno))
            {
                used_allows[pos] = true;
                out.allowed.push(AllowedSite {
                    line: lineno,
                    rule: rule.id.into(),
                    justification: s.allows[pos].justification.clone(),
                    builtin: false,
                });
            } else if let Some(b) = builtin_allow(rel, rule.id, code) {
                out.allowed.push(AllowedSite {
                    line: lineno,
                    rule: rule.id.into(),
                    justification: b.reason.into(),
                    builtin: true,
                });
            } else {
                out.findings.push(Finding {
                    line: lineno,
                    rule: rule.id.into(),
                    snippet: snippet(lineno),
                    hint: rule.hint.into(),
                });
            }
        }
    }

    // determinism-iter: a float reduction fed (within a three-line
    // window) by an unordered container. The pattern rules ban the
    // containers themselves, but a membership-only allow(determinism-
    // hash) must not quietly license *iterating* one into a sum.
    if class == FileClass::SimLib {
        const REDUCTIONS: &[&str] = &[
            ".sum::<f64>",
            ".sum::<f32>",
            ".product::<f64>",
            ".product::<f32>",
            ".fold(0.0",
            ".fold(0f64",
            ".fold(0f32",
        ];
        const UNORDERED: &[Pattern] = &[word("HashMap"), word("HashSet"), word("BinaryHeap")];
        for (idx, code) in s.code_lines.iter().enumerate() {
            if s.test_lines.get(idx).copied().unwrap_or(false) {
                continue;
            }
            if !REDUCTIONS.iter().any(|n| code.contains(n)) {
                continue;
            }
            let window = &s.code_lines[idx.saturating_sub(3)..=idx];
            if !window
                .iter()
                .any(|l| UNORDERED.iter().any(|p| line_matches(l, p)))
            {
                continue;
            }
            let lineno = idx + 1;
            if let Some(pos) = s.allows.iter().position(|a| {
                a.rule == "determinism-iter" && (a.line == lineno || a.line + 1 == lineno)
            }) {
                used_allows[pos] = true;
                out.allowed.push(AllowedSite {
                    line: lineno,
                    rule: "determinism-iter".into(),
                    justification: s.allows[pos].justification.clone(),
                    builtin: false,
                });
            } else {
                out.findings.push(Finding {
                    line: lineno,
                    rule: "determinism-iter".into(),
                    snippet: snippet(lineno),
                    hint: "float reductions over unordered iteration are run-dependent \
                           (float addition is not associative): collect into a sorted Vec \
                           or BTreeMap first, or justify with \
                           `// lint: allow(determinism-iter) -- <why>`"
                        .into(),
                });
            }
        }
    }

    // typed-error-parity: every `#[should_panic` attribute (test code
    // included — that is where they live) needs a typed-sibling
    // annotation within the three lines above, naming a function that
    // exists in this file.
    for (idx, code) in s.code_lines.iter().enumerate() {
        if !code.contains("#[should_panic") {
            continue;
        }
        let lineno = idx + 1;
        let found = s
            .siblings
            .iter()
            .position(|a| a.line <= lineno && a.line + 3 >= lineno);
        match found {
            None => out.findings.push(Finding {
                line: lineno,
                rule: "typed-error-parity".into(),
                snippet: snippet(lineno),
                hint: PARITY_HINT.into(),
            }),
            Some(pos) => {
                used_siblings[pos] = true;
                let name = &s.siblings[pos].test_fn;
                if !fn_exists(&s.code_lines, name) {
                    out.findings.push(Finding {
                        line: lineno,
                        rule: "typed-error-parity".into(),
                        snippet: snippet(lineno),
                        hint: format!(
                            "typed-sibling names `{name}` but no `fn {name}` exists in this file"
                        ),
                    });
                }
            }
        }
    }

    for (pos, a) in s.allows.iter().enumerate() {
        if !used_allows[pos] {
            out.findings.push(Finding {
                line: a.line,
                rule: "lint-annotation".into(),
                snippet: snippet(a.line),
                hint: format!(
                    "stale annotation: nothing on this or the next line triggers `{}`",
                    a.rule
                ),
            });
        }
    }
    for (pos, a) in s.siblings.iter().enumerate() {
        if !used_siblings[pos] {
            out.findings.push(Finding {
                line: a.line,
                rule: "lint-annotation".into(),
                snippet: snippet(a.line),
                hint: "stale typed-sibling: no `#[should_panic]` within three lines below".into(),
            });
        }
    }

    out.findings
        .sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out.allowed
        .sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

fn fn_exists(code_lines: &[String], name: &str) -> bool {
    code_lines.iter().any(|l| {
        l.match_indices("fn ").any(|(idx, _)| {
            let rest = &l[idx + 3..];
            rest.trim_start().starts_with(name)
                && rest
                    .trim_start()
                    .get(name.len()..)
                    .and_then(|t| t.chars().next())
                    .is_none_or(|c| !is_ident(c))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, source: &str) -> FileOutcome {
        check_file(rel, classify(rel), source)
    }

    #[test]
    fn sim_lib_gets_determinism_rules() {
        assert_eq!(classify("crates/mem/src/lane.rs"), FileClass::SimLib);
        assert_eq!(classify("crates/cli/src/args.rs"), FileClass::Lib);
        assert_eq!(classify("crates/cli/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("crates/bench/src/bin/figures.rs"), FileClass::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Bin);
        assert_eq!(classify("crates/mem/examples/demo.rs"), FileClass::Bin);
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("crates/mem/tests/x.rs"), FileClass::Test);
    }

    #[test]
    fn hashmap_in_sim_crate_is_flagged_and_allowable() {
        let src = "use std::collections::HashMap;\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "determinism-hash");
        assert_eq!(out.findings[0].line, 1);

        let src = "// lint: allow(determinism-hash) -- membership only, never iterated\n\
                   use std::collections::HashMap;\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowed.len(), 1);
        assert!(!out.allowed[0].builtin);
    }

    #[test]
    fn unwrap_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn stale_allow_is_a_violation() {
        let src = "// lint: allow(no-panic) -- nothing here\nlet x = 1;\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "lint-annotation");
    }

    #[test]
    fn builtin_allowlist_covers_the_sweep_watchdog() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let out = check("crates/core/src/sweep.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowed.len(), 1);
        assert!(out.allowed[0].builtin);
        // The same code elsewhere in core is a violation.
        let out = check("crates/core/src/sim.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "determinism-clock");
    }

    #[test]
    fn should_panic_requires_named_existing_sibling() {
        let src = "#[should_panic]\nfn boom() {}\n";
        let out = check("tests/x.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "typed-error-parity");

        let src = "// lint: typed-sibling(typed_twin)\n#[should_panic]\nfn boom() {}\nfn typed_twin() {}\n";
        let out = check("tests/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);

        let src = "// lint: typed-sibling(missing)\n#[should_panic]\nfn boom() {}\n";
        let out = check("tests/x.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].hint.contains("missing"));
    }

    #[test]
    fn patterns_respect_identifier_boundaries() {
        let src = "fn prefetch_from_entropy_pool() {}\nlet x = my_thread_rng_name;\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let src = "let r = thread_rng();\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "determinism-rng");
    }

    #[test]
    fn float_reduction_over_unordered_iteration_is_flagged() {
        // A membership-allowed HashMap iterated into a float sum: the
        // hash allow is honored, but the reduction is its own finding.
        let src = "// lint: allow(determinism-hash) -- membership only\n\
                   let m: HashMap<u32, f64> = HashMap::new();\n\
                   let total = m.values()\n\
                   .sum::<f64>();\n";
        let out = check("crates/core/src/x.rs", src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "determinism-iter");
        assert_eq!(out.findings[0].line, 4);

        // An explicit allow silences it (and is not stale).
        let src = "// lint: allow(determinism-hash) -- membership only\n\
                   let m: HashMap<u32, f64> = HashMap::new();\n\
                   // lint: allow(determinism-iter) -- sum of non-negative is order-checked\n\
                   let total = m.values().sum::<f64>();\n";
        let out = check("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowed.len(), 2);
    }

    #[test]
    fn float_reduction_over_ordered_iteration_is_fine() {
        // Slices and BTreeMaps iterate in a specified order.
        let src = "let total = samples.iter().copied().sum::<f64>();\n\
                   let t2: BTreeMap<u32, f64> = BTreeMap::new();\n\
                   let s2 = t2.values().sum::<f64>();\n";
        let out = check("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        // Beyond the three-line window the reduction is not tied to
        // the container (and test code is never scanned).
        let src = "// lint: allow(determinism-hash) -- membership only\n\
                   let m: HashSet<u32> = HashSet::new();\n\
                   let a = 1;\nlet b = 2;\nlet c = 3;\n\
                   let total = xs.iter().sum::<f64>();\n";
        let out = check("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let m: HashMap<u32, f64> = HashMap::new();\n        let s = m.values().sum::<f64>();\n    }\n}\n";
        let out = check("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn obs_crate_is_a_sim_crate() {
        assert_eq!(classify("crates/obs/src/lib.rs"), FileClass::SimLib);
        let src = "let t = Instant::now();\n";
        let out = check("crates/obs/src/lib.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "determinism-clock");
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "let x = y.unwrap_or(0).max(z.unwrap_or_default());\n";
        let out = check("crates/mem/src/lib.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
