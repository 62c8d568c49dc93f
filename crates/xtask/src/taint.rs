//! Determinism taint propagation over the workspace call graph.
//!
//! Sources (wall-clock reads, ambient randomness, environment sniffs,
//! pointer-address observation, unordered-iteration float reductions —
//! see [`graph`](crate::graph)) taint the function containing them,
//! and taint flows **callee → caller**: if `helper_b` reads the clock
//! and `helper_a` calls it, every caller of `helper_a` is tainted too.
//! A `// lint: taint-barrier(<why>)` on a `fn` lets the function stay
//! tainted internally but stops the taint from reaching its callers;
//! a barrier on the source line suppresses the source itself.
//!
//! A violation is any **sim entry point** (the [`ROOTS`] table:
//! `FrameSim::try_run*`, `Simulator::simulate*`, sweep metric
//! emission) that ends up tainted — reported with the shortest
//! offending call chain so the fix site is obvious. Barriers that
//! guard nothing are violations too (`taint-barrier` rule), mirroring
//! the tier-1 stale-allow check.

use crate::graph::{BarrierTarget, Graph};
use crate::report::Violation;
use crate::rules::{classify, FileClass};
use std::collections::VecDeque;

/// Sim entry points: `(impl type, fn name)`. Tainting any of these
/// means a published metric can depend on wall time, addresses or
/// iteration order.
pub const ROOTS: &[(&str, &str)] = &[
    ("FrameSim", "try_run"),
    ("FrameSim", "try_run_prefixed"),
    ("FrameSim", "try_run_prefixed_probed"),
    ("Simulator", "simulate"),
    ("Simulator", "simulate_scene"),
    ("Simulator", "simulate_sequence"),
    ("SweepJob", "simulate"),
    ("SweepJob", "simulate_with"),
    ("SweepJob", "simulate_rollup"),
    ("JobMetrics", "of"),
];

/// The taint pass result.
#[derive(Debug, Default)]
pub struct TaintOutcome {
    /// `tainted[f]`: fn `f` contains or transitively calls an
    /// unsuppressed source.
    pub tainted: Vec<bool>,
    /// Tainted roots (rule `deep-determinism-taint`) and stale
    /// barriers (rule `taint-barrier`), in deterministic order.
    pub violations: Vec<Violation>,
    /// Used barriers, as `(file, line, why)` — these are the deep
    /// escape hatches the budget table counts.
    pub used_barriers: Vec<(String, usize, String)>,
}

/// Indices of root fns in the graph (sim-crate, non-test definitions
/// matching [`ROOTS`]).
#[must_use]
pub fn root_fns(g: &Graph) -> Vec<usize> {
    (0..g.fns.len())
        .filter(|&i| {
            let f = &g.fns[i];
            !f.is_test
                && classify(&f.file) == FileClass::SimLib
                && f.impl_type.as_deref().is_some_and(|ty| {
                    ROOTS
                        .iter()
                        .any(|(rty, rname)| *rty == ty && *rname == f.name)
                })
        })
        .collect()
}

fn propagate(g: &Graph) -> Vec<bool> {
    let mut tainted = vec![false; g.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (idx, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if f.sources.iter().any(|&s| g.sources[s].suppressed.is_none()) {
            tainted[idx] = true;
            queue.push_back(idx);
        }
    }
    while let Some(f) = queue.pop_front() {
        if g.fns[f].barrier.is_some() {
            continue; // tainted inside, but the barrier holds it there
        }
        for &caller in &g.callers[f] {
            if !tainted[caller] && !g.fns[caller].is_test {
                tainted[caller] = true;
                queue.push_back(caller);
            }
        }
    }
    tainted
}

/// Shortest call chain from `from` to an unsuppressed source, walking
/// forward edges through tainted, barrier-free callees. Returns the
/// rendered chain, or `None` when `from` is not tainted.
#[must_use]
pub fn chain_from(g: &Graph, tainted: &[bool], from: usize) -> Option<String> {
    if !tainted.get(from).copied().unwrap_or(false) {
        return None;
    }
    // BFS: predecessor map over fn indices, recording the call line.
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; g.fns.len()];
    let mut seen = vec![false; g.fns.len()];
    let mut queue = VecDeque::new();
    seen[from] = true;
    queue.push_back(from);
    let mut terminal: Option<usize> = None;
    while let Some(f) = queue.pop_front() {
        if g.fns[f]
            .sources
            .iter()
            .any(|&s| g.sources[s].suppressed.is_none())
        {
            terminal = Some(f);
            break;
        }
        for &(callee, line) in &g.callees[f] {
            // Taint cannot have flowed out of a barrier fn, so a path
            // through one would be a false explanation.
            if !seen[callee] && tainted[callee] && g.fns[callee].barrier.is_none() {
                seen[callee] = true;
                prev[callee] = Some((f, line));
                queue.push_back(callee);
            }
        }
    }
    let end = terminal?;
    // Reconstruct from -> .. -> end.
    let mut hops: Vec<(usize, Option<usize>)> = Vec::new(); // (fn, call line in caller)
    let mut cur = end;
    while cur != from {
        let (p, line) = prev[cur]?;
        hops.push((cur, Some(line)));
        cur = p;
    }
    hops.push((from, None));
    hops.reverse();
    let mut out = String::new();
    for (i, (f, call_line)) in hops.iter().enumerate() {
        if i > 0 {
            out.push_str(" -> ");
        }
        out.push_str(&g.name_of(*f));
        match call_line {
            Some(line) => {
                // The call line lives in the caller's file.
                let caller = hops[i - 1].0;
                out.push_str(&format!(" [{}:{line}]", g.fns[caller].file));
            }
            None => out.push_str(&format!(" [{}:{}]", g.fns[*f].file, g.fns[*f].line)),
        }
    }
    // Name the source at the end of the chain.
    if let Some(src) = g.fns[end]
        .sources
        .iter()
        .map(|&s| &g.sources[s])
        .find(|s| s.suppressed.is_none())
    {
        out.push_str(&format!(
            " -> {} `{}` [{}:{}]",
            src.kind, src.needle, src.file, src.line
        ));
    }
    Some(out)
}

/// Run the taint pass.
#[must_use]
pub fn analyze(g: &Graph) -> TaintOutcome {
    let tainted = propagate(g);
    let mut violations = Vec::new();

    for root in root_fns(g) {
        if !tainted[root] {
            continue;
        }
        let chain = chain_from(g, &tainted, root).unwrap_or_else(|| g.name_of(root));
        violations.push(Violation {
            file: g.fns[root].file.clone(),
            line: g.fns[root].line,
            rule: "deep-determinism-taint".into(),
            snippet: g.name_of(root),
            hint: format!(
                "sim entry point reaches a nondeterminism source: {chain}; make the callee \
                 deterministic, or annotate the boundary with \
                 `// lint: taint-barrier(<why>)` and budget it in lint-budgets.toml"
            ),
        });
    }

    let mut used_barriers = Vec::new();
    for b in &g.barriers {
        let used = match &b.target {
            BarrierTarget::Lines(srcs) => !srcs.is_empty(),
            BarrierTarget::Func(idx) => tainted[*idx],
            BarrierTarget::Unattached => false,
        };
        if used {
            used_barriers.push((b.file.clone(), b.line, b.why.clone()));
        } else {
            let detail = match &b.target {
                BarrierTarget::Func(idx) => {
                    format!("`{}` neither contains nor receives taint", g.name_of(*idx))
                }
                _ => "no nondeterminism source on this or the next line, and no `fn` on the \
                      three lines below"
                    .to_string(),
            };
            violations.push(Violation {
                file: b.file.clone(),
                line: b.line,
                rule: "taint-barrier".into(),
                snippet: format!("// lint: taint-barrier({})", b.why),
                hint: format!("stale taint-barrier: {detail}; remove it"),
            });
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    TaintOutcome {
        tainted,
        violations,
        used_barriers,
    }
}

/// `--why <symbol>`: explain a function's taint status. `symbol` is a
/// bare fn name or `Type::name`.
#[must_use]
pub fn why(g: &Graph, tainted: &[bool], symbol: &str) -> String {
    let matches = g.resolve(symbol);
    if matches.is_empty() {
        return format!("`{symbol}`: no such function in the workspace\n");
    }
    let mut out = String::new();
    for idx in matches {
        let name = g.name_of(idx);
        let loc = format!("{}:{}", g.fns[idx].file, g.fns[idx].line);
        if let Some(why) = &g.fns[idx].barrier {
            out.push_str(&format!("`{name}` ({loc}): taint-barrier({why})\n"));
        }
        match chain_from(g, tainted, idx) {
            Some(chain) => {
                out.push_str(&format!("`{name}` ({loc}) is TAINTED:\n  {chain}\n"));
            }
            None => out.push_str(&format!("`{name}` ({loc}) is clean\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::parse::{parse_file, ParsedFile};

    fn build(srcs: &[(&str, &str)]) -> Graph {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(rel, src)| parse_file(rel, src, false))
            .collect();
        let flags = vec![false; files.len()];
        Graph::build(&files, &flags)
    }

    const TWO_HOP: &str = "pub struct FrameSim;\n\
         impl FrameSim {\n\
             pub fn try_run() { helper_a(); }\n\
         }\n\
         fn helper_a() { helper_b(); }\n\
         fn helper_b() { let t = Instant::now(); }\n";

    #[test]
    fn two_hop_taint_reaches_the_root_with_a_chain() {
        let g = build(&[("crates/pipeline/src/lib.rs", TWO_HOP)]);
        let out = analyze(&g);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        let v = &out.violations[0];
        assert_eq!(v.rule, "deep-determinism-taint");
        assert_eq!(v.snippet, "FrameSim::try_run");
        assert!(v.hint.contains("helper_a"), "{}", v.hint);
        assert!(v.hint.contains("helper_b"), "{}", v.hint);
        assert!(v.hint.contains("Instant::now"), "{}", v.hint);
    }

    #[test]
    fn roots_only_count_in_sim_crates() {
        let g = build(&[("crates/cli/src/lib.rs", TWO_HOP)]);
        let out = analyze(&g);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn fn_barrier_stops_propagation_and_is_counted_used() {
        let src = "pub struct FrameSim;\n\
             impl FrameSim {\n\
                 pub fn try_run() { fault_hooks(); }\n\
             }\n\
             // lint: taint-barrier(wall stall only, never read back)\n\
             fn fault_hooks() { std::thread::sleep(d); }\n";
        let g = build(&[("crates/pipeline/src/lib.rs", src)]);
        let out = analyze(&g);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.used_barriers.len(), 1);
    }

    #[test]
    fn line_barrier_suppresses_the_source() {
        let src = "pub struct FrameSim;\n\
             impl FrameSim {\n\
                 pub fn try_run() {\n\
                     // lint: taint-barrier(jitter shifts wall time only)\n\
                     std::thread::sleep(d);\n\
                 }\n\
             }\n";
        let g = build(&[("crates/pipeline/src/lib.rs", src)]);
        let out = analyze(&g);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.used_barriers.len(), 1);
    }

    #[test]
    fn stale_barriers_are_violations() {
        let src = "// lint: taint-barrier(guards nothing at all)\n\
             fn clean() { let x = 1; }\n";
        let g = build(&[("crates/pipeline/src/lib.rs", src)]);
        let out = analyze(&g);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, "taint-barrier");
        assert!(out.used_barriers.is_empty());
    }

    #[test]
    fn supervisor_side_clock_use_never_taints_roots() {
        // Clock use in a *caller* of the root must not flow back down.
        let src = "pub struct SweepJob;\n\
             impl SweepJob {\n\
                 pub fn simulate(&self) -> u64 { 1 }\n\
             }\n\
             pub fn run_attempt(j: &SweepJob) -> u64 {\n\
                 let t = Instant::now();\n\
                 j.simulate()\n\
             }\n";
        let g = build(&[("crates/core/src/lib.rs", src)]);
        let out = analyze(&g);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let attempt = g.resolve("run_attempt")[0];
        assert!(out.tainted[attempt], "the supervisor fn itself is tainted");
    }

    #[test]
    fn why_prints_chain_for_tainted_and_clean_status() {
        let g = build(&[("crates/pipeline/src/lib.rs", TWO_HOP)]);
        let out = analyze(&g);
        let w = why(&g, &out.tainted, "FrameSim::try_run");
        assert!(w.contains("TAINTED"), "{w}");
        assert!(w.contains("helper_b"), "{w}");
        let w = why(&g, &out.tainted, "nope_no_such_fn");
        assert!(w.contains("no such function"), "{w}");
    }
}
