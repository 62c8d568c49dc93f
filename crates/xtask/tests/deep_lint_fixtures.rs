//! End-to-end pins for `cargo xtask deep-lint`:
//!
//! * the `tainted` fixture reports a two-hop wall-clock chain against
//!   the sim entry point, plus the bare unsafe site;
//! * `--why` prints the same chain through the binary;
//! * the `barrier` fixture comes out taint-clean with the barrier
//!   counted as used;
//! * the `drift` fixture trips `api-surface` in both directions;
//! * the `testmod` fixture's `#[cfg(test)] mod reference;` file stays
//!   out of the surface lock and the library lints;
//! * the real workspace is deep-lint clean (the acceptance gate CI
//!   runs).

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::deep::{deep_lint_root, DeepOptions};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/deep")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn two_hop_clock_taint_is_reported_with_the_full_chain() {
    let report =
        deep_lint_root(&fixture("tainted"), &DeepOptions::default()).expect("deep-lint fixture");
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "deep-determinism-taint")
        .expect("the sim entry point must be flagged");
    assert_eq!(v.file, "crates/pipeline/src/lib.rs");
    assert_eq!(v.snippet, "FrameSim::try_run");
    for hop in ["FrameSim::try_run", "helper_a", "helper_b", "Instant::now"] {
        assert!(v.hint.contains(hop), "chain must show `{hop}`: {}", v.hint);
    }
}

#[test]
fn bare_unsafe_is_flagged_and_justified_unsafe_is_not() {
    let report =
        deep_lint_root(&fixture("tainted"), &DeepOptions::default()).expect("deep-lint fixture");
    let unsafe_violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "unsafe-safety")
        .collect();
    assert_eq!(unsafe_violations.len(), 1, "only the bare site trips");
    assert_eq!(unsafe_violations[0].file, "crates/alloc/src/lib.rs");
    assert_eq!(unsafe_violations[0].line, 12);
    // The inventory still lists both sites, with the SAFETY-annotated
    // one marked justified.
    let alloc_sites: Vec<_> = report
        .unsafe_inventory
        .iter()
        .filter(|u| u.file == "crates/alloc/src/lib.rs")
        .collect();
    assert_eq!(alloc_sites.len(), 2);
    assert!(alloc_sites.iter().any(|u| u.justified));
    assert!(alloc_sites.iter().any(|u| !u.justified));
}

#[test]
fn why_prints_the_chain_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["deep-lint", "--root"])
        .arg(fixture("tainted"))
        .args(["--why", "FrameSim::try_run"])
        .output()
        .expect("run xtask binary");
    assert_eq!(out.status.code(), Some(1), "tainted fixture exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TAINTED"), "{stdout}");
    for hop in ["helper_a", "helper_b", "Instant::now"] {
        assert!(stdout.contains(hop), "--why must show `{hop}`: {stdout}");
    }
}

#[test]
fn a_taint_barrier_stops_propagation_and_is_counted_used() {
    let report =
        deep_lint_root(&fixture("barrier"), &DeepOptions::default()).expect("deep-lint fixture");
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == "deep-determinism-taint"),
        "the barrier must cut the chain:\n{}",
        report.render_text()
    );
    assert!(
        !report.violations.iter().any(|v| v.rule == "taint-barrier"),
        "a chain-cutting barrier is not stale"
    );
    assert_eq!(report.barriers.len(), 1, "the used barrier is budgetable");
    assert!(report.barriers[0].why.contains("pads wall time"));
}

#[test]
fn surface_drift_fails_in_both_directions_without_update() {
    let report =
        deep_lint_root(&fixture("drift"), &DeepOptions::default()).expect("deep-lint fixture");
    let drift: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "api-surface")
        .collect();
    assert_eq!(drift.len(), 2, "rename shows as one add + one removal");
    assert!(
        drift
            .iter()
            .any(|v| v.snippet.contains("width: u32") && v.hint.contains("--update-surface")),
        "the new signature is undeclared: {drift:?}"
    );
    assert!(
        drift
            .iter()
            .any(|v| v.snippet.contains("w: u32") && v.hint.contains("gone")),
        "the locked signature is missing: {drift:?}"
    );
}

#[test]
fn a_cfg_test_module_file_stays_out_of_the_surface_and_the_lints() {
    let root = fixture("testmod");
    let report = deep_lint_root(&root, &DeepOptions::default()).expect("deep-lint fixture");
    assert!(
        report.ok(),
        "the lock names only the library fn:\n{}",
        report.render_text()
    );
    let lint = xtask::lint_root(&root).expect("lint fixture");
    assert!(
        lint.violations.is_empty(),
        "the reference's unwrap is test code: {:?}",
        lint.violations
    );
}

#[test]
fn the_workspace_is_deep_lint_clean() {
    let report =
        deep_lint_root(&workspace_root(), &DeepOptions::default()).expect("deep-lint workspace");
    assert!(
        report.ok(),
        "workspace must stay deep-lint clean:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 40, "walker found the workspace");
    assert!(report.fn_count > 500, "parser extracted the workspace fns");
    assert!(report.edge_count > 500, "call edges resolved");
    // The surface lock is checked in and exercised.
    assert!(workspace_root().join("api-surface.lock").exists());
    // Every remaining workspace unsafe site is justified.
    assert!(
        report.unsafe_inventory.iter().all(|u| u.justified),
        "unsafe sites without SAFETY comments"
    );
}
