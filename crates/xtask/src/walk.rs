//! Deterministic discovery and classification of the workspace's Rust
//! sources.

use crate::rules::{classify, FileClass};
use crate::sanitize::sanitize;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git", ".github"];

/// One workspace source and the class every lint treats it as.
#[derive(Debug)]
pub struct Source {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// File contents.
    pub text: String,
    /// The path's [`classify`] class, or [`FileClass::Test`] for a file
    /// compiled only through a `#[cfg(test)] mod name;` declaration.
    pub class: FileClass,
}

/// Read and classify every `.rs` file under the workspace's `src/`,
/// `tests/` and `examples/` trees (root crate and `crates/*`), sorted
/// by path: the one classification the pattern lints, deep-lint and
/// the surface lock share.
///
/// # Errors
///
/// Propagates filesystem errors from reading the tree.
pub fn sources(root: &Path) -> io::Result<Vec<Source>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        collect(&root.join(top), &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in sorted_entries(&crates)? {
            if entry.is_dir() {
                for sub in ["src", "tests", "benches", "examples"] {
                    collect(&entry.join(sub), &mut files)?;
                }
            }
        }
    }
    let mut out = Vec::with_capacity(files.len());
    let mut test_modules = BTreeSet::new();
    for path in files {
        let err = |e: &dyn std::fmt::Display| io::Error::other(format!("{}: {e}", path.display()));
        let rel = path.strip_prefix(root).map_err(|e| err(&e))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let text = fs::read_to_string(&path).map_err(|e| err(&e))?;
        let s = sanitize(&text);
        for (code, _) in s.code_lines.iter().zip(&s.test_lines).filter(|(_, t)| **t) {
            test_modules.extend(test_module_files(&rel, code));
        }
        let class = classify(&rel);
        out.push(Source { rel, text, class });
    }
    for src in &mut out {
        if test_modules.contains(&src.rel) {
            src.class = FileClass::Test;
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// The two files a `mod name;` declaration on a code line of `rel` can
/// load (none for other lines).
fn test_module_files(rel: &str, code: &str) -> Vec<String> {
    let mut words = code.split_whitespace();
    let name = words
        .find(|w| *w == "mod")
        .and_then(|_| words.next()?.strip_suffix(';'));
    let Some(name) = name.filter(|n| n.chars().all(|c| c.is_alphanumeric() || c == '_')) else {
        return Vec::new();
    };
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    let base = match file {
        "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
        _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
    };
    vec![format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")]
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_entries(dir)? {
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if entry.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect(&entry, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(entry);
        }
    }
    Ok(())
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_sources_include_this_file_but_not_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let walked = sources(&root).expect("walk workspace");
        let files: Vec<String> = walked.into_iter().map(|s| s.rel).collect();
        assert!(files.iter().any(|rel| rel == "crates/xtask/src/walk.rs"));
        assert!(files.iter().any(|rel| rel.starts_with("tests/")));
        assert!(
            files.iter().any(|rel| rel.starts_with("examples/")),
            "examples are linted too"
        );
        assert!(
            !files.iter().any(|rel| rel.contains("/fixtures/")),
            "fixtures must never be linted as workspace code"
        );
        assert!(!files.iter().any(|rel| rel.contains("vendor/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order is deterministic");
    }

    #[test]
    fn module_declarations_resolve_to_their_files() {
        let lib = "crates/pipeline/src/lib.rs";
        assert_eq!(
            test_module_files(lib, "#[cfg(test)] mod shade_detailed;"),
            [
                "crates/pipeline/src/shade_detailed.rs",
                "crates/pipeline/src/shade_detailed/mod.rs"
            ]
        );
        assert_eq!(
            test_module_files("crates/pipeline/src/shade.rs", "pub(crate) mod a;"),
            [
                "crates/pipeline/src/shade/a.rs",
                "crates/pipeline/src/shade/a/mod.rs"
            ]
        );
        assert!(test_module_files(lib, "mod tests {").is_empty());
        assert!(test_module_files(lib, "let model = 1;").is_empty());
    }

    #[test]
    fn a_cfg_test_module_file_is_test_code() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = sources(&root).expect("walk workspace");
        let class = |rel: &str| files.iter().find(|s| s.rel == rel).map(|s| s.class);
        assert_eq!(
            class("crates/pipeline/src/shade_detailed.rs"),
            Some(FileClass::Test)
        );
        assert_eq!(
            class("crates/pipeline/src/shade.rs"),
            Some(FileClass::SimLib)
        );
    }
}
