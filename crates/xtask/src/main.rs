//! `cargo xtask` entry point.
//!
//! ```text
//! cargo xtask lint [--format text|json] [--root <dir>] [--update-budgets]
//! cargo xtask deep-lint [--format text|json] [--root <dir>] [--why <symbol>]
//!                       [--update-surface] [--update-budgets]
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage/IO
//! error. `--update-budgets` ratchets the respective table of
//! `lint-budgets.toml` down to the current per-crate counts before
//! checking; `--update-surface` accepts API drift into
//! `api-surface.lock`; `--why <symbol>` explains a function's taint
//! status with the full offending call chain.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo xtask lint [--format text|json] [--root <dir>] [--update-budgets]\n\
                     \u{20}      cargo xtask deep-lint [--format text|json] [--root <dir>] \
     [--why <symbol>] [--update-surface] [--update-budgets]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "lint" => cmd_lint(args),
        "deep-lint" => cmd_deep_lint(args),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut format = String::from("text");
    // Default to the workspace this binary was built from, so
    // `cargo xtask lint` works from any subdirectory.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut update_budgets = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--format" => match args.next() {
                Some(v) if v == "text" || v == "json" => format = v,
                _ => {
                    eprintln!("--format takes `text` or `json`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    eprintln!("--root takes a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--update-budgets" => update_budgets = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let result = if update_budgets {
        xtask::update_budgets(&root)
    } else {
        xtask::lint_root(&root)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_deep_lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut format = String::from("text");
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut opts = xtask::deep::DeepOptions::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--format" => match args.next() {
                Some(v) if v == "text" || v == "json" => format = v,
                _ => {
                    eprintln!("--format takes `text` or `json`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    eprintln!("--root takes a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--why" => match args.next() {
                Some(v) => opts.why = Some(v),
                None => {
                    eprintln!("--why takes a fn name or Type::name\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--update-surface" => opts.update_surface = true,
            "--update-budgets" => opts.update_budgets = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match xtask::deep::deep_lint_root(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if format == "json" {
        print!("{}", report.render_json());
        if let Some(why) = &report.why {
            // --why output stays human-facing even under --format json.
            eprint!("{why}");
        }
    } else {
        print!("{}", report.render_text());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
