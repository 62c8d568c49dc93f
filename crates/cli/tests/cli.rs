//! End-to-end tests of the `dtexl` binary (cargo builds it for us and
//! exposes its path via `CARGO_BIN_EXE_dtexl`).

use std::process::Command;

fn dtexl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dtexl"))
        .args(args)
        .output()
        .expect("spawn dtexl")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = dtexl(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn list_names_all_games_and_schedules() {
    let out = dtexl(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for alias in [
        "CCS", "SoD", "TRu", "SWa", "CRa", "RoK", "DDS", "Snp", "Mze", "GTr",
    ] {
        assert!(stdout.contains(alias), "missing {alias}");
    }
    assert!(stdout.contains("hlb-flp2"));
}

#[test]
fn sim_reports_metrics() {
    let out = dtexl(&["sim", "--game", "GTr", "--res", "256x128"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycles"));
    assert!(stdout.contains("L2 accesses"));
    assert!(stdout.contains("CG-square/Hilbert/flp2"));
}

#[test]
fn sim_rejects_unknown_game_and_flags() {
    let out = dtexl(&["sim", "--game", "XXX", "--res", "128x64"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown game"));

    let out = dtexl(&["sim", "--game", "GTr", "--res", "128x64", "--bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}

#[test]
fn trace_save_and_sim_roundtrip() {
    let dir = std::env::temp_dir().join("dtexl_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ccs.dtxl");
    let trace_s = trace.to_str().unwrap();

    let out = dtexl(&[
        "trace-save",
        "--game",
        "CCS",
        "--out",
        trace_s,
        "--res",
        "256x128",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = dtexl(&[
        "trace-sim",
        "--in",
        trace_s,
        "--schedule",
        "baseline",
        "--coupled",
        "--res",
        "256x128",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("FG-xshift2/Z-order/const"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn render_writes_a_ppm() {
    let dir = std::env::temp_dir().join("dtexl_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ppm = dir.join("out.ppm");
    let out = dtexl(&[
        "render",
        "--game",
        "Mze",
        "--out",
        ppm.to_str().unwrap(),
        "--res",
        "128x64",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&ppm).unwrap();
    assert!(bytes.starts_with(b"P6\n128 64\n255\n"));
    std::fs::remove_file(&ppm).ok();
}

#[test]
fn errors_are_single_line_json_when_requested() {
    let out = dtexl(&["sim", "--game", "XXX", "--format", "json"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().next().unwrap();
    assert!(line.starts_with("{\"error\":\""), "stderr: {stderr}");
    assert!(line.ends_with("\"}"), "stderr: {stderr}");
    assert!(line.contains("unknown game"));
}

#[test]
fn sweep_journals_results_and_resume_skips_them() {
    let dir = std::env::temp_dir().join(format!("dtexl_cli_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journal_s = journal.to_str().unwrap();

    let base = [
        "sweep",
        "--games",
        "CCS",
        "--res",
        "128x64",
        "--journal",
        journal_s,
    ];
    let out = dtexl(&base);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2/2 jobs completed"), "stdout: {stdout}");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 2, "journal: {text}");
    assert!(text.contains("\"status\":\"ok\""));
    assert!(text.contains("\"coupled_cycles\":"));

    // Resume: both jobs are already journaled, nothing re-runs.
    let out = dtexl(&[&base[..], &["--resume"]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("Skipped").count(), 2, "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_with_failures_exits_2_and_reports_them() {
    // A zero-second watchdog times every job out; with --keep-going the
    // sweep still finishes and signals "completed with failures".
    let out = dtexl(&[
        "sweep",
        "--games",
        "CCS",
        "--schedules",
        "baseline",
        "--res",
        "128x64",
        "--keep-going",
        "--job-timeout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 failed"), "stderr: {stderr}");
    assert!(stderr.contains("timeout"), "stderr: {stderr}");
}

#[test]
fn sweep_emits_json_records_on_request() {
    let out = dtexl(&[
        "sweep",
        "--games",
        "GTr",
        "--schedules",
        "dtexl",
        "--res",
        "128x64",
        "--format",
        "json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next().unwrap();
    assert!(line.starts_with("{\"key\":\"GTr|"), "stdout: {stdout}");
    assert!(line.contains("\"status\":\"ok\""));
    assert!(line.contains("\"decoupled_cycles\":"));
}

#[test]
fn sweep_resume_requires_a_journal() {
    let out = dtexl(&["sweep", "--games", "CCS", "--res", "128x64", "--resume"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--journal"));
}

#[test]
fn sharded_sweeps_merge_back_to_the_unsharded_journal() {
    let dir = std::env::temp_dir().join(format!("dtexl_cli_shard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let sweep = |extra: &[&str]| {
        let mut args = vec!["sweep", "--games", "CCS,GTr,Mze", "--res", "128x64"];
        args.extend_from_slice(extra);
        let out = dtexl(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    sweep(&["--journal", &path("all.jsonl")]);
    sweep(&["--journal", &path("s0.jsonl"), "--shard", "0/2", "--table"]);
    sweep(&["--journal", &path("s1.jsonl"), "--shard", "1/2"]);

    let out = dtexl(&[
        "sweep",
        "merge",
        &path("s0.jsonl"),
        &path("s1.jsonl"),
        "--out",
        &path("merged.jsonl"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("merged 2 journal(s): 6 record(s)"),
        "stdout: {stdout}"
    );

    // `sweep canon` strips the volatile fields (timings, peaks, shard
    // stamps): the merged journal must canonicalise identically to the
    // unsharded one.
    let canon = |journal: &str| {
        let out = dtexl(&["sweep", "canon", journal]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let merged = canon(&path("merged.jsonl"));
    assert_eq!(merged, canon(&path("all.jsonl")));
    assert_eq!(merged.lines().count(), 6);
    assert!(merged.lines().all(|l| l.split('|').count() >= 5));

    // The merged journal drives --resume exactly like a native one.
    let out = dtexl(&[
        "sweep",
        "--games",
        "CCS,GTr,Mze",
        "--res",
        "128x64",
        "--journal",
        &path("merged.jsonl"),
        "--resume",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("Skipped").count(), 6, "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep dispatch` runs the daemon on a pre-armed spool: exit 0, the
/// `fleet` JSON object, the terminal daemon status in the workdir, and
/// an `--out` journal that canonicalizes like a plain sweep's.
#[test]
fn dispatch_runs_the_daemon_and_merges_like_a_plain_sweep() {
    let dir = std::env::temp_dir().join(format!("dtexl_cli_dispatch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let axes = [
        "--games",
        "GTr",
        "--schedules",
        "baseline,dtexl",
        "--res",
        "64x32",
    ];

    let mut args = vec!["--format", "json", "sweep", "dispatch", "--shards", "2"];
    args.extend_from_slice(&axes);
    let (workdir, merged) = (path("fleet"), path("merged.jsonl"));
    args.extend_from_slice(&["--workdir", &workdir, "--out", &merged, "--poll-ms", "10"]);
    let out = dtexl(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with("{\"fleet\":{"), "stdout: {stdout}");
    for key in [
        "ok",
        "failed",
        "missing",
        "poisoned",
        "shards",
        "restarts",
        "merged",
        "exit_code",
    ] {
        assert!(line.contains(&format!("\"{key}\":")), "{key} in {line}");
    }
    assert!(line.contains("\"ok\":2,\"failed\":0,\"missing\":0,\"poisoned\":[]"));
    assert!(line.contains("\"shards\":2,") && line.ends_with("\"exit_code\":0}}"));
    let status = std::fs::read_to_string(dir.join("fleet").join("status.json")).unwrap();
    assert!(status.contains("\"alive\":false"), "{status}");

    let mut args = vec!["sweep", "--journal"];
    let plain = path("plain.jsonl");
    args.push(&plain);
    args.extend_from_slice(&axes);
    assert!(dtexl(&args).status.success());
    let canon = |journal: &str| dtexl(&["sweep", "canon", journal]).stdout;
    let merged_canon = canon(&merged);
    assert_eq!(String::from_utf8_lossy(&merged_canon).lines().count(), 2);
    assert_eq!(merged_canon, canon(&plain));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_bad_shard_specs_and_merge_without_out() {
    for bad in ["2/2", "0/0", "nonsense", "1"] {
        let out = dtexl(&["sweep", "--games", "CCS", "--res", "128x64", "--shard", bad]);
        assert_eq!(out.status.code(), Some(1), "--shard {bad} must be rejected");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--shard"));
    }
    let out = dtexl(&["sweep", "merge", "some.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn job_mem_budget_fails_hungry_jobs_with_a_typed_error() {
    // 1 MB budget: a 480×192 frame's working set (about 3.7 MiB)
    // exceeds it, so the job fails with the mem_budget error kind and
    // exit code 2 (completed with failures), not a crash. (A 128×64
    // frame peaks at 0.9 MiB with the compact frame prefix.)
    let out = dtexl(&[
        "sweep",
        "--games",
        "CCS",
        "--schedules",
        "baseline",
        "--res",
        "480x192",
        "--keep-going",
        "--job-mem-budget",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("memory budget"), "stderr: {stderr}");
}

#[test]
fn sweep_table_reports_peaks_per_job() {
    let out = dtexl(&[
        "sweep",
        "--games",
        "GTr",
        "--schedules",
        "dtexl",
        "--res",
        "128x64",
        "--table",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("peak_alloc"), "stdout: {stdout}");
    assert!(stdout.contains("MiB"), "stdout: {stdout}");
}

#[test]
fn named_schedules_are_accepted() {
    let out = dtexl(&[
        "sim",
        "--game",
        "TRu",
        "--schedule",
        "Sorder-flp",
        "--res",
        "128x64",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("CG-yrect/S-order/flp1"));
}

/// The body of `fn name(` in `src` (from its opening brace to the
/// matching close), skipping braces inside string and char literals
/// and line comments.
fn fn_body<'s>(src: &'s str, name: &str) -> &'s str {
    let start = src
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("no fn {name} in main.rs"));
    let open = start + src[start..].find('{').expect("fn body");
    let bytes = src.as_bytes();
    let (mut depth, mut i) = (0usize, open);
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            // A char literal ('x' or '\n'); a lifetime has no closing quote.
            b'\'' if bytes.get(i + 2) == Some(&b'\'') => i += 2,
            b'\'' if bytes.get(i + 1) == Some(&b'\\') => i += 3,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &src[open..=i];
                }
            }
            _ => {}
        }
        i += 1;
    }
    panic!("unbalanced fn {name}")
}

/// Every `"--flag"` literal in the parsing bodies `fns` of main.rs and
/// in the `parse_*` helpers (and `FleetFlags::parse`) they call.
fn parsed_flags(src: &str, fns: &[&str]) -> std::collections::BTreeSet<String> {
    let mut todo: Vec<String> = fns.iter().map(|f| f.to_string()).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut flags = std::collections::BTreeSet::new();
    while let Some(name) = todo.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let body = fn_body(src, &name);
        for (i, _) in body.match_indices("\"--") {
            let lit = &body[i + 1..];
            let end = lit
                .find(|c: char| !(c == '-' || c.is_ascii_alphanumeric()))
                .unwrap_or(lit.len());
            flags.insert(lit[..end].to_string());
        }
        for (i, _) in body.match_indices("parse") {
            let call = &body[i..];
            let end = call
                .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
                .unwrap_or(call.len());
            let qualified = body[..i].ends_with("FleetFlags::");
            if call[end..].starts_with('(') && (qualified || call.starts_with("parse_")) {
                todo.push(call[..end].to_string());
            }
        }
    }
    flags
}

#[test]
fn help_names_every_flag_each_command_parses() {
    let src = include_str!("../src/main.rs");
    for (command, fns) in [
        ("list", &["cmd_list"][..]),
        ("sim", &["cmd_sim"]),
        ("sweep", &["cmd_sweep"]),
        ("sweep dispatch", &["cmd_sweep_dispatch"]),
        ("sweep submit", &["cmd_sweep_submit"]),
        ("sweep daemon", &["cmd_sweep_daemon"]),
        ("sweep status", &["cmd_sweep_status"]),
        ("sweep merge", &["cmd_sweep_merge"]),
        ("sweep canon", &["cmd_sweep_canon"]),
        ("profile", &["cmd_profile", "cmd_profile_diff"]),
        ("render", &["cmd_render"]),
        ("characterize", &["cmd_characterize"]),
        ("trace-save", &["cmd_trace_save"]),
        ("trace-sim", &["cmd_trace_sim"]),
    ] {
        let mut args: Vec<&str> = command.split(' ').collect();
        for help in ["--help", "-h"] {
            args.push(help);
            let out = dtexl(&args);
            assert!(out.status.success(), "{command} {help} failed");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.starts_with("usage: dtexl"), "{command}: {text}");
            for flag in parsed_flags(src, fns) {
                assert!(
                    text.contains(&flag),
                    "`dtexl {command} --help` omits {flag}"
                );
            }
            args.pop();
        }
    }
    // The scan sees what a command parses: sweep's shared job flags
    // come through `parse_job_specs`, the fleet's through
    // `FleetFlags::parse`.
    assert!(parsed_flags(src, &["cmd_sweep"]).contains("--games"));
    assert!(parsed_flags(src, &["cmd_sweep_daemon"]).contains("--poison-threshold"));
}

#[test]
fn top_level_help_lists_every_command() {
    for help in ["--help", "-h"] {
        let out = dtexl(&[help]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        for command in [
            "list",
            "sim",
            "sweep",
            "dispatch",
            "submit",
            "daemon",
            "status",
            "merge",
            "canon",
            "profile",
            "render",
            "characterize",
            "trace-save",
            "trace-sim",
            "--format",
        ] {
            assert!(text.contains(command), "`dtexl {help}` omits {command}");
        }
    }
    let out = dtexl(&["nope", "--help"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'nope'"));
}
