//! End-to-end and per-layer benchmark of the DTexL sweep service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|schedule-explore|daemon-churn> \
//!     --seed N --seconds S --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --record-reference perfbench/reference.txt
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer ones with
//! `--trace 1`). See `perfbench/README.md`.

mod check;
mod measure;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, interpolating linearly between order
/// statistics (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    // The load shape is one process, one worker and serial lanes; a
    // thread override would change what is measured.
    if std::env::var_os("DTEXL_THREADS").is_some() {
        eprintln!("error: unset DTEXL_THREADS; the benchmark measures the serial lane path");
        return ExitCode::from(2);
    }
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--record-reference") {
        let Some(path) = argv.nth(1) else {
            eprintln!("error: --record-reference needs a path");
            return ExitCode::from(2);
        };
        return match std::fs::write(&path, check::record()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let reference = check::Reference::stored();
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, &reference)
    } else {
        measure::run(args.workload, args.seed, args.seconds, &reference)
    };

    println!(
        "# {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    for note in &outcome.notes {
        println!("#   {note}");
    }
    let mut fields = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<24} {value:>16.4} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "daemon-churn",
                "--seed",
                "4",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DaemonChurn, 4, 3, true)
        );
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
    }
}
