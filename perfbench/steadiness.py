#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload N times, each with another seed, and prints for each
end-to-end metric the median, the quartiles and the spread (interquartile
distance as a share of the median) against the metric's bound. Metrics
whose spread exceeds the bound are named; `setup_s` is reported but, as
its bound governs medians only, never counted out of bound.

With --compare FILE (raw results saved earlier with --out) it also checks
that each median is not worse than the earlier one by more than the bound.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads paper-sweep \\
        --bin .bench_build/release/dtexl-perfbench --out first.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--bin", help="prebuilt benchmark binary to run instead of the command")
    ap.add_argument("--out", help="write the raw values here (JSON)")
    ap.add_argument("--compare", help="raw values of an earlier set to compare medians with")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = [opts.bin] if opts.bin else bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    earlier = {}
    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)

    raw, failures = {}, []
    for workload in names:
        runs = [run_once(cmd, workload, opts.first_seed + i, seconds) for i in range(opts.runs)]
        raw[workload] = runs
        print(f"\n{workload}: {opts.runs} runs, seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > metric["bound"] and name != "setup_s":
                flag = "OUT OF BOUND"
                failures.append(f"{workload}/{name} spread {spread:.3f} > {metric['bound']}")
            elif spread > metric["bound"] / 3:
                flag = "above a third of the bound"
            if workload in earlier:
                old = statistics.median(r[name] for r in earlier[workload])
                worse = worse_by(metric, statistics.median(values), old)
                flag += f" median vs earlier {-worse:+.3f}"
                if worse > metric["bound"]:
                    failures.append(f"{workload}/{name} median worse by {worse:.3f}")
            print(f"  {name:<22} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {metric['bound']:>6} {flag}")

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(raw, f, indent=1)
    if failures:
        print("\nout of bound:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("\nall spreads within their bounds")


if __name__ == "__main__":
    main()
