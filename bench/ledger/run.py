#!/usr/bin/env python3
"""Builds and runs the performance ledger (bench_ledger).

One workload in one process. The last line of stdout is one JSON object
{correct, attempted, failed, metrics} holding the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1):

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own process, N times over, merged into one JSON
(and, from two sets on, each end-to-end metric's set-to-set difference
printed against its bound):

    python3 bench/ledger/run.py --sets N [--seed S] [--seconds S]

Ledger mode exits nonzero when a check failed or a metric or unit that
BENCHMARK.json lists is missing. The program is built from this checkout's
sources into $CARGO_TARGET_DIR/ledger (default .bench_build/ledger); build
output goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "ledger"


def build():
    """Configures (once) and builds bench_ledger; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "bench_ledger"],
                   stdout=sys.stderr, check=True)
    return out / "bench_ledger"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, traced):
    """Runs one workload in its own process; returns its JSON report."""
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(traced)}"
    out = runs / f"{stem}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if traced:
        cmd += ["--traced", "--trace-file", str(runs / f"{stem}.trace.json")]
    if out.exists():
        out.unlink()
    sys.stdout.flush()
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def select(report, wanted):
    """The wanted metrics of a report, plus the names missing or mis-united."""
    metrics, missing = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics, missing


def workload_mode(args):
    spec = load_spec()
    binary = build()
    report = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace == 1)
    wanted = spec["per_layer" if args.trace == 1 else "end_to_end"]
    metrics, missing = select(report, wanted)
    if missing:
        print("missing metrics: " + ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


def ledger_mode(args):
    spec = load_spec()
    binary = build()
    names = [w["name"] for w in spec["workloads"]]
    sets, problems = [], []
    for s in range(args.sets):
        results = {}
        for w in names:
            runs = [run_workload(binary, w, args.seed, args.seconds, False)]
            missing = select(runs[0], spec["end_to_end"])[1]
            if s == 0:
                runs.append(run_workload(binary, w, args.seed, args.seconds,
                                         True))
                missing += select(runs[1], spec["per_layer"])[1]
                results[w + " (traced)"] = runs[1]
            for r in runs:
                if r["failed"]:
                    problems.append(f"{w}: {r['failed']} failed checks: "
                                    + "; ".join(r["failures"]))
            if missing:
                problems.append(f"{w}: missing " + ", ".join(missing))
            results[w] = runs[0]
        sets.append(results)

    merged = build_dir() / "ledger.json"
    with open(merged, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "sets": sets},
                  f, indent=1)
    print(f"wrote {merged}")

    print(f"\n{'workload':16} {'metric':18} {'unit':5}"
          + "".join(f" {'set ' + str(i + 1):>12}" for i in range(args.sets))
          + (f" {'diff':>8} {'bound':>6}" if args.sets > 1 else ""))
    for w in names:
        for m in spec["end_to_end"]:
            vals = [st[w]["metrics"].get(m["name"], {}).get("value")
                    for st in sets]
            row = f"{w:16} {m['name']:18} {m['unit']:5}" + "".join(
                f" {v:12.6g}" if v is not None else f" {'-':>12}"
                for v in vals)
            if args.sets > 1 and None not in vals and vals[0]:
                diff = (max(vals) - min(vals)) / statistics.median(vals)
                verdict = "ok" if diff <= m["bound"] else "OVER"
                row += f" {100 * diff:7.2f}% {100 * m['bound']:5.0f}% {verdict}"
            print(row)
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=0)
    args = ap.parse_args()
    if (args.workload is None) == (args.sets < 1):
        ap.error("give either --workload or --sets N")
    try:
        return workload_mode(args) if args.workload else ledger_mode(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
