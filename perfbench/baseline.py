"""Repeat benchmark runs across seeds and record medians, quartiles and
the host, for a before/after row.

Usage, from the repository root::

    python3 perfbench/baseline.py --runs 10 [--traced] [--out FILE]

Runs ``run.py`` once per seed 1..RUNS for every workload, seed-major so
that a drift in host speed touches every workload alike.  It prints each
workload's error rate and, for each end-to-end metric, the median and the
spread (Q3 - Q1) / median, using ``statistics.quantiles(values, n=4)``,
marking a spread above a third of the metric's bound.  ``--traced`` adds one ``--trace 1`` run per
workload for the per-layer figures.  ``--out`` writes everything with the
host record: nproc, CPU model, Python version, git sha, load average
before and after, and the calibration loop time (never used to rescale).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
from run import SPEC


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def host_record() -> dict:
    """``run.host_record`` plus the CPU model and the git sha."""
    host = run.host_record()
    host["cpu"] = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            host["cpu"] = next((line.split(":", 1)[1].strip() for line in handle
                                if line.startswith("model name")), host["cpu"])
    except OSError:
        pass
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    host["git_sha"] = sha or None
    return host


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    host = host_record()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            runs[name].append(one_run(name, seed, 0))
    layers = {name: one_run(name, 1, 1)["metrics"] for name in names} if args.traced else {}
    host["loadavg_after"] = os.getloadavg()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {}
    for name in names:
        attempted, failed = sum(r["attempted"] for r in runs[name]), sum(r["failed"] for r in runs[name])
        summary[name] = {"runs": len(runs[name]), "attempted": attempted, "failed": failed}
        print(f"{name:14} {'error_rate':13} {failed / attempted:19.6g} ratio ({failed} of {attempted} ops)")
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs[name]])
            s["unit"] = runs[name][0]["metrics"][metric]["unit"]
            summary[name][metric] = s
            flag = "  > bound/3" if s["spread"] > bound / 3 and metric != "setup_s" else ""
            print(f"{name:14} {metric:13} median {s['median']:12.6g} {s['unit']:5} "
                  f"spread {s['spread']:7.2%} (bound {bound:.0%}){flag}")
        if name in layers:
            summary[name]["per_layer"] = {k: v["value"] for k, v in layers[name].items()}
    if args.out:
        Path(args.out).write_text(json.dumps({"host": host, "run_seconds": SPEC["run_seconds"],
                                              "workloads": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
