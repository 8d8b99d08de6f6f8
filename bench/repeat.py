#!/usr/bin/env python3
"""Run workloads once per seed and summarise each end-to-end metric.

Usage, from the root of a checkout::

    python3 bench/repeat.py --workloads smc_fit info_loss --seeds 1 2 3 4 5

Each run is ``bench/run.py`` in its own process, one after another.  For
every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to a third
of the bound ``BENCHMARK.json`` sets.  ``--out`` also writes the summary,
the individual runs and the machine as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("environment: "))
    return {"seed": seed, "environment": env[len("environment: "):],
            "result": json.loads(lines[-1])}


def summarise(values: list, bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary, runs = {}, {}
    for workload in args.workloads:
        runs[workload] = [run_once(workload, seed, seconds, args.trace)
                          for seed in args.seeds]
        results = [r["result"] for r in runs[workload]]
        incorrect = [r["seed"] for r in runs[workload]
                     if not r["result"]["correct"]]
        print(f"{workload}: {len(results)} runs, incorrect seeds {incorrect}")
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            s = summarise(values, bounds.get(name))
            summary[workload][name] = s
            limit = "" if s["bound"] is None else \
                f"  (bound/3 {s['bound'] / 3:.4f})"
            print(f"  {name:<40} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
