#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload smc_fit --seed 1 --seconds 24 --trace 0

The package is imported from the checkout's ``src`` (it need not be
installed) and BLAS/OpenMP pools are pinned to one thread.  Workloads are
listed in ``bench/workloads.py``; ``bench/plan.json`` says why each exists
and which end-to-end metric each per-layer metric should move.

``--trace 0`` repeats the workload's fixed work until ``--seconds`` would be
exceeded (at least once) with tracing off, and reports the end-to-end
metrics: ``setup_s`` (median of fresh-process set-ups: import, model build,
data simulation), ``wall_s`` (typical time of the fixed work, see
:func:`work_time`, scaled to the machine speed at which the fixed
computation in ``bench/reference.py`` takes its nominal time),
``evals_per_s`` (likelihood or score evaluations per second of
``wall_s``) and ``peak_rss_mb``.  Other tenants of a shared machine slow
it by up to a half for stretches of seconds to minutes, often longer than
a run; the reference computation, run between repetitions, slows with it.  ``--trace 1``
runs the work once untraced and once traced, checks that both give
identical outputs, and reports the per-layer metrics of the traced run;
its spans go to ``.bench_out/``.

Every result passes through the workload's correctness gate outside the
timed region.  Lines before the last describe the machine, every metric
and every gate verdict; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package source the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("smc_fit", "oracle_fit", "info_loss", "stable_fit")
SETUP_PROBES = 3
REFERENCE_SAMPLES = 10   # reference runs after each repetition
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("evals_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


@dataclass
class Rep:
    """One pass over a workload's operations: its time, each operation's
    result (None where it raised) and the durations of the workload's unit
    calls, in call order."""

    wall: float
    results: list
    units: list


def run_rep(workload, state, stopwatch=None) -> Rep:
    first = len(stopwatch.times) if stopwatch else 0
    results = []
    start = time.perf_counter()
    for op in workload.ops(state):
        try:
            results.append(op())
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            results.append(None)
    wall = time.perf_counter() - start
    return Rep(wall, results, stopwatch.times[first:] if stopwatch else [])


def work_time(reps) -> float:
    """Typical time of the fixed work: the sum over unit calls of each one's
    median over the repetitions, plus the median time outside them.  When
    repetitions made different numbers of unit calls, the median
    repetition is used."""
    if len({len(r.units) for r in reps}) != 1:
        return statistics.median(r.wall for r in reps)
    units = sum(statistics.median(times)
                for times in zip(*(r.units for r in reps)))
    return units + statistics.median(r.wall - sum(r.units) for r in reps)


def setup_probe(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def gate(workload, state, reps) -> list:
    """(rep, op, ok, detail) per operation.  Results must also repeat the
    first repetition's exactly: the package is deterministic given a seed."""
    first = [None if r is None else workload.fingerprint(r)
             for r in reps[0].results]
    verdicts = []
    for k, rep in enumerate(reps):
        for i, result in enumerate(rep.results):
            if result is None:
                verdicts.append((k, i, False, "raised"))
                continue
            ok, detail = workload.check(state, i, result)
            if workload.fingerprint(result) != first[i]:
                ok, detail = False, detail + "; output differs from rep 0"
            verdicts.append((k, i, bool(ok), detail))
    return verdicts


def measure(args, work_dir: Path) -> dict:
    import layers
    import reference
    import tracing
    import workloads

    workload = workloads.get(args.workload, work_dir)
    setups = [] if args.trace else [setup_probe(args)
                                    for _ in range(SETUP_PROBES)]
    state = workload.setup(args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        reps = [run_rep(workload, state)]
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        with tracing.patched(layers.replacements(tracer)):
            reps.append(run_rep(workload, workload.setup(args.seed)))
        record["trace_overhead_s"] = reps[1].wall - reps[0].wall
        record["per_layer"] = layers.metrics(tracer)
        write_spans(tracer, args)
    else:
        stopwatch = tracing.Stopwatch()
        with tracing.patched(layers.stopwatch_replacements(workload.units,
                                                           stopwatch)):
            start = time.perf_counter()
            refs = reference.samples(REFERENCE_SAMPLES)
            reps = [run_rep(workload, state, stopwatch)]
            refs += reference.samples(REFERENCE_SAMPLES)
            while time.perf_counter() - start + statistics.mean(
                    r.wall for r in reps) <= args.seconds:
                reps.append(run_rep(workload, state, stopwatch))
                refs += reference.samples(REFERENCE_SAMPLES)
        record["reference_s"] = refs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    evals = sum(workload.evaluations(state, x) for x in reps[0].results
                if x is not None)
    collapsed = sum(workload.collapsed(x) for r in reps for x in r.results
                    if x is not None)
    verdicts = gate(workload, state, reps)
    failed = sum(not ok for _, _, ok, _ in verdicts)
    timed = reps[:1] if args.trace else reps   # the traced rep is not timed
    raw = work_time(timed)
    wall = raw if args.trace else \
        raw * reference.NOMINAL_S / statistics.median(record["reference_s"])
    record.update({
        "rep_walls_s": [r.wall for r in reps],
        "unit_times_s": [r.units for r in reps],
        "median_wall_s": statistics.median(r.wall for r in timed),
        "verdicts": verdicts,
        "attempted": len(verdicts),
        "failed": failed,
        "end_to_end": {
            "wall_s": wall,
            "raw_wall_s": raw,
            "evals_per_s": evals / wall,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups) if setups else None,
            "collapse_frac": collapsed / (evals * len(reps)) if evals else 0.0,
            "failed_frac": failed / len(verdicts),
        },
    })
    return record


def write_spans(tracer, args) -> None:
    names = sorted({s.name for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"run_id": tracer.run_id, "names": names,
           "fields": ["id", "name", "start", "end", "parent"],
           "spans": [[s.id, index[s.name], s.start, s.end, s.parent]
                     for s in tracer.spans]}
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf8") as fh:
        json.dump(doc, fh)


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    import layers

    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['rep_walls_s'])} repetition(s), walls "
          + ", ".join(f"{w:.3f}" for w in record["rep_walls_s"]) + " s")
    e2e = record["end_to_end"]
    units = dict(END_TO_END, raw_wall_s="s", collapse_frac="ratio",
                 failed_frac="ratio")
    for name, value in e2e.items():
        if value is not None:
            print(f"end_to_end {name} = {value:.6g} {units[name]}")
    for rep, op, ok, detail in record["verdicts"]:
        print(f"gate rep {rep} op {op}: {'PASS' if ok else 'FAIL'} {detail}")
    if record["trace"]:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
        for name, m in metrics.items():
            print(f"per_layer {name} = {m['value']:.6g} {m['unit']}")
        print(f"trace overhead = {record['trace_overhead_s']:.4f} s "
              "(traced minus untraced wall)")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "abchmm" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        start = time.perf_counter()
        import workloads
        workloads.get(args.workload, None).setup(args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        record = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = report(record)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
