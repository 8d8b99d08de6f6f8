#!/usr/bin/env python3
"""Measure the three reference timings the roadmap quotes, at its sizes.

Usage, from the root of a checkout::

    python3 bench/baselines.py --out bench/results/roadmap_baselines.json

* ``smc_abc_likelihood`` on the README tour (finite_gaussian, theta=0.8,
  n=500, eps=0.3, N=2000): seconds per evaluation;
* one ``bias_curve`` task (finite_gaussian scale, theta*=0.2, n=2000,
  eps=0.05, exact objective), through ``experiments.run_task``;
* the README tour's particle ``abc_mle`` with the default optimizer.

Each is timed ``--repeats`` times with tracing off; the fastest and the
median are reported, with the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import run


def timed(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"fastest_s": min(times), "median_s": statistics.median(times),
            "times_s": times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    from abchmm import estimate, experiments, models, rng, sampling, smc
    from abchmm.models import PerturbationSpec

    model = models.builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 500, seed=1)
    pert = PerturbationSpec(epsilon=0.3)
    task = experiments._expand_bias_curve(experiments.load_experiment_config(
        {"preset": "bias_curve", "seed": 1}))[0]
    results = {
        "smc_abc_likelihood_n500_N2000": timed(
            lambda: smc.smc_abc_likelihood(model, [0.8], data, pert, 2000,
                                           rng.derive_seed(1, "crn")),
            args.repeats),
        "bias_curve_task_eps0.05": timed(
            lambda: experiments.run_task(task), args.repeats),
        "readme_particle_abc_mle": timed(
            lambda: estimate.abc_mle(model, data, pert, n_particles=2000,
                                     seed=1), args.repeats),
    }
    doc = {"environment": run.environment(), "repeats": args.repeats,
           "results": results}
    for name, r in results.items():
        print(f"{name}: fastest {r['fastest_s']:.4f} s, "
              f"median {r['median_s']:.4f} s")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
