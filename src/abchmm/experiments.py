"""Preset experiment drivers with versioned, reproducible output dirs.

An experiment is a named preset plus a seed and optional parameter
overrides.  ``run_experiment`` expands the preset into independent task
dicts, runs them (inline, or on a process pool sized by the
``ABC_HMM_THREADS`` environment variable), and writes a fresh ``run-NNN``
directory containing ``results.csv`` (one row per task), ``summary.csv``
(aggregates), ``manifest.json`` (the resolved configuration, derived
headline numbers, and sha256 content hashes -- no timestamps), and for the
curve-shaped presets a small gnuplot script.  Output bytes depend only on
the configuration, never on the worker count.

Presets
-------
``two_point``
    The pathological two-valued iid model: plain ABC collapses to 0,
    noise-calibrated ABC recovers the data-generating value.
``bias_curve``
    ABC bias of the finite-Gaussian scale parameter versus tolerance,
    replicated; the bias shrinks near-quadratically until the box edge
    saturates it.  The log-log slope fits the ``_SLOPE_POINTS`` (four)
    smallest tolerances.
``consistency``
    Noise-calibrated ABC at fixed tolerance for growing series lengths;
    median absolute error must shrink.
``info_loss``
    Information destroyed by the perturbation versus tolerance (coupled
    estimator), plus exact-model and huge-tolerance Fisher estimates.  The
    log-log slope fits the ``_SLOPE_POINTS`` (four) smallest tolerances.

The first three run one task kind, ``fit``: simulate ``n`` steps at
``theta_star`` and fit them with the exact objective.  A fit task names its
model (``builtin_model`` keyword arguments), estimator and optimizer
options, ``theta_star``, ``n``, ``epsilon`` and seed, its label columns and
the one error column it reports.

Adding a preset
---------------
1. Defaults: its parameters go in ``_PRESET_DEFAULTS``, and a rule for any
   new parameter name in ``_PARAM_RULES``; ``ExperimentConfig.from_dict``
   checks every value against it.
2. Tasks: a preset that fits data simulated at ``theta_star`` is a sweep on
   ``_fit_tasks``, one point per fit; see ``_expand_bias_curve``.
3. A summarizer from the rows, sorted by task, to ``(results, summary,
   derived, plot)``.  Register it and the expander in ``_PRESET_PIPELINE``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimate as est, fisher as fishermod, rng as rngmod, \
    sampling
from .errors import ConfigError
from .models import PerturbationSpec, builtin_model, read_config

THREADS_ENV = "ABC_HMM_THREADS"

_PRESET_DEFAULTS = {
    "two_point": {
        "theta_star": 1.0,
        "epsilon": 1.5,
        "n": 100,
        "grid_points": 301,
    },
    "bias_curve": {
        "theta_star": 0.2,
        "n": 2000,
        "n_replicates": 20,
        "epsilons": [0.05, 0.1, 0.2, 0.4, 0.8],
    },
    "consistency": {
        "theta_star": 1.0,
        "epsilon": 0.5,
        "lengths": [500, 2000, 8000],
        "n_replicates": 11,
    },
    "info_loss": {
        "theta": [1.0, 1.0],
        "epsilons": [0.05, 0.1, 0.2, 0.4],
        "huge_epsilon": 100.0,
        "window": 32,
        "n_replicates": 4000,
        "fisher_n": 200,
        "fisher_replicates": 2000,
    },
}


PRESETS = tuple(sorted(_PRESET_DEFAULTS))


def _count(least: int):
    return (int,), f"an integer >= {least}", lambda v: v >= least


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:       # an int too large for a float
        return False


_REAL = (int, float), "a finite number", _finite
_TOLERANCE = (int, float), "a finite number >= 0", \
    lambda v: _finite(v) and v >= 0
_POSITIVE = (int, float), "a finite number > 0", \
    lambda v: _finite(v) and v > 0


def _meets(value, rule) -> bool:
    types, _, test = rule
    return isinstance(value, types) and not isinstance(value, bool) \
        and test(value)


def _list_of(rule, least: int = 1):
    """A rule for a list of ``least`` or more entries that each meet
    ``rule``."""
    what = "a non-empty list" if least == 1 else \
        f"a list of {least} or more entries"
    return (list,), f"{what}, each entry {rule[1]}", \
        lambda v: len(v) >= least and all(_meets(e, rule) for e in v)


# What each parameter must hold: a rule is (types, description, test).  A
# count's least value is the least the code accepts without failing or
# writing a NaN.  Only the two curve presets take ``epsilons``, and a
# log-log slope needs two or more positive tolerances.
_PARAM_RULES = {
    "theta_star": _REAL,
    "theta": _list_of(_REAL),
    "epsilon": _TOLERANCE,
    "huge_epsilon": _TOLERANCE,
    "epsilons": _list_of(_POSITIVE, 2),
    "n": _count(1),
    "lengths": _list_of(_count(1)),
    "grid_points": _count(1),
    "window": _count(0),
    "n_replicates": _count(1),
    "fisher_n": _count(1),
    "fisher_replicates": _count(2),
}
# a standard error (bias_curve) or a loss point (info_loss) needs two
_PRESET_RULES = {"bias_curve": {"n_replicates": _count(2)},
                 "info_loss": {"n_replicates": _count(2)}}

# The curve presets fit their log-log slope on this many of the smallest
# tolerances.  The slope is the small-epsilon rate, and at the fifth default
# bias_curve tolerance (0.8) the box edge saturates the bias.  A run with
# more tolerances writes a row for every one.
_SLOPE_POINTS = 4


def _check_param(key: str, value, rule) -> None:
    """A ``ConfigError`` naming ``key`` unless ``value`` meets ``rule``."""
    if not _meets(value, rule):
        raise ConfigError(f"config key '{key}' must be {rule[1]}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    seed: int
    params: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a mapping")
        if "preset" not in raw:
            raise ConfigError("experiment config is missing required key 'preset'")
        preset = raw["preset"]
        if preset not in _PRESET_DEFAULTS:
            raise ConfigError(f"unknown value for config key 'preset': {preset!r} "
                              f"(known: {sorted(_PRESET_DEFAULTS)})")
        if "seed" not in raw:
            raise ConfigError("experiment config is missing required key 'seed'")
        seed = raw["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("config key 'seed' must be a non-negative integer")
        params = dict(_PRESET_DEFAULTS[preset])
        for key, value in raw.items():
            if key in ("preset", "seed"):
                continue
            if key not in params:
                raise ConfigError(f"unknown config key '{key}' for preset "
                                  f"'{preset}' (known: {sorted(params)})")
            params[key] = value
        rules = {**_PARAM_RULES, **_PRESET_RULES.get(preset, {})}
        for key, value in params.items():
            _check_param(key, value, rules[key])
        return ExperimentConfig(preset=preset, seed=seed, params=params)


def load_experiment_config(source) -> ExperimentConfig:
    """Accept an ``ExperimentConfig``, a dict, a JSON file path, or JSON
    text."""
    if isinstance(source, ExperimentConfig):
        return source
    return ExperimentConfig.from_dict(read_config(source, "experiment config"))


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else ABC_HMM_THREADS, else
    ``min(4, cpu_count)``."""
    if explicit is not None:
        if explicit < 1:
            raise ConfigError("worker count must be at least 1")
        return int(explicit)
    raw = os.environ.get(THREADS_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"environment variable {THREADS_ENV} must be an integer, "
                f"got {raw!r}") from None
        if value < 1:
            raise ConfigError(
                f"environment variable {THREADS_ENV} must be at least 1")
        return value
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# task execution


_ESTIMATORS = {"abc_mle": est.abc_mle, "noisy_abc_mle": est.noisy_abc_mle}


def _task_fit(task: dict) -> dict:
    """Simulate ``n`` steps at ``theta_star`` and fit them with the exact
    objective; the row holds the task's label columns, ``theta_hat`` and its
    one error column."""
    model = builtin_model(**task["model"])
    data = sampling.simulate(model, [task["theta_star"]], task["n"],
                             seed=rngmod.derive_seed(task["seed"], "data"),
                             with_hidden=False)
    result = _ESTIMATORS[task["estimator"]](
        model, data, PerturbationSpec(epsilon=task["epsilon"]),
        objective="oracle", seed=rngmod.derive_seed(task["seed"], "fit"),
        **task["options"])
    theta_hat = float(result.theta_hat.values[0])
    errors = {"bias": theta_hat - task["theta_star"],
              "abs_error": abs(theta_hat - task["theta_star"]),
              "log_value": result.value}
    return {"task": task["index"], **{c: task[c] for c in task["columns"]},
            "theta_hat": theta_hat, task["error"]: errors[task["error"]]}


def _task_loss_point(task: dict) -> dict:
    point = fishermod.loss_point(
        builtin_model(**task["model"]), task["theta"], task["epsilon"],
        window=task["window"], n_replicates=task["n_replicates"],
        seed=task["seed"])
    return {"task": task["index"], "epsilon": task["epsilon"],
            "loss_frobenius": point.frobenius,
            "loss_se_frobenius": point.frobenius_se}


def _task_fisher(task: dict) -> dict:
    pert = None if task["epsilon"] is None else \
        PerturbationSpec(epsilon=task["epsilon"])
    fe = fishermod.estimate_fisher(builtin_model(**task["model"]),
                                   task["theta"], n=task["n"],
                                   n_replicates=task["n_replicates"],
                                   seed=task["seed"], pert=pert)
    return {"task": task["index"], "epsilon": task["epsilon"],
            "fisher_frobenius": fe.frobenius}


_TASK_RUNNERS = {"fit": _task_fit, "loss_point": _task_loss_point,
                 "fisher": _task_fisher}


def run_task(task: dict) -> dict:
    return _TASK_RUNNERS[task["kind"]](task)


def _run_tasks(tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        rows = [run_task(t) for t in tasks]
    else:
        # imported here, so that importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            rows = list(pool.map(run_task, tasks))
    return sorted(rows, key=lambda row: row["task"])


# ---------------------------------------------------------------------------
# preset expansion and aggregation


def _fit_tasks(config: ExperimentConfig, columns: tuple, points: list,
               **fit) -> list:
    """One ``fit`` task per sweep point, seeded by its position.

    ``fit`` holds what every fit shares: ``model`` (``builtin_model``
    keyword arguments), ``error`` (``bias``, ``abs_error`` or
    ``log_value``) and any of ``n``, ``epsilon``, ``estimator`` (default
    ``abc_mle``) and ``options`` (its optimizer options).  A point's keys
    override them; ``columns`` names the keys that label each row.
    """
    return [{"kind": "fit", "index": i, "estimator": "abc_mle", "options": {},
             "theta_star": float(config.params["theta_star"]), **fit, **point,
             "columns": columns,
             "seed": rngmod.derive_seed(config.seed, "task", i)}
            for i, point in enumerate(points)]


def _expand_two_point(config: ExperimentConfig) -> list:
    p = config.params
    return _fit_tasks(
        config, ("method",),
        [{"method": m, "estimator": m + "_mle"} for m in ("abc", "noisy_abc")],
        model={"name": "iid_pm_theta"}, error="log_value", n=p["n"],
        epsilon=float(p["epsilon"]),
        options={"method": "grid", "grid_points": p["grid_points"]})


def _expand_bias_curve(config: ExperimentConfig) -> list:
    p = config.params
    return _fit_tasks(
        config, ("epsilon", "replicate"),
        [{"epsilon": float(eps), "replicate": rep} for eps in p["epsilons"]
         for rep in range(p["n_replicates"])],
        model={"name": "finite_gaussian", "hyper": {"param": "scale"}},
        error="bias", n=p["n"])


def _expand_consistency(config: ExperimentConfig) -> list:
    p = config.params
    # positive half-box: state relabeling makes +-theta equally likely under
    # the full box, so the sign must be pinned for the error to be meaningful
    model = {"name": "finite_gaussian", "hyper": {"param": "mean"},
             "theta_box": [[0.0, 3.0]]}
    return _fit_tasks(
        config, ("n", "replicate"),
        [{"n": n, "replicate": rep} for n in p["lengths"]
         for rep in range(p["n_replicates"])],
        model=model, estimator="noisy_abc_mle", error="abs_error",
        epsilon=float(p["epsilon"]))


def _expand_info_loss(config: ExperimentConfig) -> list:
    p = config.params
    model = {"name": "finite_gaussian", "hyper": {"param": "mean_scale"}}
    theta = [float(v) for v in p["theta"]]
    epsilons = sorted(float(e) for e in p["epsilons"])
    tasks = [{"kind": "loss_point", "index": i, "model": model,
              "epsilon": eps, "theta": theta, "window": p["window"],
              "n_replicates": p["n_replicates"],
              "seed": rngmod.derive_seed(config.seed, "loss", i)}
             for i, eps in enumerate(epsilons)]
    for j, eps in enumerate((None, float(p["huge_epsilon"]))):
        tasks.append({"kind": "fisher", "index": len(epsilons) + j,
                      "model": model, "epsilon": eps, "theta": theta,
                      "n": p["fisher_n"],
                      "n_replicates": p["fisher_replicates"],
                      "seed": rngmod.derive_seed(config.seed, "fisher", j)})
    return tasks


def _summarize_two_point(config, rows):
    derived = {r["method"] + "_theta_hat": r["theta_hat"] for r in rows}
    return rows, [], derived, None


def _summarize_bias_curve(config, rows):
    summary = []
    for eps in sorted({r["epsilon"] for r in rows}):
        biases = np.asarray([r["bias"] for r in rows if r["epsilon"] == eps])
        summary.append({
            "epsilon": eps,
            "mean_bias": float(biases.mean()),
            "abs_mean_bias": float(abs(biases.mean())),
            "se": float(biases.std(ddof=1) / math.sqrt(biases.size)),
            "n_replicates": int(biases.size),
        })
    fit = [s for s in summary[:_SLOPE_POINTS] if s["abs_mean_bias"] > 0]
    derived = {"slope": fishermod.loglog_slope([s["epsilon"] for s in fit],
                                               [s["abs_mean_bias"] for s in fit])}
    plot = _plot_script(title="ABC scale bias vs tolerance",
                        xlabel="tolerance", ylabel="|mean bias|",
                        using="1:3", source="summary.csv")
    return rows, summary, derived, plot


def _summarize_consistency(config, rows):
    summary = []
    for n in sorted({r["n"] for r in rows}):
        errs = np.asarray([r["abs_error"] for r in rows if r["n"] == n])
        summary.append({"n": int(n),
                        "median_abs_error": float(np.median(errs)),
                        "n_replicates": int(errs.size)})
    medians = [s["median_abs_error"] for s in summary]
    derived = {"medians": medians,
               "decreasing": bool(all(a > b for a, b in
                                      zip(medians, medians[1:])))}
    plot = _plot_script(title="Noise-calibrated ABC error vs series length",
                        xlabel="series length", ylabel="median |error|",
                        using="1:2", source="summary.csv")
    return rows, summary, derived, plot


def _summarize_info_loss(config, rows):
    curve = [r for r in rows if "loss_frobenius" in r]
    fishers = [r for r in rows if "fisher_frobenius" in r]
    exact = next(r for r in fishers if r["epsilon"] is None)
    huge = next(r for r in fishers if r["epsilon"] is not None)
    fit = curve[:_SLOPE_POINTS]
    derived = {
        "slope": fishermod.loglog_slope([r["epsilon"] for r in fit],
                                        [r["loss_frobenius"] for r in fit]),
        "fisher_frobenius": exact["fisher_frobenius"],
        "huge_epsilon_fisher_frobenius": huge["fisher_frobenius"],
        "huge_epsilon_ratio": huge["fisher_frobenius"] / exact["fisher_frobenius"],
    }
    plot = _plot_script(title="Information destroyed by the perturbation",
                        xlabel="tolerance", ylabel="Frobenius norm of loss",
                        using="2:3", source="results.csv")
    return curve, [], derived, plot


_PRESET_PIPELINE = {
    "two_point": (_expand_two_point, _summarize_two_point),
    "bias_curve": (_expand_bias_curve, _summarize_bias_curve),
    "consistency": (_expand_consistency, _summarize_consistency),
    "info_loss": (_expand_info_loss, _summarize_info_loss),
}


# ---------------------------------------------------------------------------
# output writing


def _csv_bytes(rows: list) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    if rows:
        fields = list(rows[0].keys())
        writer.writerow(fields)
        for row in rows:
            writer.writerow([sampling.format_value(row[f]) for f in fields])
    return buf.getvalue().encode()


def _plot_script(*, title, xlabel, ylabel, using, source) -> str:
    return "\n".join([
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set logscale xy",
        f"plot '{source}' using {using} skip 1 "
        "with linespoints pointtype 7 notitle",
    ]) + "\n"


def _next_run_dir(out_root: Path) -> Path:
    out_root.mkdir(parents=True, exist_ok=True)
    pattern = re.compile(r"run-(\d{3,})$")
    taken = [int(m.group(1)) for p in out_root.iterdir()
             if (m := pattern.match(p.name))]
    return out_root / f"run-{(max(taken) + 1 if taken else 1):03d}"


def run_experiment(config, out_root, workers: int | None = None) -> Path:
    """Run a preset and write a fresh ``run-NNN`` directory under
    ``out_root``; returns the directory path."""
    config = load_experiment_config(config)
    workers = resolve_workers(workers)
    expand, summarize = _PRESET_PIPELINE[config.preset]
    rows = _run_tasks(expand(config), workers)
    rows, summary, derived, plot = summarize(config, rows)

    files = {"results.csv": _csv_bytes(rows)}
    if summary:
        files["summary.csv"] = _csv_bytes(summary)
    manifest = {"preset": config.preset, "seed": config.seed,
                "params": config.params, "derived": derived}
    for name, data in files.items():
        manifest[f"{name.split('.')[0]}_sha256"] = \
            hashlib.sha256(data).hexdigest()
    if plot is not None:
        files["plot.gp"] = plot.encode()
    # strict JSON: a NaN or infinite number fails here, before any file
    files["manifest.json"] = (json.dumps(manifest, sort_keys=True, indent=2,
                                         allow_nan=False) + "\n").encode()
    run_dir = _next_run_dir(Path(out_root))
    run_dir.mkdir()
    for name, data in files.items():
        (run_dir / name).write_bytes(data)
    return run_dir
