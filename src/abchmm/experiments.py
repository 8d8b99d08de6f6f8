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
    saturates it.
``consistency``
    Noise-calibrated ABC at fixed tolerance for growing series lengths;
    median absolute error must shrink.
``info_loss``
    Information destroyed by the perturbation versus tolerance (coupled
    estimator), plus exact-model and huge-tolerance Fisher estimates.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimate as est, fisher as fishermod, rng as rngmod, \
    sampling
from .errors import ConfigError
from .models import PerturbationSpec, builtin_model

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
        return ExperimentConfig(preset=preset, seed=seed, params=params)


def load_experiment_config(source) -> ExperimentConfig:
    """Accept a dict, a JSON file path, or JSON text."""
    if isinstance(source, ExperimentConfig):
        return source
    if isinstance(source, dict):
        return ExperimentConfig.from_dict(source)
    text = Path(source).read_text() if Path(str(source)).exists() else str(source)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"experiment config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


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


def _bias_model():
    return builtin_model("finite_gaussian", hyper={"param": "scale"})


def _mean_model():
    # positive half-box: state relabeling makes +-theta equally likely under
    # the full box, so the sign must be pinned for the error to be meaningful
    return builtin_model("finite_gaussian", hyper={"param": "mean"},
                         theta_box=[[0.0, 3.0]])


def _info_model():
    return builtin_model("finite_gaussian", hyper={"param": "mean_scale"})


def _task_bias_point(task: dict) -> dict:
    model = _bias_model()
    data = sampling.simulate(model, [task["theta_star"]], task["n"],
                             seed=rngmod.derive_seed(task["seed"], "data"),
                             with_hidden=False)
    pert = PerturbationSpec(epsilon=task["epsilon"])
    result = est.abc_mle(model, data, pert, objective="oracle",
                         seed=rngmod.derive_seed(task["seed"], "fit"))
    theta_hat = float(result.theta_hat.values[0])
    return {"task": task["index"], "epsilon": task["epsilon"],
            "replicate": task["replicate"], "theta_hat": theta_hat,
            "bias": theta_hat - task["theta_star"]}


def _task_consistency_point(task: dict) -> dict:
    model = _mean_model()
    data = sampling.simulate(model, [task["theta_star"]], task["n"],
                             seed=rngmod.derive_seed(task["seed"], "data"),
                             with_hidden=False)
    pert = PerturbationSpec(epsilon=task["epsilon"])
    result = est.noisy_abc_mle(model, data, pert, objective="oracle",
                               seed=rngmod.derive_seed(task["seed"], "fit"))
    theta_hat = float(result.theta_hat.values[0])
    return {"task": task["index"], "n": task["n"],
            "replicate": task["replicate"], "theta_hat": theta_hat,
            "abs_error": abs(theta_hat - task["theta_star"])}


def _task_two_point(task: dict) -> dict:
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [task["theta_star"]], task["n"],
                             seed=rngmod.derive_seed(task["seed"], "data"),
                             with_hidden=False)
    pert = PerturbationSpec(epsilon=task["epsilon"])
    fit_seed = rngmod.derive_seed(task["seed"], "fit")
    if task["method"] == "abc":
        result = est.abc_mle(model, data, pert, objective="oracle",
                             method="grid", grid_points=task["grid_points"],
                             seed=fit_seed)
    else:
        result = est.noisy_abc_mle(model, data, pert, objective="oracle",
                                   method="grid",
                                   grid_points=task["grid_points"],
                                   seed=fit_seed)
    return {"task": task["index"], "method": task["method"],
            "theta_hat": float(result.theta_hat.values[0]),
            "log_value": result.value}


def _task_loss_point(task: dict) -> dict:
    model = _info_model()
    point = fishermod.loss_point(
        model, task["theta"], task["epsilon"], window=task["window"],
        n_replicates=task["n_replicates"], seed=task["seed"])
    return {"task": task["index"], "epsilon": task["epsilon"],
            "loss_frobenius": point.frobenius,
            "loss_se_frobenius": point.frobenius_se}


def _task_fisher(task: dict) -> dict:
    model = _info_model()
    pert = None if task["epsilon"] is None else \
        PerturbationSpec(epsilon=task["epsilon"])
    fe = fishermod.estimate_fisher(model, task["theta"], n=task["n"],
                                   n_replicates=task["n_replicates"],
                                   seed=task["seed"], pert=pert)
    return {"task": task["index"], "epsilon": task["epsilon"],
            "fisher_frobenius": fe.frobenius}


_TASK_RUNNERS = {
    "bias_point": _task_bias_point,
    "consistency_point": _task_consistency_point,
    "two_point": _task_two_point,
    "loss_point": _task_loss_point,
    "fisher": _task_fisher,
}


def run_task(task: dict) -> dict:
    return _TASK_RUNNERS[task["kind"]](task)


def _run_tasks(tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        rows = [run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            rows = list(pool.map(run_task, tasks))
    return sorted(rows, key=lambda row: row["task"])


# ---------------------------------------------------------------------------
# preset expansion and aggregation


def _expand_two_point(config: ExperimentConfig) -> list:
    p = config.params
    tasks = []
    for i, method in enumerate(("abc", "noisy_abc")):
        tasks.append({"kind": "two_point", "index": i, "method": method,
                      "theta_star": float(p["theta_star"]),
                      "epsilon": float(p["epsilon"]), "n": int(p["n"]),
                      "grid_points": int(p["grid_points"]),
                      "seed": rngmod.derive_seed(config.seed, "task", i)})
    return tasks


def _expand_bias_curve(config: ExperimentConfig) -> list:
    p = config.params
    tasks = []
    i = 0
    for eps in p["epsilons"]:
        for rep in range(int(p["n_replicates"])):
            tasks.append({"kind": "bias_point", "index": i,
                          "epsilon": float(eps), "replicate": rep,
                          "theta_star": float(p["theta_star"]),
                          "n": int(p["n"]),
                          "seed": rngmod.derive_seed(config.seed, "task", i)})
            i += 1
    return tasks


def _expand_consistency(config: ExperimentConfig) -> list:
    p = config.params
    tasks = []
    i = 0
    for n in p["lengths"]:
        for rep in range(int(p["n_replicates"])):
            tasks.append({"kind": "consistency_point", "index": i,
                          "n": int(n), "replicate": rep,
                          "theta_star": float(p["theta_star"]),
                          "epsilon": float(p["epsilon"]),
                          "seed": rngmod.derive_seed(config.seed, "task", i)})
            i += 1
    return tasks


def _expand_info_loss(config: ExperimentConfig) -> list:
    p = config.params
    tasks = []
    epsilons = sorted(float(e) for e in p["epsilons"])
    for i, eps in enumerate(epsilons):
        tasks.append({"kind": "loss_point", "index": i, "epsilon": eps,
                      "theta": [float(v) for v in p["theta"]],
                      "window": int(p["window"]),
                      "n_replicates": int(p["n_replicates"]),
                      "seed": rngmod.derive_seed(config.seed, "loss", i)})
    base = len(epsilons)
    for j, eps in enumerate((None, float(p["huge_epsilon"]))):
        tasks.append({"kind": "fisher", "index": base + j, "epsilon": eps,
                      "theta": [float(v) for v in p["theta"]],
                      "n": int(p["fisher_n"]),
                      "n_replicates": int(p["fisher_replicates"]),
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
    fit = [s for s in summary[:4] if s["abs_mean_bias"] > 0]
    derived = {"slope": fishermod.loglog_slope([s["epsilon"] for s in fit],
                                               [s["abs_mean_bias"] for s in fit])}
    plot = _plot_script(
        title="ABC scale bias vs tolerance",
        xlabel="tolerance", ylabel="|mean bias|", logscale=True,
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
    plot = _plot_script(
        title="Noise-calibrated ABC error vs series length",
        xlabel="series length", ylabel="median |error|", logscale=True,
        using="1:2", source="summary.csv")
    return rows, summary, derived, plot


def _summarize_info_loss(config, rows):
    curve = [r for r in rows if "loss_frobenius" in r]
    fishers = [r for r in rows if "fisher_frobenius" in r]
    exact = next(r for r in fishers if r["epsilon"] is None)
    huge = next(r for r in fishers if r["epsilon"] is not None)
    derived = {
        "slope": fishermod.loglog_slope([r["epsilon"] for r in curve[:4]],
                                        [r["loss_frobenius"] for r in curve[:4]]),
        "fisher_frobenius": exact["fisher_frobenius"],
        "huge_epsilon_fisher_frobenius": huge["fisher_frobenius"],
        "huge_epsilon_ratio": huge["fisher_frobenius"] / exact["fisher_frobenius"],
    }
    plot = _plot_script(
        title="Information destroyed by the perturbation",
        xlabel="tolerance", ylabel="Frobenius norm of loss", logscale=True,
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


def _plot_script(*, title, xlabel, ylabel, logscale, using, source) -> str:
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(f"plot '{source}' using {using} skip 1 "
                 "with linespoints pointtype 7 notitle")
    return "\n".join(lines) + "\n"


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

    run_dir = _next_run_dir(Path(out_root))
    run_dir.mkdir()
    results_bytes = _csv_bytes(rows)
    (run_dir / "results.csv").write_bytes(results_bytes)
    manifest = {
        "preset": config.preset,
        "seed": config.seed,
        "params": config.params,
        "derived": derived,
        "results_sha256": hashlib.sha256(results_bytes).hexdigest(),
    }
    if summary:
        summary_bytes = _csv_bytes(summary)
        (run_dir / "summary.csv").write_bytes(summary_bytes)
        manifest["summary_sha256"] = hashlib.sha256(summary_bytes).hexdigest()
    if plot is not None:
        (run_dir / "plot.gp").write_text(plot)
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return run_dir
