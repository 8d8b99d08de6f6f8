"""Maximum-likelihood point estimation over box-constrained parameters.

Three objective flavours share one optimizer front end:

* ``abc_mle``: maximize the ABC likelihood (particle estimate, or the exact
  value when ``objective="oracle"`` and ``oracle.has_closed_form`` holds);
* ``noisy_abc_mle``: first add matching kernel noise to the data, then run
  the same maximization -- the noise-calibrated variant whose target the
  data-generating parameter actually maximizes asymptotically;
* ``exact_mle``: maximize the exact unperturbed likelihood (tractable only).

The particle objective uses common random numbers: one stream key is derived
from the run seed and reused for every candidate theta, making the objective
a deterministic surface the optimizer can trust.  The grid stage hands all
its candidates to ``smc.smc_abc_likelihood_batch`` in one call, so they share
the filter's draws step by step, not only the seed; the golden-section and
Nelder-Mead stages evaluate one theta at a time, with the same draws.

Optimizers: ``grid`` (ties resolved to the first/lowest grid point),
``grid_then_golden`` (coarse grid, then cyclic per-coordinate golden-section
refinement, two sweeps), ``nelder_mead`` (restarted from Latin hypercube
starts).  The default is ``grid_then_golden`` up to two parameters and
``nelder_mead`` beyond.  Every evaluation lands in ``trace``; failed
(collapsed) evaluations stay there with value -inf.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.optimize

from . import oracle, rng as rngmod, smc as smcmod
from .errors import EstimationFailedError
from .models import ModelSpec, ParameterVector, PerturbationSpec
from .sampling import Trajectory, format_value, noisify

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class EstimateResult:
    theta_hat: ParameterVector
    value: float
    objective: str
    method: str
    trace: list = field(default_factory=list)   # (theta tuple, value, se)
    n_evaluations: int = 0
    n_failures: int = 0
    settings: dict = field(default_factory=dict)


class _Recorder:
    """Wrap an objective, recording evaluations and the running best."""

    def __init__(self, fn):
        self.fn = fn
        self.trace = []
        self.best_value = -math.inf
        self.best_theta = None
        self.n_failures = 0

    def __call__(self, theta: np.ndarray) -> float:
        value, se = self.fn(theta)
        self._record(theta, value, se)
        return value

    def record_batch(self, thetas, values, ses):
        for theta, value, se in zip(thetas, values, ses):
            self._record(np.asarray(theta), float(value), float(se))

    def _record(self, theta, value, se):
        self.trace.append((tuple(float(v) for v in theta), float(value), float(se)))
        if not math.isfinite(value):
            self.n_failures += 1
        if value > self.best_value and math.isfinite(value):
            self.best_value = value
            self.best_theta = np.asarray(theta, dtype=float).copy()


def _grid_axes(box: np.ndarray, points_per_dim: int):
    return [np.linspace(lo, hi, points_per_dim) for lo, hi in box]


def _grid_thetas(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _golden_refine(rec: _Recorder, theta: np.ndarray, j: int,
                   a: float, b: float, tol: float):
    """Golden-section maximization of coordinate j on [a, b]."""
    lo, hi = a, b
    base = theta.copy()

    def f(x):
        cand = base.copy()
        cand[j] = x
        return rec(cand)

    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while (hi - lo) > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = f(d)


def _lhs_starts(box: np.ndarray, count: int, rs: np.random.Generator):
    d = box.shape[0]
    starts = np.empty((count, d))
    for j in range(d):
        strata = (rs.permutation(count) + rs.random(count)) / count
        starts[:, j] = box[j, 0] + strata * (box[j, 1] - box[j, 0])
    return starts


def maximize(objective, box, method: str = "grid_then_golden", *,
             batch_objective=None, grid_points: int = 21, sweeps: int = 2,
             section_tol: float | None = None, restarts: int = 5,
             seed: int = 0, settings: dict | None = None):
    """Maximize ``objective(theta) -> (value, se)`` over a box.

    Returns ``(theta_hat, value, trace, n_failures, settings)``.  The grid
    stage prefers ``batch_objective(thetas) -> (values, ses)`` when given.
    Grid ties resolve to the lowest (row-major first) index.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    rec = _Recorder(objective)
    used = {"method": method, "grid_points": grid_points, "sweeps": sweeps,
            "restarts": restarts, "seed": seed}
    if settings:
        used.update(settings)

    if method in ("grid", "grid_then_golden"):
        axes = _grid_axes(box, grid_points)
        thetas = _grid_thetas(axes)
        if batch_objective is not None:
            values, ses = batch_objective(thetas)
            rec.record_batch(thetas, values, ses)
        else:
            for th in thetas:
                rec(th)
        values = np.asarray([v for _, v, _ in rec.trace])
        best_flat = int(np.argmax(values))       # first max on ties
        best = np.asarray(rec.trace[best_flat][0], dtype=float)
        if method == "grid_then_golden" and math.isfinite(values[best_flat]):
            current = best.copy()
            for _ in range(sweeps):
                for j in range(d):
                    axis = axes[j]
                    step = axis[1] - axis[0] if len(axis) > 1 else \
                        (box[j, 1] - box[j, 0])
                    a = max(box[j, 0], current[j] - step)
                    b = min(box[j, 1], current[j] + step)
                    tol = section_tol if section_tol is not None \
                        else max(step * 1e-3, 1e-10)
                    _golden_refine(rec, current, j, a, b, tol)
                    if rec.best_theta is not None:
                        current = rec.best_theta.copy()
    elif method == "nelder_mead":
        rs = rngmod.stream(seed, "nelder-mead-starts")
        for start in _lhs_starts(box, restarts, rs):
            scipy.optimize.minimize(
                lambda th: -rec(np.clip(th, box[:, 0], box[:, 1])),
                start, method="Nelder-Mead",
                bounds=[(lo, hi) for lo, hi in box],
                options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 400 * d})
    else:
        raise ValueError(f"unknown optimizer {method!r}")

    if rec.best_theta is None:
        raise EstimationFailedError(
            "every objective evaluation failed (value -inf)",
            diagnostics={"n_evaluations": len(rec.trace),
                         "n_failures": rec.n_failures})
    return rec.best_theta, rec.best_value, rec.trace, rec.n_failures, used


# ---------------------------------------------------------------------------
# objectives


def _oracle_objective(model: ModelSpec, data, pert: PerturbationSpec | None):
    """Exact objective on the same scale as the particle estimator."""
    if not oracle.has_closed_form(model, pert):
        raise ValueError(f"model {model.name!r} has no oracle objective for "
                         "this perturbation; use the particle objective")
    n = oracle.as_obs_1d(data).shape[0]
    shift = n * oracle.log_weight_scale(model, pert)

    def fn(theta):
        return oracle.forward_loglik(model, theta, data, pert) + shift, 0.0

    def batch(thetas):
        values = oracle.forward_loglik_grid(model, thetas, data, pert) + shift
        return values, np.zeros(len(values))

    return fn, batch


def _smc_objective(model: ModelSpec, data, pert: PerturbationSpec,
                   n_particles: int, seed: int):
    crn_seed = rngmod.derive_seed(seed, "crn")

    def fn(theta):
        est = smcmod.smc_abc_likelihood(
            model, theta, data, pert, n_particles, crn_seed)
        return est.log_value, est.se_proxy

    def batch(thetas):
        ests = smcmod.smc_abc_likelihood_batch(
            model, thetas, data, pert, n_particles, crn_seed)
        return [e.log_value for e in ests], [e.se_proxy for e in ests]

    return fn, batch


def _run(model, data, pert, objective, method, n_particles, seed, opts,
         label):
    if method is None:
        method = "grid_then_golden" if model.param_dim <= 2 else "nelder_mead"
    if objective == "oracle":
        fn, batch = _oracle_objective(model, data, pert)
    elif objective == "smc":
        if pert is None:
            raise ValueError("the particle objective needs a perturbation")
        fn, batch = _smc_objective(model, data, pert, n_particles, seed)
    else:
        raise ValueError(f"unknown objective {objective!r}; "
                         "expected 'smc' or 'oracle'")
    theta, value, trace, failures, settings = maximize(
        fn, model.theta_box, method, batch_objective=batch, seed=seed,
        **opts)
    settings.update({"objective": objective, "seed": seed,
                     "n_particles": n_particles if objective == "smc" else None,
                     "estimator": label})
    return EstimateResult(
        theta_hat=ParameterVector(theta, model.theta_box),
        value=float(value), objective=objective, method=method,
        trace=trace, n_evaluations=len(trace), n_failures=failures,
        settings=settings)


def abc_mle(model: ModelSpec, data, pert: PerturbationSpec, *,
            objective: str = "smc", method: str | None = None,
            n_particles: int = 1000, seed: int = 0,
            **opts) -> EstimateResult:
    """ABC maximum-likelihood estimate on raw (un-noisified) data."""
    if isinstance(data, Trajectory) and data.meta.get("noise_epsilon") is not None:
        raise ValueError("data is already noisified; this estimator expects raw "
                         "data (the noise-calibrated variant is noisy_abc_mle)")
    return _run(model, data, pert, objective, method, n_particles, seed,
                opts, "abc_mle")


def noisy_abc_mle(model: ModelSpec, data: Trajectory, pert: PerturbationSpec, *,
                  objective: str = "smc", method: str | None = None,
                  n_particles: int = 1000, seed: int = 0,
                  **opts) -> EstimateResult:
    """Noise-calibrated ABC estimate: noisify the data, then maximize.

    The noisification stream is independent of the particle streams, both
    derived from ``seed``.
    """
    if not isinstance(data, Trajectory):
        data = Trajectory(observations=np.asarray(data, dtype=float))
    noisy = noisify(data, pert, rngmod.derive_seed(seed, "noise"))
    result = _run(model, noisy, pert, objective, method, n_particles, seed,
                  opts, "noisy_abc_mle")
    result.settings["noise_epsilon"] = float(pert.epsilon)
    return result


def exact_mle(model: ModelSpec, data, *, method: str | None = None,
              seed: int = 0, **opts) -> EstimateResult:
    """Exact maximum-likelihood estimate (tractable models only)."""
    return _run(model, data, None, "oracle", method, 0, seed, opts,
                "exact_mle")


# ---------------------------------------------------------------------------
# serialization


def _json_value(v: float):
    if math.isfinite(v):
        return v
    return "-inf" if v < 0 else "inf"


def result_to_dict(result: EstimateResult) -> dict:
    return {
        "theta_hat": result.theta_hat.to_list(),
        "box": [list(map(float, row)) for row in result.theta_hat.box],
        "value": _json_value(result.value),
        "objective": result.objective,
        "method": result.method,
        "n_evaluations": result.n_evaluations,
        "n_failures": result.n_failures,
        "settings": {k: (v if isinstance(v, (int, float, str, bool, type(None)))
                         else str(v))
                     for k, v in result.settings.items()},
        "trace": [{"theta": list(th), "value": _json_value(v), "se": se}
                  for th, v, se in result.trace],
    }


def save_estimate(result: EstimateResult, path) -> Path:
    """Write the estimate as JSON plus the trace as a CSV table."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    with open(path, "w", encoding="utf8") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    d = len(result.theta_hat.values)
    csv_path = path.with_suffix(".csv")
    with open(csv_path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{j}" for j in range(d)] + ["value", "se"])
        for th, v, se in result.trace:
            writer.writerow([format_value(x) for x in (*th, v, se)])
    return path
