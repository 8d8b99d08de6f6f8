"""Maximum-likelihood point estimation over box-constrained parameters.

Three objective flavours share one optimizer front end:

* ``abc_mle``: maximize the ABC likelihood (particle estimate, or the exact
  value when ``objective="oracle"`` and ``oracle.has_closed_form`` holds);
* ``noisy_abc_mle``: first add matching kernel noise to the data, then run
  the same maximization -- the noise-calibrated variant whose target the
  data-generating parameter actually maximizes asymptotically;
* ``exact_mle``: maximize the exact unperturbed likelihood (tractable only).

Every objective is a batch objective: it maps a (G, d) array of candidate
thetas to ``(values, ses)``, one entry per row, and a single probe is a
one-row call.  The grid stage hands all its candidates over in one call; the
golden-section stage looks one step ahead (below), and the Nelder-Mead
stage probes one theta per call.

The particle objective uses common random numbers: one stream key is derived
from the run seed and reused for every candidate theta, making the objective a
deterministic surface the optimizer can trust.  A fit keeps one table of the
filter's step draws for all its evaluations: each step's streams are derived
once, by the first evaluation that reaches the step.  Under
``grid_then_golden`` and ``nelder_mead``, which evaluate more than once, that
first evaluation keeps the step's uniforms and noise (up to a fixed memory
budget) and every later evaluation replays them, so each step is drawn once.
A ``grid`` fit evaluates once, and keeps arrays only when its grid spans
several of the filter's chunks (see ``smc``).  Every value equals a fresh
``smc.smc_abc_likelihood`` at the fit's stream key, and the rows of one call
share the filter's draws step by step.  The exact objective runs the
forward product tree on state-major planes, where every row of a call equals
its one-row call bit for bit too.  Under both objectives a three-row call
costs well under three one-row calls.  The golden-section stage always
looks one step ahead: each call holds the next probe and both probes that
could follow it, and only the probes the sequential search makes are
recorded, so the result is the sequential search's, bit for bit.

Optimizers: ``grid`` (ties resolved to the first/lowest grid point),
``grid_then_golden`` (coarse grid, then cyclic per-coordinate golden-section
refinement, two sweeps), ``nelder_mead`` (restarted from Latin hypercube
starts).  The default is ``grid_then_golden`` up to two parameters and
``nelder_mead`` beyond.  Every evaluation lands in ``trace``; failed
(collapsed) evaluations stay there with value -inf.  A Nelder-Mead restart
whose initial simplex (its first d + 1 evaluations) all failed ends there:
a simplex of equal infinite values has nowhere to go, and scipy's
convergence test cannot pass on it, so the restart would wander to
``maxiter``.  Once one vertex is finite, scipy never builds an all-failed
simplex again, so every other restart runs as before.  Only a ``nelder_mead``
fit loads ``scipy.optimize``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle, rng as rngmod, smc as smcmod
from .errors import EstimationFailedError
from .models import ModelSpec, ParameterVector, PerturbationSpec, \
    check_box, check_count
from .sampling import Trajectory, format_value, json_value, noisify

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
    """Call a batch objective; record the evaluations kept and the running
    best."""

    def __init__(self, objective):
        self.objective = objective
        self.trace = []
        self.best_value = -math.inf
        self.best_theta = None
        self.n_failures = 0

    def evaluate(self, thetas) -> list:
        """``(theta, value, se)`` of each row of ``thetas``, from one call;
        none is recorded."""
        thetas = np.asarray(thetas, dtype=float)
        values, ses = self.objective(thetas)
        return list(zip(thetas, values, ses))

    def record(self, theta, value, se) -> float:
        value = float(value)
        if math.isnan(value):
            raise ValueError("the objective is NaN at theta "
                             f"{[float(v) for v in theta]}")
        self.trace.append((tuple(float(v) for v in theta), value, float(se)))
        if not math.isfinite(value):
            self.n_failures += 1
        elif value > self.best_value:
            self.best_value = value
            self.best_theta = np.asarray(theta, dtype=float).copy()
        return value


def _grid_axes(box: np.ndarray, points_per_dim: int):
    return [np.linspace(lo, hi, points_per_dim) for lo, hi in box]


def _grid_thetas(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _narrow(lo: float, hi: float, c: float, d: float, keep_left: bool):
    """One golden-section step: keep ``[lo, d]`` (``keep_left``, when
    ``f(c) >= f(d)``) or ``[c, hi]``.  Returns the new bracket
    ``(lo, hi, c, d)`` and the one point of it still to evaluate."""
    if keep_left:
        hi, d = d, c
        c = hi - GOLDEN * (hi - lo)
        return (lo, hi, c, d), c
    lo, c = c, d
    d = lo + GOLDEN * (hi - lo)
    return (lo, hi, c, d), d


def _golden_refine(rec: _Recorder, theta: np.ndarray, j: int,
                   a: float, b: float, tol: float):
    """Golden-section maximization of coordinate j on [a, b], one step ahead.

    The two bracket points share one call, and each later call holds the
    next probe together with both probes that could follow it: which of the
    two the search makes depends on the value of the first, and the next
    step takes it without a call.  Only the probes the search makes are
    recorded, in its order, so the trace is the sequential search's when
    every row of a call equals its one-row call bit for bit.
    """
    def probe(xs):
        """``(theta, value, se)`` at each point of ``xs``, in one call."""
        thetas = np.repeat(theta[None], len(xs), axis=0)
        thetas[:, j] = xs
        return rec.evaluate(thetas)

    lo, hi = a, b
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = [rec.record(*row) for row in probe([c, d])]
    ahead = {}          # keep_left -> the probe that step makes, evaluated
    while (hi - lo) > tol:
        keep_left = fc >= fd
        (lo, hi, c, d), x = _narrow(lo, hi, c, d, keep_left)
        row = ahead.get(keep_left)
        if row is None:
            nxt = [_narrow(lo, hi, c, d, k)[1] for k in (True, False)] \
                if (hi - lo) > tol else []
            row, *rest = probe([x, *nxt])
            ahead = dict(zip((True, False), rest))
        else:
            ahead = {}
        fx = rec.record(*row)
        if keep_left:
            fc, fd = fx, fc
        else:
            fc, fd = fd, fx


def _lhs_starts(box: np.ndarray, count: int, rs: np.random.Generator):
    d = box.shape[0]
    starts = np.empty((count, d))
    for j in range(d):
        strata = (rs.permutation(count) + rs.random(count)) / count
        starts[:, j] = box[j, 0] + strata * (box[j, 1] - box[j, 0])
    return starts


class _CollapsedSimplex(Exception):
    """Every vertex of a Nelder-Mead restart's initial simplex failed."""


def maximize(batch_objective, box, method: str = "grid_then_golden", *,
             grid_points: int = 21, sweeps: int = 2,
             section_tol: float | None = None, restarts: int = 5,
             seed: int = 0):
    """Maximize ``batch_objective(thetas) -> (values, ses)`` over a box.

    ``box`` is checked by :func:`abchmm.models.check_box`.  ``thetas`` is a
    (G, d) array of candidates, and ``values`` and ``ses`` hold one entry
    per row; a single probe is a one-row call.  A row's value must not
    depend on the rows beside it: every row of a call must equal its
    one-row call bit for bit, as under both objectives of :func:`abc_mle`
    (the particle objective's common random numbers and the exact forward
    tree's row-independent planes).  Returns ``(theta_hat, value, trace,
    n_failures, settings)``.  The grid stage evaluates all its points in one
    call; ties resolve to the lowest (row-major first) index.  The
    Nelder-Mead stage probes one theta per call.

    The golden-section stage looks one step ahead: each call evaluates the
    next probe and both probes that could follow it, up to three rows.  The
    speculative probe the search does not take is evaluated but not
    recorded, so ``trace`` (and with it ``n_evaluations`` and
    ``n_failures``) holds only the probes of the sequential search, in its
    order, and the result is the sequential search's.
    """
    check_count("grid_points", grid_points, 1)
    check_count("sweeps", sweeps, 0)
    check_count("restarts", restarts, 1)
    if section_tol is not None and not 0.0 < section_tol < math.inf:
        raise ValueError("section_tol must be a positive finite number, "
                         f"got {section_tol!r}")
    box = check_box(box, "maximize: box")
    d = box.shape[0]
    rec = _Recorder(batch_objective)
    used = {"method": method, "grid_points": grid_points, "sweeps": sweeps,
            "restarts": restarts, "seed": seed}

    if method in ("grid", "grid_then_golden"):
        axes = _grid_axes(box, grid_points)
        values = [rec.record(*row) for row in rec.evaluate(_grid_thetas(axes))]
        best_flat = int(np.argmax(values))       # first max on ties
        if method == "grid_then_golden" and math.isfinite(values[best_flat]):
            current = np.asarray(rec.trace[best_flat][0], dtype=float)
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
        # imported here, so that only a Nelder-Mead fit loads scipy.optimize
        import scipy.optimize
        rs = rngmod.stream(seed, "nelder-mead-starts")
        for start in _lhs_starts(box, restarts, rs):
            evals, failures = len(rec.trace), rec.n_failures

            def negated(th):
                row, = rec.evaluate(np.clip(th, box[:, 0], box[:, 1])[None])
                value = rec.record(*row)
                # the first d + 1 evaluations are the initial simplex
                if len(rec.trace) - evals == rec.n_failures - failures == d + 1:
                    raise _CollapsedSimplex
                return -value

            try:
                scipy.optimize.minimize(
                    negated, start, method="Nelder-Mead",
                    bounds=[(lo, hi) for lo, hi in box],
                    options={"xatol": 1e-6, "fatol": 1e-10,
                             "maxiter": 400 * d})
            except _CollapsedSimplex:
                pass
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
    """Exact batch objective, on the same scale as the particle estimator.

    Every row of a call equals its one-row call bit for bit (see
    ``oracle._forward_tree``), and a three-row call, which covers two
    golden-section steps of the look-ahead search, costs about 1.9 one-row
    calls (1.06 against 0.56 ms, medians of 400, for a two-state series of
    2,000 steps at eps 0.05 under the uniform kernel, on a shared 2-CPU
    VM).
    """
    if not oracle.has_closed_form(model, pert):
        raise ValueError(f"model {model.name!r} has no oracle objective for "
                         "this perturbation; use the particle objective")
    n = oracle.as_obs_1d(data).shape[0]
    shift = n * oracle.log_weight_scale(model, pert)

    def batch(thetas):
        values = oracle.forward_loglik_grid(model, thetas, data, pert) + shift
        return values, np.zeros(len(values))

    return batch


def _smc_objective(model: ModelSpec, data, pert: PerturbationSpec,
                   n_particles: int, seed: int, keep_first: bool = False):
    """Particle batch objective on common random numbers.

    Every row of a call equals its one-row call bit for bit, and a three-row
    call of the look-ahead golden-section search costs little more than one
    row.  All calls share one table of step draws, so each value equals a fresh
    ``smc_abc_likelihood`` at the fit's stream key.  With ``keep_first``,
    for an optimizer that calls the objective more than once, the table
    keeps the first call's draws, so each step is drawn once.
    """
    streams = smcmod._StepStreams(rngmod.derive_seed(seed, "crn"),
                                  keep_first)

    def batch(thetas):
        ests = smcmod._likelihood_batch(
            model, thetas, data, pert, n_particles, streams)
        return [e.log_value for e in ests], [e.se_proxy for e in ests]

    return batch


def _run(model, data, pert, objective, method, n_particles, seed, opts,
         label):
    if method is None:
        method = "grid_then_golden" if model.param_dim <= 2 else "nelder_mead"
    if objective == "oracle":
        batch = _oracle_objective(model, data, pert)
    elif objective == "smc":
        if pert is None:
            raise ValueError("the particle objective needs a perturbation")
        # only a grid fit calls its objective once
        batch = _smc_objective(model, data, pert, n_particles, seed,
                               keep_first=method != "grid")
    else:
        raise ValueError(f"unknown objective {objective!r}; "
                         "expected 'smc' or 'oracle'")
    theta, value, trace, failures, settings = maximize(
        batch_objective=batch, box=model.theta_box, method=method,
        seed=seed, **opts)
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


def result_to_dict(result: EstimateResult) -> dict:
    return {
        "theta_hat": result.theta_hat.to_list(),
        "box": [list(map(float, row)) for row in result.theta_hat.box],
        "value": json_value(result.value),
        "objective": result.objective,
        "method": result.method,
        "n_evaluations": result.n_evaluations,
        "n_failures": result.n_failures,
        "settings": {k: (v if isinstance(v, (int, float, str, bool, type(None)))
                         else str(v))
                     for k, v in result.settings.items()},
        "trace": [{"theta": list(th), "value": json_value(v),
                   "se": json_value(se)}
                  for th, v, se in result.trace],
    }


def save_estimate(result: EstimateResult, path) -> Path:
    """Write the estimate as JSON plus the trace as a CSV table."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    with open(path, "w", encoding="utf8") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    d = len(result.theta_hat.values)
    csv_path = path.with_suffix(".csv")
    with open(csv_path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{j}" for j in range(d)] + ["value", "se"])
        for th, v, se in result.trace:
            writer.writerow([format_value(x) for x in (*th, v, se)])
    return path
