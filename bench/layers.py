"""The package's layers as the traced run sees them.

Each layer function is wrapped wherever a caller can reach it: the module
that defines it and every module that imported it by name.  Model
observation samplers are ``ModelSpec`` fields, so ``builtin_model`` is
wrapped to hand out models whose ``obs_sampler`` records spans.  The
counters come from the wrapped functions' arguments and return values.
"""

from __future__ import annotations

import dataclasses
import sys

from abchmm import (estimate, experiments, fisher, kernels, models, oracle,
                    rng, sampling, smc, stable)

import tracing

# Span names, ``<module>.<function>``.  All but the observation sampler are
# module functions, looked up in the module that defines them.
SPANS = (
    "rng.stream",
    "models.sample_categorical_rows",
    "models.obs_sampler",
    "stable.sample",
    "kernels.within_ball",
    "smc.smc_abc_likelihood",
    "oracle.forward_loglik",
    "oracle.forward_loglik_grid",
    "oracle.emission_matrix",
    "oracle.forward_score_batch",
    "fisher.loss_point",
    "fisher.estimate_fisher",
    "estimate.maximize",
    "sampling.simulate",
    "experiments.run_task",
    "experiments.run_experiment",
)
OBS_SAMPLER = "models.obs_sampler"

_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
            (estimate, experiments, fisher, kernels, models, oracle, rng,
             sampling, smc, stable)}

# (name, unit, better) of every metric :func:`metrics` reports
METRICS = tuple(
    (f"{span}.{kind}", unit, "lower")
    for span in SPANS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("smc.particle_steps", "count", "lower"),
    ("smc.acceptance_mean", "ratio", "higher"),
    ("smc.min_ess_frac", "ratio", "higher"),
    ("smc.collapse_ratio", "ratio", "lower"),
    ("oracle.filter_updates", "count", "lower"),
    ("estimate.evals_per_fit", "count", "lower"),
    ("estimate.batch_evals", "count", "higher"),
)


def _bindings(fn):
    """Every (module, attribute) in the loaded package that holds ``fn``."""
    for name, module in list(sys.modules.items()):
        if name == "abchmm" or name.startswith("abchmm."):
            for attr, value in vars(module).items():
                if value is fn:
                    yield module, attr


def _n_obs(data) -> int:
    if isinstance(data, sampling.Trajectory):
        return data.n
    return len(data)


def _after_smc(tracer, est, args, kwargs):
    steps = est.n if est.collapsed_at is None else est.collapsed_at + 1
    tracer.count("smc.particle_steps", steps * est.n_particles)
    tracer.count("smc.steps", steps)
    tracer.count("smc.acceptance_sum", float(est.step_acceptance[:steps].sum()))
    if est.collapsed:
        tracer.count("smc.collapsed")
    else:
        tracer.count("smc.min_ess_frac_sum",
                     float(est.ess_trace.min()) / est.n_particles)


def _after_forward(tracer, ll, args, kwargs):
    data = kwargs["data"] if "data" in kwargs else args[2]
    batch = 1 if isinstance(ll, float) else len(ll)
    tracer.count("oracle.filter_updates", batch * _n_obs(data))


def _after_maximize(tracer, result, args, kwargs):
    tracer.count("estimate.fits")
    tracer.count("estimate.evals", len(result[2]))


def _counting_batches(tracer, maximize):
    """``maximize`` whose ``batch_objective`` counts the thetas it serves."""
    def wrapper(*args, **kwargs):
        batch = kwargs.get("batch_objective")
        if batch is not None:
            def counted(thetas):
                tracer.count("estimate.batch_evals", len(thetas))
                return batch(thetas)
            kwargs["batch_objective"] = counted
        return maximize(*args, **kwargs)
    return wrapper


_AFTER = {
    "smc.smc_abc_likelihood": _after_smc,
    "oracle.forward_loglik": _after_forward,
    "oracle.forward_loglik_grid": _after_forward,
    "estimate.maximize": _after_maximize,
}


def _function(name: str):
    module, attr = name.split(".")
    return getattr(_MODULES[module], attr)


def stopwatch_replacements(names, stopwatch: tracing.Stopwatch) -> list:
    """(owner, attribute, timed) triples that time every call to the named
    functions."""
    out = []
    for name in names:
        fn = _function(name)
        timed = stopwatch.wrap(fn)
        out += [(owner, a, timed) for owner, a in _bindings(fn)]
    return out


def replacements(tracer: tracing.Tracer) -> list:
    """(owner, attribute, wrapped) triples for :func:`tracing.patched`."""
    out = []
    for name in SPANS:
        if name == OBS_SAMPLER:
            continue
        fn = _function(name)
        inner = _counting_batches(tracer, fn) if name == "estimate.maximize" \
            else fn
        wrapped = tracer.wrap(name, inner, after=_AFTER.get(name))
        out += [(owner, a, wrapped) for owner, a in _bindings(fn)]

    build = models.builtin_model

    def builtin_model(*args, **kwargs):
        model = build(*args, **kwargs)
        return dataclasses.replace(
            model, obs_sampler=tracer.wrap(OBS_SAMPLER, model.obs_sampler))

    out += [(owner, a, builtin_model) for owner, a in _bindings(build)]
    return out


def metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced run; idle layers read 0."""
    calls, self_s = tracing.totals(tracer.spans)
    c = tracer.counters
    out = {}
    for name, _, _ in METRICS:
        fn, kind = name.rsplit(".", 1)
        if kind == "calls":
            out[name] = calls.get(fn, 0)
        elif kind == "self_s":
            out[name] = self_s.get(fn, 0.0)
    smc_calls = calls.get("smc.smc_abc_likelihood", 0)
    survived = smc_calls - c["smc.collapsed"]
    out.update({
        "smc.particle_steps": c["smc.particle_steps"],
        "smc.acceptance_mean": c["smc.acceptance_sum"] / c["smc.steps"]
        if c["smc.steps"] else 0.0,
        "smc.min_ess_frac": c["smc.min_ess_frac_sum"] / survived
        if survived else 0.0,
        "smc.collapse_ratio": c["smc.collapsed"] / smc_calls
        if smc_calls else 0.0,
        "oracle.filter_updates": c["oracle.filter_updates"],
        "estimate.evals_per_fit": c["estimate.evals"] / c["estimate.fits"]
        if c["estimate.fits"] else 0.0,
        "estimate.batch_evals": c["estimate.batch_evals"],
    })
    return out
