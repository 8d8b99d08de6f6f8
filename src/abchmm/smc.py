"""Particle (SMC) estimation of ABC likelihoods.

One step per observation: propagate every particle through the latent
transition, draw a fresh pseudo-observation from the observation channel,
weight it by the comparison kernel against the recorded observation
(ball indicator, or smooth gaussian weight), record the mean weight as that
step's likelihood factor, then resample.  The product of per-step factors
estimates the probability that a fresh model trajectory tracks the data
within the tolerance (uniform kernel), or the expected accumulated smooth
weight (gaussian kernel); ``oracle.exact_smc_target`` computes the same
quantity exactly for tractable models.

Weeds worth knowing about:

* When the current weights are uniform the per-step factor is computed as a
  plain mean, so an all-accept step contributes a factor of exactly 1.0 and
  an everything-accepts run gives ``log_value == 0.0`` exactly.
* A step where every weight vanishes collapses the estimate: ``log_value``
  is -inf, ``collapsed_at`` records the 0-based step, and the remaining
  entries of ``step_acceptance`` / ``ess_trace`` stay 0.
* All randomness is derived from ``seed`` through per-step tagged streams,
  so estimates are reproducible bit-for-bit and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .kernels import GAUSS_SUP, smooth_weight, within_ball
from .models import ModelSpec, PerturbationSpec, check_theta, \
    sample_categorical_rows
from .sampling import Trajectory, check_finite_obs

RESAMPLING_SCHEMES = ("multinomial_always", "systematic_ess")


@dataclass
class LikelihoodEstimate:
    """Result of one particle likelihood run."""

    log_value: float
    step_acceptance: np.ndarray
    ess_trace: np.ndarray
    collapsed_at: int | None
    n: int
    n_particles: int
    epsilon: float
    seed: int
    se_proxy: float

    @property
    def collapsed(self) -> bool:
        return self.collapsed_at is not None


def _multinomial_indices(weights, n, rng):
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(n), side="right").clip(0, len(weights) - 1)


def _systematic_indices(weights, n, rng):
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(cum, positions, side="right").clip(0, len(weights) - 1)


def _observations(data) -> np.ndarray:
    if isinstance(data, Trajectory):
        obs = data.observations
    else:
        obs = np.asarray(data, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
    return check_finite_obs(obs)


def smc_abc_likelihood(model: ModelSpec, theta, data, pert: PerturbationSpec,
                       n_particles: int, seed: int,
                       resampling: str = "multinomial_always",
                       ess_threshold: float = 0.5) -> LikelihoodEstimate:
    """Particle estimate of the ABC likelihood of ``data`` at ``theta``.

    ``resampling`` is ``multinomial_always`` (resample every step; the
    estimator is then the product of mean weights) or ``systematic_ess``
    (carry weights, resample systematically when ESS falls below
    ``ess_threshold * n_particles``).
    """
    theta = check_theta(model, theta)
    if not isinstance(n_particles, (int, np.integer)) or n_particles < 1:
        raise ValueError(f"n_particles must be a positive integer, got {n_particles}")
    if resampling not in RESAMPLING_SCHEMES:
        raise ValueError(f"unknown resampling policy {resampling!r}; "
                         f"expected one of {RESAMPLING_SCHEMES}")
    if not 0.0 < ess_threshold <= 1.0:
        raise ValueError(f"ess_threshold must lie in (0, 1], got {ess_threshold}")
    obs = _observations(data)
    n = obs.shape[0]
    if n < 1:
        raise ValueError("data must contain at least one observation")
    if obs.ndim != 2 or obs.shape[1] != model.obs_dim:
        raise ValueError(f"model {model.name!r} emits {model.obs_dim}-D "
                         f"observations, got data of shape {obs.shape}")
    eps = pert.epsilon

    p = np.asarray(model.transition_matrix(theta), dtype=float)
    init = np.asarray(model.initial_dist(theta), dtype=float)
    cap = GAUSS_SUP ** model.obs_dim if pert.kernel == "gaussian" else 1.0

    states = sample_categorical_rows(
        np.broadcast_to(init, (n_particles, init.shape[0])),
        rngmod.stream(seed, "init"))
    weights = np.full(n_particles, 1.0 / n_particles)
    uniform = True

    step_acceptance = np.zeros(n)
    ess_trace = np.zeros(n)
    log_value = 0.0
    var_log = 0.0
    collapsed_at = None

    for k in range(n):
        states = sample_categorical_rows(p[states], rngmod.stream(seed, "prop", k))
        y = model.obs_sampler(theta, states, rngmod.stream(seed, "obsdraw", k))
        diff = y - obs[k][None, :]
        if pert.kernel == "uniform":
            w = within_ball(diff, eps, pert.norm).astype(float)
        else:
            w = smooth_weight(diff, eps)

        if uniform:
            step_val = float(w.mean())
            n_eff = float(n_particles)
            second = float(np.mean(w * w))
        else:
            step_val = float(np.dot(weights, w))
            n_eff = float(1.0 / np.sum(weights ** 2))
            second = float(np.dot(weights, w * w))
        step_acceptance[k] = step_val
        if step_val <= 0.0:
            collapsed_at = k
            log_value = -math.inf
            break

        # crude delta-method variance proxy, treating steps as independent;
        # dividing twice by step_val (no square) keeps a tiny step_val from
        # underflowing to a zero denominator, at worst giving inf
        var_log += max(second / step_val / step_val - 1.0, 0.0) / n_eff

        new_weights = (w / (n_particles * step_val)) if uniform \
            else weights * w / step_val
        ess = float(1.0 / np.sum(new_weights ** 2))
        ess_trace[k] = ess
        log_value += math.log(step_val)

        if resampling == "multinomial_always":
            idx = _multinomial_indices(new_weights, n_particles,
                                       rngmod.stream(seed, "resample", k))
            states = states[idx]
            uniform = True
        else:
            if ess < ess_threshold * n_particles:
                idx = _systematic_indices(new_weights, n_particles,
                                          rngmod.stream(seed, "resample", k))
                states = states[idx]
                uniform = True
            else:
                weights = new_weights
                uniform = False

    if collapsed_at is None and np.any(step_acceptance > cap * (1 + 1e-12)):
        raise AssertionError("step acceptance exceeded its kernel bound")
    return LikelihoodEstimate(
        log_value=log_value,
        step_acceptance=step_acceptance,
        ess_trace=ess_trace,
        collapsed_at=collapsed_at,
        n=n,
        n_particles=int(n_particles),
        epsilon=float(eps),
        seed=int(seed),
        se_proxy=math.inf if collapsed_at is not None else math.sqrt(var_log),
    )
