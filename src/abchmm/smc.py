"""Particle (SMC) estimation of ABC likelihoods.

The estimator is the bootstrap particle filter with multinomial resampling
at every step.  One step per observation: propagate every particle through
the latent transition, draw a fresh pseudo-observation from the
observation channel, weight it by the comparison kernel against the
recorded observation (ball indicator, or smooth gaussian weight), record
the mean weight as that step's likelihood factor, then resample.  The
product of per-step factors estimates the probability that a fresh model
trajectory tracks the data within the tolerance (uniform kernel), or the
expected accumulated smooth weight (gaussian kernel);
``oracle.exact_smc_target`` computes the same quantity exactly for
tractable models.

The filter runs on its weighted state histogram.  A particle carries
nothing from one step to the next but its latent state, and the chain is
finite.  After a step with weights ``w_i`` on states ``s_i``, multinomial
resampling draws each child i.i.d. from the weighted particles, so each
child's state has law ``q_k = sum_{i: s_i = k} w_i / sum_i w_i``, and after
propagation ``q @ P``.  Resampling then propagating is therefore the same
in law as drawing ``N`` i.i.d. states from ``q @ P`` directly, starting
from ``q_0 = initial_dist`` (the law of the state before the first
observation).  So each step makes one categorical draw per particle and no
resampling draw; the estimator's law, and with it its unbiasedness,
variance and collapse probability, is that of the bootstrap filter.

Weeds worth knowing about:

* Every step starts from equal weights, so the per-step factor is a plain
  mean: an all-accept step contributes a factor of exactly 1.0 and an
  everything-accepts run gives ``log_value == 0.0`` exactly.
* A step where every weight vanishes collapses the estimate: ``log_value``
  is -inf, ``collapsed_at`` records the 0-based step, and the remaining
  entries of ``step_acceptance`` / ``ess_trace`` stay 0.
* All randomness is derived from ``seed`` through per-step tagged streams
  (``"prop"`` for the states, ``"obsdraw"`` for the pseudo-observations),
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


def _observations(data) -> np.ndarray:
    if isinstance(data, Trajectory):
        obs = data.observations
    else:
        obs = np.asarray(data, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
    return check_finite_obs(obs)


def smc_abc_likelihood(model: ModelSpec, theta, data, pert: PerturbationSpec,
                       n_particles: int, seed: int) -> LikelihoodEstimate:
    """Particle estimate of the ABC likelihood of ``data`` at ``theta``.

    The bootstrap filter with multinomial resampling at every step, run on
    the weighted state histogram (see the module docstring); the estimate
    is the product of the per-step mean weights.
    """
    theta = check_theta(model, theta)
    if isinstance(n_particles, bool) \
            or not isinstance(n_particles, (int, np.integer)) or n_particles < 1:
        raise ValueError(f"n_particles must be a positive integer, got {n_particles!r}")
    eps = pert.epsilon
    if not eps > 0.0:
        raise ValueError(f"the particle estimator needs epsilon > 0, got {eps}")
    obs = _observations(data)
    n = obs.shape[0]
    if n < 1:
        raise ValueError("data must contain at least one observation")
    if obs.ndim != 2 or obs.shape[1] != model.obs_dim:
        raise ValueError(f"model {model.name!r} emits {model.obs_dim}-D "
                         f"observations, got data of shape {obs.shape}")

    p = np.asarray(model.transition_matrix(theta), dtype=float)
    q = np.asarray(model.initial_dist(theta), dtype=float)
    n_states = q.shape[0]
    cap = GAUSS_SUP ** model.obs_dim if pert.kernel == "gaussian" else 1.0

    step_acceptance = np.zeros(n)
    ess_trace = np.zeros(n)
    log_value = 0.0
    var_log = 0.0
    collapsed_at = None

    for k in range(n):
        pred = q @ p
        states = sample_categorical_rows(
            np.broadcast_to(pred, (n_particles, n_states)),
            rngmod.stream(seed, "prop", k))
        y = model.obs_sampler(theta, states, rngmod.stream(seed, "obsdraw", k))
        diff = y - obs[k][None, :]
        if pert.kernel == "uniform":
            w = within_ball(diff, eps, pert.norm).astype(float)
        else:
            w = smooth_weight(diff, eps)

        step_val = float(w.mean())
        step_acceptance[k] = step_val
        if step_val <= 0.0:
            collapsed_at = k
            log_value = -math.inf
            break

        # crude delta-method variance proxy, treating steps as independent;
        # dividing twice by step_val (no square) keeps a tiny step_val from
        # underflowing to a zero denominator, at worst giving inf
        second = float(np.mean(w * w))
        var_log += max(second / step_val / step_val - 1.0, 0.0) / n_particles

        ess_trace[k] = float(1.0 / np.sum((w / (n_particles * step_val)) ** 2))
        log_value += math.log(step_val)
        q = np.bincount(states, weights=w, minlength=n_states) / w.sum()

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
