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
* Under the uniform kernel every weight is 0 or 1, so the filter keeps
  the kernel's booleans and takes its sums as counts: the accepted count
  gives the step's factor, the second moment equals the factor (0/1
  weights square to themselves), and the next predictive law is each
  state's accepted count over the total.  Every count is an integer below
  2**53, so these sums are exact, and the values are those of the same
  sums over 0.0/1.0 floats, bit for bit.  The ESS keeps its float sum.
* A step where every weight vanishes collapses the estimate: ``log_value``
  is -inf, ``collapsed_at`` records the 0-based step, and the remaining
  entries of ``step_acceptance`` / ``ess_trace`` stay 0.
* All randomness is derived from ``seed`` through per-step tagged streams
  (``"prop"`` for the states, ``"obsdraw"`` for the pseudo-observations),
  so estimates are reproducible bit-for-bit and independent of scheduling.
  A call derives each step's two streams the first time a pass reaches the
  step and saves their fresh generator states; every later pass over the
  same seed (another chunk of the batch, or another call of the same
  particle fit, see ``estimate``) restores the saved state instead of
  deriving it again.  A restore gives the same draws as a derivation, for
  about a tenth of its cost.

Batching over candidate parameters.  Neither stream depends on theta: the
state draw inverts each particle's predictive CDF at a uniform from
``("prop", k)``, and ``ModelSpec.obs_sampler`` draws its noise from
``("obsdraw", k)`` once per call and transforms it by theta and the states.
So :func:`smc_abc_likelihood_batch` runs G candidates in one loop over time
steps: each step takes its two streams once, every candidate inverts its
own CDF at the same N uniforms, and one ``obs_sampler`` call on (G, d)
thetas serves them all.  The candidates' common random numbers (Malik &
Pitt, "Particle filters for continuous likelihood evaluation and
maximisation", J. Econometrics 2011) are the same draws, and each row is
bit-identical to the single-theta run, which is the G=1 case.  A candidate
that collapses leaves the batch; the others go on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .kernels import GAUSS_SUP, smooth_weight, within_ball
from .models import ModelSpec, PerturbationSpec, check_count, check_theta, \
    sample_categorical_rows, sample_observations
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


# entries of one (rows, N) step temporary in a chunk: 8 MB of float64
_CHUNK_ELEMENTS = 1 << 20


class _StepStreams:
    """The filter's per-step streams for one seed, each derived once.

    The first request for ``(tag, k)`` derives ``rng.stream(seed, tag, k)``
    and saves the fresh generator's ``bit_generator.state``.  Every later
    request restores that state into one reused generator per tag, which
    then draws exactly what a fresh derivation would.  The table fills as
    passes reach the steps, so a pass that collapses early leaves the later
    steps to the first pass that gets there.  A table lives for one call of
    the public functions below, or for one particle fit.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._saved = {}        # (tag, k) -> a fresh generator's state
        self._reused = {}       # tag -> the generator the states go into

    def __call__(self, tag: str, k: int) -> np.random.Generator:
        saved = self._saved.get((tag, k))
        if saved is None:
            gen = rngmod.stream(self.seed, tag, k)
            self._saved[tag, k] = gen.bit_generator.state
            return gen
        gen = self._reused.get(tag)
        if gen is None:
            # the same kind of bit generator as rng.stream's; its seed is
            # overwritten by every restore
            gen = self._reused[tag] = np.random.default_rng(0)
        gen.bit_generator.state = saved
        return gen


def smc_abc_likelihood(model: ModelSpec, theta, data, pert: PerturbationSpec,
                       n_particles: int, seed: int) -> LikelihoodEstimate:
    """Particle estimate of the ABC likelihood of ``data`` at ``theta``.

    The bootstrap filter with multinomial resampling at every step, run on
    the weighted state histogram (see the module docstring); the estimate
    is the product of the per-step mean weights.  This is the one-row case
    of :func:`smc_abc_likelihood_batch`.
    """
    theta = check_theta(model, theta)
    return _likelihood_batch(model, theta[None], data, pert, n_particles,
                             _StepStreams(seed))[0]


def smc_abc_likelihood_batch(model: ModelSpec, thetas, data,
                             pert: PerturbationSpec, n_particles: int,
                             seed: int) -> list[LikelihoodEstimate]:
    """Particle estimates of the ABC likelihood of ``data`` at every row of
    ``thetas`` (G, d), in one loop over time steps.

    Each step takes its streams once and every candidate uses the same
    draws (see the module docstring), so entry g equals the single-theta
    run at ``thetas[g]`` bit for bit.  Candidates are filtered in chunks
    that keep each step's (rows, N) temporaries near 8 MB.
    """
    return _likelihood_batch(model, thetas, data, pert, n_particles,
                             _StepStreams(seed))


def _likelihood_batch(model: ModelSpec, thetas, data, pert: PerturbationSpec,
                      n_particles: int,
                      streams: _StepStreams) -> list[LikelihoodEstimate]:
    """:func:`smc_abc_likelihood_batch` on the step streams of ``streams``,
    which may have served earlier calls with the same seed."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError("thetas must be a (G, d) array with G >= 1, "
                         f"got shape {thetas.shape}")
    thetas = np.stack([check_theta(model, th) for th in thetas])
    check_count("n_particles", n_particles, 1)
    n_particles = int(n_particles)
    if not pert.epsilon > 0.0:
        raise ValueError("the particle estimator needs epsilon > 0, got "
                         f"{pert.epsilon}")
    obs = _observations(data)
    if obs.shape[0] < 1:
        raise ValueError("data must contain at least one observation")
    if obs.ndim != 2 or obs.shape[1] != model.obs_dim:
        raise ValueError(f"model {model.name!r} emits {model.obs_dim}-D "
                         f"observations, got data of shape {obs.shape}")
    rows = max(1, _CHUNK_ELEMENTS // n_particles)
    return [est for i in range(0, thetas.shape[0], rows)
            for est in _filter(model, thetas[i:i + rows], obs, pert,
                               n_particles, streams)]


def _filter(model: ModelSpec, thetas: np.ndarray, obs: np.ndarray,
            pert: PerturbationSpec, n_particles: int,
            streams: _StepStreams) -> list[LikelihoodEstimate]:
    """The batched filter on validated inputs.  Collapsed rows leave the
    live set; every per-row reduction sees the same row of values, in the
    same order, as a one-row run."""
    eps = pert.epsilon
    n = obs.shape[0]
    g_all = thetas.shape[0]
    p = np.stack([np.asarray(model.transition_matrix(th), dtype=float)
                  for th in thetas])
    q = np.stack([np.asarray(model.initial_dist(th), dtype=float)
                  for th in thetas])
    n_states = q.shape[1]
    cap = GAUSS_SUP ** model.obs_dim if pert.kernel == "gaussian" else 1.0

    step_acceptance = np.zeros((g_all, n))
    ess_trace = np.zeros((g_all, n))
    log_value = np.zeros(g_all)
    var_log = np.zeros(g_all)
    collapsed_at = [None] * g_all

    live = np.arange(g_all)
    uniform = pert.kernel == "uniform"
    # per-step scratch for the pseudo-observations' distance to the data
    scratch = np.empty(g_all * n_particles * model.obs_dim)
    offsets = np.arange(g_all)[:, None] * n_states

    for k in range(n):
        m = live.size
        pred = (q[:, None, :] @ p)[:, 0]
        states = sample_categorical_rows(pred, streams("prop", k),
                                         size=n_particles)
        diff = np.subtract(
            sample_observations(model, thetas, states,
                                streams("obsdraw", k)),
            obs[k], out=scratch[:m * n_particles * model.obs_dim].reshape(
                m, n_particles, model.obs_dim))
        # the uniform kernel's weights stay booleans and its sums counts
        w = within_ball(diff, eps, pert.norm) if uniform \
            else smooth_weight(diff, eps)
        total = w.sum(axis=1)

        # sum / N is what mean does, without its per-call overhead
        step_val = total / n_particles
        step_acceptance[live, k] = step_val
        dead = step_val <= 0.0
        if dead.any():
            for g in live[dead]:
                collapsed_at[g] = k
                log_value[g] = -math.inf
            keep = ~dead
            live, thetas, p = live[keep], thetas[keep], p[keep]
            step_val, states, w, total = (step_val[keep], states[keep],
                                          w[keep], total[keep])
            m = live.size
            if m == 0:
                break

        # crude delta-method variance proxy, treating steps as independent;
        # 0/1 weights square to themselves, so the uniform kernel's second
        # moment is step_val.  Dividing twice by step_val (no square) keeps
        # a tiny step_val from underflowing to a zero denominator, at worst
        # giving inf
        second = step_val if uniform else (w * w).sum(axis=1) / n_particles
        var_log[live] += np.maximum(second / step_val / step_val - 1.0,
                                    0.0) / n_particles

        # the normalised weights are w / (N * step_val); a 0/1 weight's
        # square is the square of that denominator's reciprocal or 0
        scale = n_particles * step_val
        if uniform:
            ess_trace[live, k] = 1.0 / (
                w * ((1.0 / scale) ** 2)[:, None]).sum(axis=1)
        else:
            ess_trace[live, k] = 1.0 / (
                (w / scale[:, None]) ** 2).sum(axis=1)
        log_value[live] += [math.log(v) for v in step_val.tolist()]

        # the next predictive law: each state's share of the weight
        if uniform:
            # accepted counts per state; the last state takes the rest
            q = np.empty((m, n_states))
            q[:, -1] = total
            for j in range(n_states - 1):
                q[:, j] = (w & (states == j)).sum(axis=1)
                q[:, -1] -= q[:, j]
            q /= total[:, None]
        else:
            states += offsets[:m]        # flat (row, state) bins
            q = np.bincount(states.ravel(), weights=w.ravel(),
                            minlength=m * n_states).reshape(m, n_states) \
                / total[:, None]

    out = []
    for g in range(g_all):
        if collapsed_at[g] is None and np.any(
                step_acceptance[g] > cap * (1 + 1e-12)):
            raise AssertionError("step acceptance exceeded its kernel bound")
        out.append(LikelihoodEstimate(
            log_value=float(log_value[g]),
            step_acceptance=step_acceptance[g],
            ess_trace=ess_trace[g],
            collapsed_at=collapsed_at[g],
            n=n,
            n_particles=n_particles,
            epsilon=float(eps),
            seed=int(streams.seed),
            se_proxy=math.inf if collapsed_at[g] is not None
            else math.sqrt(var_log[g]),
        ))
    return out
