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
* Under the uniform kernel every weight is 0 or 1, so the filter works
  on integer counts: the accepted count gives the step's factor, the
  second moment equals the factor (0/1 weights square to themselves), and
  the next predictive law is each state's accepted count over the total.
  The counts are exact, so the values are those of the same sums over
  0.0/1.0 floats, bit for bit.  The ESS ``(sum w)**2 / sum w**2`` is the
  accepted count itself, exact; the gaussian kernel's is the reciprocal of
  the sum of the squared normalised weights.  Each step's accepted counts
  are recorded once, and ``step_acceptance`` and ``ess_trace`` are taken
  from them after the loop.
* Each filter call (one chunk of a batch, see below) keeps its per-step
  arrays in buffers made once.  The state draw goes into one (rows, N)
  buffer, which ``obs_sampler`` reads through a read-only view.  Under the
  uniform kernel, one boolean (K, rows, N) buffer holds the kernel's
  weights in plane 0, written in place by ``within_ball``, and in plane
  j + 1 the draws above state j (``u > cum_j``, which the state draw
  leaves there) and-ed with the weights.  One sum over that buffer's bytes,
  in the narrowest unsigned type that holds N, counts every plane per row:
  the accepted particles, and those above each state, whose differences
  are the per-state counts.  A row collapses when its count is 0.
* A step where every weight vanishes collapses the estimate: ``log_value``
  is -inf, ``collapsed_at`` records the 0-based step, and the remaining
  entries of ``step_acceptance`` / ``ess_trace`` stay 0.
* All randomness is derived from ``seed`` through per-step tagged streams
  (``"prop"`` for the uniforms the state draw inverts, ``"obsdraw"`` for
  the pseudo-observations' noise), so estimates are reproducible
  bit-for-bit and independent of scheduling.  The first pass that reaches
  a step derives its two streams and draws from them.  A particle fit
  whose optimizer evaluates more than once (see ``estimate``) keeps the
  arrays of that first pass, read-only, up to a fixed budget, and every
  later pass reads them without drawing at all: each step is drawn once.
  Otherwise the first pass saves the streams' fresh generator states, and
  the second pass (another chunk of the batch) restores them, which
  gives the same draws for about a tenth of the cost of a derivation, and
  keeps its arrays for the later passes.  A step past the budget is always
  drawn again from its saved states.  One pass over the steps, as in a
  single-chunk public call below or a single-chunk grid fit, keeps no
  arrays.
* The filter's running sums per row (log value, variance proxy) are taken
  after the loop over steps, in step order: ``math.log`` of each step's
  factor and a sequential cumulative sum, the same bits as summing step
  by step.

Batching over candidate parameters.  Neither stream depends on theta: the
state draw inverts each particle's predictive CDF at a uniform from
``("prop", k)``, and ``ModelSpec.obs_noise`` draws the noise from
``("obsdraw", k)``, which ``ModelSpec.obs_sampler`` transforms by theta and
the states.  So :func:`smc_abc_likelihood_batch` runs G candidates in one
loop over time steps: each step takes its draws once, every candidate
inverts its own CDF at the same N uniforms, and one ``obs_sampler`` call
on (G, d) thetas serves them all.  The candidates' common random numbers
(Malik & Pitt, "Particle filters for continuous likelihood evaluation and
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
from .models import ModelSpec, PerturbationSpec, check_count, check_seed, \
    check_theta, check_thetas, draw_noise, laws, sample_categorical_rows, \
    sample_observations
from .sampling import as_observations


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


# entries of one (rows, N) step temporary in a chunk: 8 MB of float64
_CHUNK_ELEMENTS = 1 << 20
# bytes of step draws one table may keep
_REPLAY_BYTES = 1 << 25


class _StepStreams:
    """Each filter step's theta-free draws for one seed: the N uniforms the
    state draw inverts and the ``obs_noise`` draw of size N.

    The first pass that reaches step k derives ``rng.stream(seed, "prop",
    k)`` and ``rng.stream(seed, "obsdraw", k)`` and draws from them.  The
    table keeps the arrays of one pass, as rows of one block per kind with
    room for as many steps as the data has or ``_REPLAY_BYTES`` holds, and
    later passes take them as they are.  With ``keep_first`` (a fit whose
    optimizer calls the objective more than once) it keeps the first pass's
    arrays, so every step is drawn once; without it, the second pass's, so
    that a single pass keeps nothing.  A step whose arrays are not kept
    has its fresh generator states saved instead: a later pass restores
    them into two reused generators, which then draw exactly what fresh
    derivations would, for about a tenth of the cost.  The table fills as
    passes reach the steps, so a pass that collapses early leaves the later
    steps to the first pass that gets there.  Every array handed out is
    read-only.  A table serves one model and one particle count, for one
    call of the public functions below or for one particle fit.  The seed
    must be an integer (``check_seed``), so the one every estimate records
    reproduces it.
    """

    def __init__(self, seed: int, keep_first: bool = False):
        check_seed(seed)
        self.seed = seed
        self.keep_first = keep_first
        self._saved = {}        # k -> the fresh generators' states
        self._kept = {}         # k -> (uniforms, noise), rows of _rows
        self.kept_bytes = 0
        self._rows = None       # the (slots, N) uniforms and noise arrays
        self._reused = None     # the generators the states go into

    def _room(self) -> bool:
        return self._rows is not None and len(self._kept) < len(self._rows[0])

    def draws(self, model: ModelSpec, k: int, n_steps: int,
              n_particles: int):
        """Step k of ``n_steps``: its ``(uniforms, noise)``, each with N
        entries."""
        kept = self._kept.get(k)
        if kept is not None:
            return kept
        saved = self._saved.get(k)
        # this pass keeps what it draws, if there is room
        keeps = saved is not None or self.keep_first
        if saved is None:
            prop = rngmod.stream(self.seed, "prop", k)
            obs = rngmod.stream(self.seed, "obsdraw", k)
            # saved unless this pass will keep the arrays, which is not
            # known before the block exists
            if not (keeps and self._room()):
                self._saved[k] = (prop.bit_generator.state,
                                  obs.bit_generator.state)
        else:
            if self._reused is None:
                # the same kind of bit generator as rng.stream's; their
                # seeds are overwritten by every restore
                self._reused = (np.random.default_rng(0),
                                np.random.default_rng(0))
            prop, obs = self._reused
            prop.bit_generator.state, obs.bit_generator.state = saved
        u = prop.random(n_particles)
        u.flags.writeable = False
        noise = draw_noise(model, obs, n_particles)
        if not keeps:
            return u, noise
        if self._rows is None:
            # two blocks, so that no kept array sits among the filter's
            # temporaries and fragments the heap
            slots = min(n_steps, _REPLAY_BYTES // (u.nbytes + noise.nbytes))
            self._rows = (np.empty((slots,) + u.shape),
                          np.empty((slots,) + noise.shape, noise.dtype))
        if not self._room():
            return u, noise
        i = len(self._kept)
        self._rows[0][i] = u
        self._rows[1][i] = noise
        u, noise = self._rows[0][i], self._rows[1][i]
        u.flags.writeable = noise.flags.writeable = False
        self._kept[k] = u, noise
        self.kept_bytes += u.nbytes + noise.nbytes
        self._saved.pop(k, None)
        return u, noise


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
    which may have served earlier calls with the same seed.  The batch and
    the series pass the exact grid's gates, so bad input reads the same."""
    thetas = check_thetas(model, thetas)
    check_count("n_particles", n_particles, 1)
    n_particles = int(n_particles)
    if not pert.epsilon > 0.0:
        raise ValueError("the particle estimator needs epsilon > 0, got "
                         f"{pert.epsilon}")
    obs = as_observations(data, model.obs_dim)
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
    p, q = laws(model, thetas)
    n_states = q.shape[1]
    cap = GAUSS_SUP ** model.obs_dim if pert.kernel == "gaussian" else 1.0
    uniform = pert.kernel == "uniform"

    collapsed_at = [None] * g_all
    live = np.arange(g_all)
    # per-chunk buffers for each step's state draw and the pseudo-
    # observations' distance to the data
    state_buf = np.empty((g_all, n_particles), dtype=np.int64)
    scratch = np.empty((g_all, n_particles, model.obs_dim))
    if uniform:
        # per row and step, the accepted count
        accepted = np.zeros((g_all, n), dtype=np.int64)
        # plane 0 holds the kernel's 0/1 weights, plane j + 1 the accepted
        # particles drawn above state j; one sum over their bytes, in the
        # narrowest unsigned type that holds N, counts all of them
        bits = np.empty((n_states, g_all, n_particles), dtype=bool)
        count_type = np.min_scalar_type(n_particles)
    else:
        # per row and step: the mean weight, the mean squared weight and
        # the sum of the squared normalised weights, the ESS's reciprocal
        step_acceptance = np.zeros((g_all, n))
        second = np.zeros((g_all, n))
        ess_trace = np.zeros((g_all, n))
        offsets = np.arange(g_all)[:, None] * n_states

    for k in range(n):
        m = live.size
        pred = (q[:, None, :] @ p)[:, 0]
        u, noise = streams.draws(model, k, n, n_particles)
        above = bits[1:, :m] if uniform else None
        states = sample_categorical_rows(pred, u, out=state_buf[:m],
                                         above=above)
        diff = np.subtract(sample_observations(model, thetas, states, noise),
                           obs[k], out=scratch[:m])
        if uniform:
            w = within_ball(diff, eps, pert.norm, out=bits[0, :m])
            np.logical_and(above, w, out=above)
            # per row: the accepted count, then the accepted particles
            # above each state
            counts = np.add.reduce(bits[:, :m].view(np.uint8), axis=2,
                                   dtype=count_type)
            accepted[live, k] = total = counts[0]
            # one call in the common case, where no row collapses
            dead = None if total.all() else total == 0
        else:
            w = smooth_weight(diff, eps)
            total = w.sum(axis=1)
            # sum / N is what mean does, without its per-call overhead
            step_val = total / n_particles
            step_acceptance[live, k] = step_val
            dead = step_val <= 0.0
            if not dead.any():
                dead = None
        if dead is not None:
            for g in live[dead]:
                collapsed_at[g] = k
            keep = ~dead
            live, thetas, p = live[keep], thetas[keep], p[keep]
            m = live.size
            if m == 0:
                break
            if uniform:
                counts, total = counts[:, keep], total[keep]
            else:
                step_val, states, w, total = (step_val[keep], states[keep],
                                              w[keep], total[keep])

        if uniform:
            # the accepted particles above state j - 1 but not above state
            # j are in state j
            per_state = counts.copy()
            per_state[:-1] -= counts[1:]
            q = per_state.T / total[:, None]
        else:
            second[live, k] = (w * w).sum(axis=1) / n_particles
            # the normalised weights are w / (N * step_val)
            scale = n_particles * step_val
            ess_trace[live, k] = ((w / scale[:, None]) ** 2).sum(axis=1)
            # each state's share of the weight
            states += offsets[:m]        # flat (row, state) bins
            q = np.bincount(states.ravel(), weights=w.ravel(),
                            minlength=m * n_states).reshape(m, n_states) \
                / total[:, None]

    if uniform:
        # 0/1 weights: the mean weight is the accepted share, the mean
        # squared weight equals it, and the ESS (sum w)**2 / sum w**2 is
        # the accepted count itself
        step_acceptance = second = accepted / n_particles
        ess_trace = accepted.astype(float)
    else:
        reached = np.arange(n) < np.array(
            [n if c is None else c for c in collapsed_at])[:, None]
        np.divide(1.0, ess_trace, out=ess_trace, where=reached)
    out = []
    for g in range(g_all):
        if collapsed_at[g] is None:
            if np.any(step_acceptance[g] > cap * (1 + 1e-12)):
                raise AssertionError(
                    "step acceptance exceeded its kernel bound")
            log_value = np.cumsum(
                [math.log(v) for v in step_acceptance[g].tolist()])[-1]
            # crude delta-method variance proxy, treating steps as
            # independent.  Dividing twice by the factor (no square) keeps
            # a tiny one from underflowing to a zero denominator, at worst
            # giving inf
            se_proxy = math.sqrt(np.cumsum(np.maximum(
                second[g] / step_acceptance[g] / step_acceptance[g] - 1.0,
                0.0) / n_particles)[-1])
        else:
            log_value, se_proxy = -math.inf, math.inf
        out.append(LikelihoodEstimate(
            log_value=float(log_value),
            step_acceptance=step_acceptance[g],
            ess_trace=ess_trace[g],
            collapsed_at=collapsed_at[g],
            n=n,
            n_particles=n_particles,
            epsilon=float(eps),
            seed=int(streams.seed),
            se_proxy=se_proxy,
        ))
    return out
