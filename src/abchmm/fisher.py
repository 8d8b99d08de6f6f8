"""Fisher information of exact and perturbed models, and what the
perturbation destroys.

``estimate_fisher`` is the plain simulation estimator: simulate replicate
series at theta (from the perturbed model when a perturbation is given),
compute exact scores by sensitivity propagation, and average
``score score^T / n`` across replicates.

``loss_point`` estimates the information lost to the perturbation,
``I - I_eps``, at one tolerance (the ``info_loss`` experiment preset sweeps
it over tolerances and fits the log-log slope).  Differencing two independent
``estimate_fisher`` outputs cannot resolve the loss at small tolerances (the
loss scales like eps^2 while the difference's noise floor does not), so the
loss is estimated directly from coupled data: simulate one series, build its
noisified twin from the same draws, and form the difference of the scores of
two mixed sequences that disagree only in whether the centre observation is
the clean or the noisy one (each mixed score conditions on the clean past
and noisy future inside a window long enough for filter forgetting to make
the truncation negligible).  Averaging the outer product of that score
difference is a positive-semidefinite, low-variance estimator of the
per-observation information gap -- the conditional missing-information
decomposition made computable.  ``missing_information_check`` validates the
identity behind it on a short horizon, where both routes (direct difference
of full-sequence score outer products, and the summed conditional
differences) are computed from independent replicates and must agree.

The replicate series come from the chain simulator behind
:func:`abchmm.sampling.simulate`, whose sampler temporaries are one chunk of
the batch, and their noisy twins are written into the perturbation's own
draw; so a task's peak is the three batch-sized arrays it holds while it
simulates (the hidden paths, the noise and the observations).  The scores
come from one pass over time in :mod:`abchmm.oracle`: ``boundary_scores``
for the mixed sequences, all the boundaries of one replicate batch at once,
sharing their clean prefix, and ``forward_score_batch``, its one-boundary
case, for whole series in one channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .models import ModelSpec, PerturbationSpec, check_count, check_seed, \
    check_theta
from .oracle import boundary_scores, forward_score_batch
from .sampling import _simulate_series

Array = np.ndarray


@dataclass
class FisherEstimate:
    """Monte Carlo estimate of a (per-observation) Fisher information matrix."""

    matrix: Array           # (d, d)
    se: Array               # (d, d) entrywise standard errors
    n: int
    n_replicates: int
    epsilon: float | None
    seed: int

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass
class LossPoint:
    epsilon: float
    loss: Array             # (d, d) estimate of I - I_eps
    se: Array               # (d, d)
    n_replicates: int

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.loss))

    @property
    def frobenius_se(self) -> float:
        m = np.linalg.norm(self.loss)
        if m == 0.0:
            return float(np.linalg.norm(self.se))
        return float(np.sqrt(np.sum((self.loss / m) ** 2 * self.se ** 2)))


@dataclass
class MissingInfoCheck:
    conditional: Array      # route A: summed conditional score differences
    conditional_se: Array
    direct: Array           # route B: difference of score outer products
    direct_se: Array
    fisher_exact: Array     # mean exact-score outer product from route B
    epsilon: float
    n: int
    n_replicates: int

    @property
    def discrepancy(self) -> Array:
        return self.conditional - self.direct

    @property
    def combined_se(self) -> Array:
        return np.sqrt(self.conditional_se ** 2 + self.direct_se ** 2)


# ---------------------------------------------------------------------------
# helpers


def loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of ``log ys`` on ``log xs``; None below two points.

    ``ys`` is floored at 1e-300 so a zero entry gives a finite, very negative
    log instead of -inf.
    """
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    if xs.size < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def _replicates(model: ModelSpec, theta: Array, reps: int, n: int,
                seed: int) -> Array:
    """Clean observations (reps, n) of ``reps`` series simulated at theta."""
    obs = _simulate_series(model, theta, reps, n, rngmod.stream(seed, "paths"),
                           rngmod.stream(seed, "obs"))[1]
    return obs[:, :, 0]


def _coupled_obs(y: Array, pert: PerturbationSpec | None, seed: int) -> Array:
    """The noisy twins of clean observations ``y`` (R, n) under ``pert``;
    ``y`` itself when there is no perturbation.  The twins are written into
    the noise draw itself, so coupling allocates one array of y's size."""
    if pert is None or pert.is_exact:
        return y
    z = pert.noise(1, y.size, rngmod.stream(seed, "pertnoise")).reshape(y.shape)
    return np.add(y, z, out=z)


def _outer_mean_se(samples: Array):
    """(R, d) vectors -> mean outer product (d, d) and entrywise SEs."""
    outers = samples[:, :, None] * samples[:, None, :]
    mean = outers.mean(axis=0)
    se = outers.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    return mean, se


# ---------------------------------------------------------------------------
# public estimators


def estimate_fisher(model: ModelSpec, theta, *, n: int, n_replicates: int,
                    seed: int, pert: PerturbationSpec | None = None) -> FisherEstimate:
    """Average ``score score^T / n`` over simulated replicates.

    With a perturbation the replicates come from the perturbed model and the
    scores are computed under it; at ``epsilon == 0`` this reduces exactly to
    the unperturbed computation (same streams, same values).
    """
    theta = check_theta(model, theta)
    check_count("n", n, 1)
    check_count("n_replicates", n_replicates, 2)
    check_seed(seed)
    y = _coupled_obs(_replicates(model, theta, n_replicates, n, seed), pert,
                     seed)
    _, scores = forward_score_batch(model, theta, y, pert=pert)
    per_rep = scores / math.sqrt(n)
    matrix, se = _outer_mean_se(per_rep)
    matrix = 0.5 * (matrix + matrix.T)
    return FisherEstimate(matrix=matrix, se=se, n=n,
                          n_replicates=n_replicates,
                          epsilon=None if pert is None else float(pert.epsilon),
                          seed=int(seed))


def _conditional_score_diffs(model: ModelSpec, theta: Array,
                             pert: PerturbationSpec, reps: int, length: int,
                             boundaries, seed: int):
    """Mixed-sequence scores across clean/noisy boundaries.

    A boundary ``b`` scores the sequence whose first ``b`` slots hold clean
    observations (exact channel) and the rest their coupled noisy twins
    (perturbed channel).  All boundaries share one simulated batch and one
    pass over time: :func:`abchmm.oracle.boundary_scores` runs the clean
    prefix once and branches a noisy copy off it at each boundary.  Returns
    ``{b: scores (R, d)}``.
    """
    y = _replicates(model, theta, reps, length, seed)
    return boundary_scores(model, theta, pert, y, _coupled_obs(y, pert, seed),
                           boundaries)


def loss_point(model: ModelSpec, theta, epsilon: float, *, window: int = 32,
               n_replicates: int = 4000, seed: int = 0,
               kernel: str = "uniform") -> LossPoint:
    """Coupled estimate of ``I - I_eps`` at a single tolerance.

    The loss is the mean outer product of the conditional score difference
    (mean zero by construction) at the centre of a ``2*window + 1`` window;
    see the module docstring for why this beats differencing two
    independent Fisher estimates at small tolerances.
    """
    theta = check_theta(model, theta)
    check_count("window", window, 0)
    check_count("n_replicates", n_replicates, 2)
    check_seed(seed)
    pert = PerturbationSpec(epsilon=epsilon, kernel=kernel)
    if not epsilon > 0:
        raise ValueError("tolerance must be positive")
    length = 2 * window + 1
    centre = window
    scores = _conditional_score_diffs(
        model, theta, pert, n_replicates, length,
        boundaries=(centre, centre + 1), seed=seed)
    delta = scores[centre + 1] - scores[centre]
    loss, se = _outer_mean_se(delta)
    loss = 0.5 * (loss + loss.T)
    return LossPoint(epsilon=float(epsilon), loss=loss, se=se,
                     n_replicates=n_replicates)


def missing_information_check(model: ModelSpec, theta, epsilon: float, *,
                              n: int = 8, n_replicates: int = 20000,
                              seed: int = 0,
                              kernel: str = "uniform") -> MissingInfoCheck:
    """Two independent estimates of ``I_n - I_n^eps`` on a short horizon.

    Route A sums conditional score-difference outer products over every
    position (full conditioning -- no window truncation is needed at this
    horizon).  Route B, from an independent replicate batch, differences the
    full-sequence score outer products of the coupled clean/noisy series.
    The two must agree within Monte Carlo error; their telescoping identity
    is exact at any horizon under stationary initialization.
    """
    theta = check_theta(model, theta)
    check_count("n", n, 1)
    check_count("n_replicates", n_replicates, 2)
    if n > 8:
        raise ValueError(f"short-horizon check requires n <= 8, got {n}")
    if model.n_states > 3:
        raise ValueError("short-horizon check requires at most 3 states")
    check_seed(seed)
    pert = PerturbationSpec(epsilon=epsilon, kernel=kernel)

    # route A: conditional differences, boundaries 0..n
    scores = _conditional_score_diffs(
        model, theta, pert, n_replicates, n, boundaries=range(n + 1),
        seed=rngmod.derive_seed(seed, "route-a"))
    d = scores[0].shape[1]
    per_rep = np.zeros((n_replicates, d, d))
    for b in range(1, n + 1):
        delta = scores[b] - scores[b - 1]
        per_rep += delta[:, :, None] * delta[:, None, :]
    per_rep /= n
    cond = per_rep.mean(axis=0)
    cond_se = per_rep.std(axis=0, ddof=1) / math.sqrt(n_replicates)

    # route B: direct coupled difference, independent batch
    scores_b = _conditional_score_diffs(
        model, theta, pert, n_replicates, n, boundaries=(0, n),
        seed=rngmod.derive_seed(seed, "route-b"))
    s_clean, s_noisy = scores_b[n], scores_b[0]
    outer_clean = s_clean[:, :, None] * s_clean[:, None, :]
    outer_noisy = s_noisy[:, :, None] * s_noisy[:, None, :]
    diff = (outer_clean - outer_noisy) / n
    direct = diff.mean(axis=0)
    direct_se = diff.std(axis=0, ddof=1) / math.sqrt(n_replicates)
    fisher_exact = outer_clean.mean(axis=0) / n

    return MissingInfoCheck(
        conditional=0.5 * (cond + cond.T), conditional_se=cond_se,
        direct=0.5 * (direct + direct.T), direct_se=direct_se,
        fisher_exact=fisher_exact, epsilon=float(epsilon), n=n,
        n_replicates=n_replicates)
