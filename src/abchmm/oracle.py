"""Exact likelihood computations for tractable finite-state models.

The workhorse is the forward log-likelihood, taken as a log-depth product
reduction: the likelihood is a product of one matrix ``P·diag(e_t)`` per
step.  The matrices are held state-major, as (K, K, G, L) planes with the
step axis last, so each level multiplies adjacent pairs with K broadcast
multiplies and K - 1 adds over long vectors, and exact power-of-two
rescaling, every second level, keeps a series of length 10^6 stable.  It
is batched over a whole grid of parameter candidates; the time blocks are
set by n and K alone and the rows run in chunks of bounded memory, so
every row of a grid call equals its one-row call bit for bit.  Two
recursions still loop over time steps: ``forward_filter``, which returns
every filter and restarts after a dead step, and one per-step kernel,
private to this module, that carries the filter together with its
derivatives in theta.  One pass drives it for every score of a batch of
replicate series: :func:`boundary_scores` scores the mixed clean/noisy
sequences of :mod:`abchmm.fisher`, every boundary at once, sharing the
clean prefix, and :func:`forward_score_batch`, with every step in one
emission channel, is its one-boundary case.  Without derivatives the
kernel gives the log-likelihood under a transition matrix with zeros, or
with a column ratio past ``_MAX_COLUMN_RATIO``, that would let the
reduction lose a row to underflow.

The kernel runs time-major, with the replicate rows on the last axes: its
state is (1+d, K, *rows) and its inputs are (L, K, *rows) weights and an
(L, d, K, *rows) Jacobian for a run of L steps, so each step is a few
multiply-adds over long contiguous row vectors.  The score functions feed
it the weights one block of whole steps at a time, each computed, run
through and dropped before the next, so memory grows with the batch width
and never with n: no array holds the weights or the Jacobian of the whole
batch.  Two invariants hold.  Rows do not depend on the batch width: every
operation acts on each row alone (the prediction through P is elementwise
multiply-adds over the states in a fixed order, never a BLAS product), so a
row of a wide batch equals the one-row call bit for bit.  And scaling is
exact: each step multiplies by a power of two, by ``ldexp`` when the filter
sum is subnormal and the factor itself would overflow.

Perturbed quantities: passing a :class:`PerturbationSpec` makes each
emission weight the kernel weight the particle estimator in :mod:`abchmm.smc`
averages -- the probability that the state's observation lands in the
epsilon-ball around the data (uniform kernel), or epsilon times the
epsilon-smoothed density (gaussian kernel).  The recursion runs on that
ball-probability scale, so ``exact_smc_target`` is its own output and an
all-accept series gives exactly 0.0.  The likelihood-scale functions
(``forward_loglik``, ``forward_loglik_grid``, ``forward_filter`` increments,
the log-likelihood of ``forward_score_batch`` and ``brute_force_loglik``)
subtract ``log_weight_scale`` once per perturbed step, which gives the
log-likelihood of the perturbed model with its normalized densities.

``forward_score`` propagates filter derivatives alongside the filter (exact
sensitivity recursion), never differencing the log-likelihood itself; finite
differences of ``forward_loglik`` therefore remain an independent check.

Input passes the particle estimator's gates (``check_theta``,
``check_thetas``, :func:`as_obs_1d`), the laws come from ``models.laws``,
and weights from any source enter at ``_forward_batch(*laws(model,
thetas), weights)`` or, with their Jacobian, through
``_emissions_and_jac``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, PerturbationSpec, check_count, check_theta, \
    check_thetas, is_law, laws
from .sampling import as_observations, check_finite_obs

Array = np.ndarray


# ---------------------------------------------------------------------------
# observation plumbing


def as_obs_1d(data) -> Array:
    """The 1-D case of :func:`abchmm.sampling.as_observations`, as (n,)."""
    return as_observations(data, 1)[:, 0]


def _emission_fns(model: ModelSpec, pert: PerturbationSpec | None):
    """The model's ``(theta, ys) -> (n, K)`` emission weight callable for
    ``pert`` and its ``(theta, ys) -> (weights, (d, n, K) Jacobian)`` pair,
    with ``eps`` bound; None where the model lacks the closed form."""
    if pert is None or pert.is_exact:
        return model.emission_density, model.emission_density_jac
    if model.obs_dim != 1:
        return None, None
    name = "emission_ball_prob" if pert.kernel == "uniform" \
        else "emission_smooth_weight"
    return tuple(None if f is None else functools.partial(f, eps=pert.epsilon)
                 for f in (getattr(model, name), getattr(model, name + "_jac")))


def has_closed_form(model: ModelSpec, pert: PerturbationSpec | None = None) -> bool:
    """True when :func:`emission_matrix` can evaluate ``model`` under ``pert``."""
    return _emission_fns(model, pert)[0] is not None


def emission_matrix(model: ModelSpec, theta, ys: Array,
                    pert: PerturbationSpec | None = None) -> Array:
    """Per-step emission weights, one column per state: shape (n, K).

    Without a perturbation these are emission densities.  Under ``pert``
    they are the kernel weights the particle filter averages, as the model
    returns them: ``emission_ball_prob(theta, ys, eps=eps)`` for the
    uniform kernel and ``emission_smooth_weight(theta, ys, eps=eps)`` for
    the gaussian kernel.
    """
    theta = check_theta(model, theta)
    fn = _emission_fns(model, pert)[0]
    if fn is None:
        raise ValueError(f"model {model.name!r} has no closed-form emission "
                         f"weights under perturbation {pert}")
    return fn(theta, ys)


def log_weight_scale(model: ModelSpec, pert: PerturbationSpec | None) -> float:
    """Per-observation log factor between the kernel weights of
    :func:`emission_matrix` and the normalized perturbed densities."""
    if pert is None or pert.is_exact:
        return 0.0
    if pert.kernel == "uniform":
        return pert.log_ball_volume(model.obs_dim)
    # gaussian kernel weight pdf((yhat-y)/eps) = eps^m * (density of the
    # eps-convolution), per coordinate
    return model.obs_dim * math.log(pert.epsilon)


# ---------------------------------------------------------------------------
# forward recursions (batched)


def _rescale(m: Array) -> Array:
    """Divide each matrix of the state-major planes ``m`` (K, K, G, L), in
    place, by the power of two that puts its largest row sum in [1, 2);
    return the exponents summed over L (G,).  The row sums add the states
    one after another, so each matrix gets the same exponent whatever else
    the planes hold.  A power of two divides exactly, so an all-zero matrix
    stays zero and a product that is exactly one stays exactly one."""
    rows = _state_sum(m.swapaxes(0, 1))
    top = rows[0]
    for row in rows[1:]:
        np.maximum(top, row, out=top)
    neg = np.frexp(top)[1]
    np.subtract(1, neg, out=neg)
    np.ldexp(m, neg, out=m)
    return -neg.sum(axis=-1)


def _plane_product(a: Array, b: Array) -> Array:
    """Matrix products ``a @ b`` of state-major planes (K, K, ...): K
    broadcast multiplies, added over the inner state in the order
    0..K-1."""
    out = a[:, :1] * b[:1]
    for i in range(1, a.shape[0]):
        out += a[:, i:i + 1] * b[i:i + 1]
    return out


# Most entries the step matrices of one time block hold: a series runs in
# time blocks of _BLOCK_ENTRIES // K² - 1 steps (at least one), and the rows
# of a batch in chunks of as many as fit one block, which bounds the
# reduction's memory for every n and G.
_BLOCK_ENTRIES = 1 << 16

# Largest ratio between two entries of one column of P that the reduction
# accepts (see _forward_batch); past it, the batch runs one step at a time.
_MAX_COLUMN_RATIO = 2.0 ** 64


def _column_ratio(p: Array) -> float:
    """Largest ratio between two entries of one column of any P (G, K, K);
    inf where a column holds both zero and nonzero entries."""
    hi, lo = p.max(axis=-2), p.min(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(hi > 0.0, hi / lo, 1.0).max())


def _forward_tree(p: Array, init: Array, emis: Array) -> Array:
    """:func:`_forward_batch` as a product reduction over time blocks.

    The step matrices are held state-major, as (K, K, G, L) planes with
    the step axis last, so every operation is a multiply or an add over
    long vectors of one entry of many matrices.  Each block's sequence
    starts with a matrix whose rows all equal the row carried from the
    previous block (``init`` for the first), then holds one ``P·diag(e_t)``
    per step.  Each level multiplies adjacent pairs (:func:`_plane_product`),
    after multiplying an odd last matrix into its left neighbour, so L
    steps take ceil(log2(L + 1)) levels and leave one matrix whose rows all
    hold the carried row.  Every matrix is rescaled by an exact power of
    two (:func:`_rescale`) before the first level, after every second level
    and after the block's last one, and the integer exponents are summed.
    A power of two scales the products exactly, so skipping the rescale
    of the odd levels changes no bit (see :func:`_forward_batch`) and
    nearly halves the rescale calls (7 instead of 12 for 11 levels); the
    last rescale puts the carried row's sum in [1, 2), as a rescale after
    every level would.

    The block boundaries depend on n and K alone, and the rows run in
    chunks within ``_BLOCK_ENTRIES``.  Every operation acts on each row
    alone, so a row of a G-row call equals its one-row call bit for bit.
    ``emis`` (G, n, K) may be in any memory order; a state-major one (the
    transpose of a (K, G, n) array) is read contiguously.
    """
    g, n, k = emis.shape
    e = np.moveaxis(emis, -1, 0)                          # (K, G, n)
    pk = np.moveaxis(p, 0, -1)[..., None]                 # (K, K, G, 1)
    block = max(1, _BLOCK_ENTRIES // (k * k) - 1)
    chunk = max(1, _BLOCK_ENTRIES // (k * k * (min(block, n) + 1)))
    out = np.empty(g)
    for a in range(0, g, chunk):
        rows = slice(a, a + chunk)
        v = init[rows].T                                  # (K, rows)
        shift = np.zeros(v.shape[1], dtype=np.int64)
        for s in range(0, n, block):
            w = e[:, rows, s:s + block]
            m = np.empty((k, k, w.shape[1], w.shape[2] + 1))
            m[..., 0] = v
            np.multiply(pk[:, :, rows], w, out=m[..., 1:])
            shift += _rescale(m)
            level = 0
            while m.shape[-1] > 1:
                if m.shape[-1] % 2:
                    m[..., -2:-1] = _plane_product(m[..., -2:-1], m[..., -1:])
                    m = m[..., :-1]
                m = _plane_product(m[..., 0::2], m[..., 1::2])
                level += 1
                if level % 2 == 0 or m.shape[-1] == 1:
                    shift += _rescale(m)
            v = m[0, :, :, 0]
        with np.errstate(divide="ignore"):
            out[rows] = shift * math.log(2.0) + np.log(_state_sum(v))
    return out


def _forward_start(init: Array, dinit: Array, shape: tuple):
    """The carried state ``(v, shift)`` of rows ``shape`` before the first
    step: the initial law, (K,) or (*shape, K), and its derivatives (d, K),
    unscaled.

    ``v`` (1+d, K, *rows) holds the unnormalised filter row and its d
    tangent rows, its derivatives in theta (the tangent filter of Cappé,
    Moulines & Rydén, *Inference in Hidden Markov Models*, 2005, ch. 10);
    ``shift`` (*rows) is the integer log2 scale taken out of it so far.
    :func:`_forward_segment` advances the state through any run of steps,
    and :func:`_forward_finish` reads off the log-likelihood and score.
    With d = 0 the three are the plain scaled forward recursion.
    """
    d, k = dinit.shape
    v = np.empty((1 + d, k, *shape))
    v[0] = np.moveaxis(np.broadcast_to(init, (*shape, k)), -1, 0)
    v[1:] = dinit.reshape(d, k, *(1,) * len(shape))
    return v, np.zeros(shape, dtype=np.int64)


def _state_sum(x: Array) -> Array:
    """Sum of ``x`` (K, ...) over its first axis, one state after another:
    the same additions in the same order for every row."""
    total = x[0].copy()
    for xi in x[1:]:
        total += xi
    return total


def _forward_segment(p: Array, dp: Array, state, emis: Array, demis: Array):
    """Advance the carried state ``(v, shift)`` through the L steps of
    ``emis`` (L, K, *rows) and ``demis`` (L, d, K, *rows); return the new
    state.

    The layout is time-major with the rows last: each step's weights are
    one contiguous (K, *rows) block, broadcast against the (1+d, K, *rows)
    state, so every operation of a step is a multiply or an add over long
    row vectors.  ``p`` is (K, K), or (K, K, *rows) for one P per row;
    ``dp`` (d, K, K) is shared.

    Each step predicts through P and adds ``alpha · dP`` to the tangent
    rows, as elementwise multiply-adds over the states in the order
    i = 0..K-1 (not a matmul: a BLAS product may round one row differently
    at another batch width).  An all-zero dP, from a P that does not move
    with theta, skips those terms: adding ``alpha · 0`` changes no value
    (at most the sign of a zero tangent entry).  It applies the emission
    weights, adds ``pred · de_t`` to the tangent rows, and then multiplies
    the whole row by the power of two that puts its filter sum in [1, 2).
    Every operation acts on one row at a time, so a row's result does not
    depend on how many rows run beside it.  A power of two scales exactly,
    also when the filter sum is subnormal: the factor 2^-exp then
    overflows, and that step scales by ``ldexp`` instead.  The state passed
    in is left as it was.  A row whose filter dies stays zero.
    """
    v, shift = state
    k = v.shape[1]
    d = dp.shape[0]
    ones = (1,) * (v.ndim - 2)
    if p.ndim == 2:
        p = p.reshape(k, k, *ones)
    dp_rows = [dp[:, i].reshape(d, k, *ones) for i in range(k)] \
        if dp.any() else []
    v, shift = v.copy(), shift.copy()
    pred, term = np.empty_like(v), np.empty_like(v)
    # after a dead step the zero filter gets exponent -1 each step, so a dead
    # row's tangent rows may overflow; that row's score is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(emis.shape[0]):
            np.multiply(v[:, :1], p[0], out=pred)
            for i in range(1, k):
                np.multiply(v[:, i:i + 1], p[i], out=term)
                pred += term
            for i, dp_i in enumerate(dp_rows):
                np.multiply(v[0, i], dp_i, out=term[1:])
                pred[1:] += term[1:]
            np.multiply(pred, emis[t], out=v)
            np.multiply(pred[:1], demis[t], out=term[1:])
            v[1:] += term[1:]
            exp = np.frexp(_state_sum(v[0]))[1]
            exp -= 1
            if exp.min(initial=0) < -1023:
                np.ldexp(v, -exp, out=v)
            else:
                v *= np.ldexp(1.0, -exp)
            shift += exp
    return v, shift


def _forward_finish(state):
    """``(loglik (*rows), score (*rows, d))`` of the carried state; a dead
    row, of loglik -inf, gets a NaN score."""
    v, shift = state
    total = _state_sum(v[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = shift * math.log(2.0) + np.log(total)
        score = _state_sum(np.moveaxis(v[1:], 1, 0)) / total
    # rows-first in C order: callers' reductions over it then add in the
    # same order whatever the kernel's layout
    score = np.ascontiguousarray(np.moveaxis(score, 0, -1))
    score[~np.isfinite(ll)] = np.nan
    return ll, score


def _forward_batch(p: Array, init: Array, emis: Array) -> Array:
    """Forward log-likelihood of a batch as a log-depth product reduction.

    The likelihood is ``init · P·diag(e_1) · ... · P·diag(e_n) · 1``, and
    matrix products are associative (Hassan, Särkkä & García-Fernández,
    "Temporal parallelization of inference in hidden Markov models", 2021),
    so :func:`_forward_tree` takes it in log2 levels per time block.  A
    series with a zero-probability step ends in an all-zero row, which
    gives -inf.

    The tree rescales each matrix, by a power of two, to a largest row sum
    in [1, 2) before its first level, after every second level and after
    a block's last one.  So each product it forms has at most u = 7
    rescaled factors: two per product after one level, and the odd last
    matrix folded into its neighbour makes that 3 and then 2 + 2 + 3.  A
    product that starts with P takes each row from the same row of P, so
    when the entries of each column of P lie within a factor r of each
    other (zero columns aside), every entry is within r of the same entry
    in any other row (the rows of a block's first matrix are equal).  A
    product of u rescaled factors then has its largest row sum in
    [r^(1-u), 2^u) and every row sum at least r^-u, and since the rows of
    what multiplies it from the right lie within r of each other too, an
    entry below the normal range (2^-1022) carries a share of at most
    about r^(u+1)·2^-1022 of the likelihood, K times that per matrix.  At
    u = 7 and r at ``_MAX_COLUMN_RATIO`` = 2^64 that is 2^-510.  Scaling
    by a power of two changes no mantissa, so an operation rounds
    differently under another rescale cadence only where a value leaves
    the normal range under one of them.  Such a value is a share far below
    the result's last bit and is absorbed by the larger terms of the sums
    it enters, so the result equals that of a rescale after every level
    bit for bit.  (At r = 2^160 the seven-factor products can lose a likely
    row to underflow.)

    A P that holds a zero beside a nonzero entry in one column (an
    identity, absorbing or left-to-right chain), or whose r passes
    ``_MAX_COLUMN_RATIO`` (a transition less likely than about 5e-20 in a
    column that holds one near 1, such as a chain that stays put with
    probability 1 - 1e-20), lets the rows drift apart by a factor per
    step.  Such a batch runs one step at a time through the score kernel
    with no derivatives, where only the filter row is scaled.

    p: (K, K) or (G, K, K); init: (K,) or (G, K); emis: (G, n, K).
    Returns loglik (G,).
    """
    g, n, k = emis.shape
    p = np.broadcast_to(p, (g, k, k))
    init = np.broadcast_to(init, (g, k))
    if _column_ratio(p) <= _MAX_COLUMN_RATIO:
        return _forward_tree(p, init, emis)
    # the kernel's layout, as views: one P per row (K, K, G), time-major
    # weights (n, K, G)
    state = _forward_start(init, np.empty((0, k)), (g,))
    return _forward_finish(_forward_segment(
        np.moveaxis(p, 0, -1), np.empty((0, k, k)), state,
        np.moveaxis(emis, 0, -1), np.empty((n, 0, k, g))))[0]


def _native_loglik(model: ModelSpec, thetas: Array, ys: Array,
                   pert: PerturbationSpec | None) -> Array:
    """Forward log-likelihood (G,) of each row of a checked (G, d) grid on
    the ball-probability (kernel-weight) scale.  ``_forward_batch`` takes
    any (G, n, K) weights beside the laws; here they are the model's
    closed forms."""
    # each row's weights go straight into state-major (K, G, n) storage,
    # the layout _forward_tree reads
    emis = np.empty((model.n_states, len(thetas), ys.shape[0]))
    for row, th in zip(np.moveaxis(emis, 1, 0), thetas):
        row[...] = emission_matrix(model, th, ys, pert).T
    return _forward_batch(*laws(model, thetas), np.moveaxis(emis, 0, -1))


def forward_loglik(model: ModelSpec, theta, data,
                   pert: PerturbationSpec | None = None) -> float:
    """Exact log-likelihood (perturbed when ``pert`` is given)."""
    theta = check_theta(model, theta)
    ys = as_obs_1d(data)
    return float(_native_loglik(model, theta[None], ys, pert)[0]) \
        - ys.shape[0] * log_weight_scale(model, pert)


def forward_loglik_grid(model: ModelSpec, thetas, data,
                        pert: PerturbationSpec | None = None) -> Array:
    """Vectorized :func:`forward_loglik` over a (G, d) grid of parameters."""
    thetas = check_thetas(model, thetas)
    ys = as_obs_1d(data)
    return _native_loglik(model, thetas, ys, pert) \
        - ys.shape[0] * log_weight_scale(model, pert)


def forward_filter(model: ModelSpec, theta, data,
                   pert: PerturbationSpec | None = None,
                   init=None):
    """Run the filter, returning per-step filters (n, K) and log increments.

    ``init`` overrides the model's initial distribution: a state index is
    a point mass on that state, otherwise it must be a probability vector
    over the states.  This is a per-step loop of its own, not the score
    kernel: it returns every filter, and a step of zero predictive weight
    has increment -inf, after which the filter restarts from the uniform
    law (the kernel's dead rows stay zero).
    """
    theta = check_theta(model, theta)
    ys = as_obs_1d(data)
    emis = emission_matrix(model, theta, ys, pert)
    (p,), (alpha,) = laws(model, theta[None])
    if init is not None:
        alpha = _start_law(init, model.n_states)
    n, k = emis.shape
    filters = np.empty((n, k))
    incr = np.empty(n)
    for t in range(n):
        b = (alpha @ p) * emis[t]
        c = b.sum()
        alpha = b / c if c > 0.0 else np.full(k, 1.0 / k)
        incr[t] = math.log(c) if c > 0.0 else -math.inf
        filters[t] = alpha
    return filters, incr - log_weight_scale(model, pert)


def _start_law(init, k: int) -> Array:
    """``forward_filter``'s ``init`` as a law over the ``k`` states, or a
    ``ValueError`` naming ``init``."""
    if np.isscalar(init):
        if isinstance(init, (bool, np.bool_)) \
                or not isinstance(init, (int, np.integer)) or not 0 <= init < k:
            raise ValueError(f"init must be a state index in [0, {k}) or a "
                             f"probability vector, got {init!r}")
        alpha = np.zeros(k)
        alpha[int(init)] = 1.0
        return alpha
    alpha = np.asarray(init, dtype=float)
    if not is_law(alpha, k):
        raise ValueError(f"init must be a probability vector over the {k} "
                         f"states or a state index, got {init!r}")
    return alpha


def exact_smc_target(model: ModelSpec, theta, data,
                     pert: PerturbationSpec | None = None) -> float:
    """Exact value of the quantity the particle ABC estimator targets.

    For the uniform kernel this is the log probability that a fresh model
    trajectory lands inside every acceptance ball; for the gaussian kernel,
    the log expectation of the accumulated smooth weights.  It is the
    forward recursion's own output on the kernel-weight scale.
    """
    return float(_native_loglik(model, check_theta(model, theta)[None],
                                as_obs_1d(data), pert)[0])


# ---------------------------------------------------------------------------
# scores


def _central_diff(fn, theta: Array, box: Array) -> Array:
    """Central-difference Jacobian of ``fn`` at ``theta``, shape (d, ...),
    each step cut short at the edge of ``box`` (d, 2): one-sided there."""
    rows = []
    for j in range(theta.shape[0]):
        h = 1e-6 * max(1.0, abs(theta[j]))
        hi = min(h, box[j, 1] - theta[j])
        lo = min(h, theta[j] - box[j, 0])
        up, dn = theta.copy(), theta.copy()
        up[j] += hi
        dn[j] -= lo
        rows.append((np.asarray(fn(up), float)
                     - np.asarray(fn(dn), float)) / (hi + lo))
    return np.stack(rows)


def _laws_and_jac(model: ModelSpec, theta: Array):
    """``(P, dP, init, dinit)`` at ``theta``: the laws of the score kernel
    and their central-difference Jacobians, exact zeros where they do not
    move with theta."""
    (p,), (init,) = laws(model, theta[None])
    return (p, _central_diff(model.transition_matrix, theta, model.theta_box),
            init, _central_diff(model.initial_dist, theta, model.theta_box))


# Most observations the score kernel's emission weights are evaluated on at
# once: it reads them a block of whole steps at a time (one step at least).
# Smaller blocks pay more per-call overhead and larger ones fall out of
# cache; on the info_loss preset 2^13 to 2^14 ran fastest.
_SCORE_BLOCK = 1 << 14


def _emissions_and_jac(model, theta, obs, pert):
    """Emission weights (m, K, R) of the m steps of the series ``obs`` (R,
    m) and their Jacobian (m, d, K, R), time-major for
    :func:`_forward_segment`: one call of the model's ``*_jac`` pair when it
    registers one, the weights and their central differences otherwise.

    The model's callables return (m·R, K) and (d, m·R, K) arrays in any
    memory order, and the results are views of them, which the kernel reads
    in place.  The built-ins compute state-major, so each step of those
    views holds contiguous replicate rows; a C-ordered result is read with
    a stride of K.
    """
    r, m = obs.shape
    d, k = theta.shape[0], model.n_states
    fn, pair = _emission_fns(model, pert)
    if pair is None:
        def pair(th, ys):
            return (emission_matrix(model, th, ys, pert), _central_diff(
                lambda t: fn(t, ys), th, model.theta_box))
    w, jac = pair(theta, obs.T.reshape(-1))
    return (w.T.reshape(k, m, r).transpose(1, 0, 2),
            jac.transpose(0, 2, 1).reshape(d, k, m, r).transpose(2, 0, 1, 3))


def _score_pass(model, theta, pert, y, y_eps, bs):
    """Log-likelihoods (B, R) on the kernel-weight scale and scores (B, R,
    d) of the mixed sequences ``y[:, :b] ++ y_eps[:, b:]``, one per
    boundary of the sorted, distinct ``bs`` in [0, n]: the one pass behind
    every score.

    The first ``b`` steps use the exact emission channel on the clean
    series ``y``, the rest the ``pert`` channel on the noisy ``y_eps``.
    Sequences of different boundaries agree on every step before the
    smaller one, so a clean chain of R rows runs the sensitivity recursion
    once, and at each boundary a copy of its state joins the noisy branches
    (the chain itself joins at the last one).  Chain and branches advance
    in separate :func:`_forward_segment` calls on the same blocks of whole
    steps, about ``_SCORE_BLOCK`` observations each; a block's weights and
    Jacobian, (L, K, 1, R) and (L, d, K, 1, R), are computed only when the
    last block is spent, and their unit branch axis broadcasts them over
    every branch.  So the clean weights are evaluated once on steps [0,
    b_last), the noisy ones once on [b_first, n), and no array spans the
    whole batch.  Every operation acts on one row alone, so each row
    equals, bit for bit, a separate kernel run over its own sequence.
    """
    r, n = y.shape
    p, dp, init, dinit = _laws_and_jac(model, theta)
    step = max(1, _SCORE_BLOCK // max(r, 1))

    def advance(state, obs, channel):
        for s in range(0, obs.shape[1], step):
            e, de = _emissions_and_jac(model, theta, obs[:, s:s + step],
                                       channel)
            state = _forward_segment(p, dp, state, e[..., None, :],
                                     de[..., None, :])
        return state

    chain = advance(_forward_start(init, dinit, (1, r)), y[:, :bs[0]], None)
    branches = None
    for b, nxt in zip(bs, [*bs[1:], n]):
        # _forward_segment leaves the state passed in as it was, so the
        # chain's state serves as the joining branch's copy
        branches = chain if branches is None else (
            np.concatenate([branches[0], chain[0]], axis=2),
            np.concatenate([branches[1], chain[1]]))
        if b < bs[-1]:
            chain = advance(chain, y[:, b:nxt], None)
        branches = advance(branches, y_eps[:, b:nxt], pert)
    return _forward_finish(branches)


def forward_score(model: ModelSpec, theta, data,
                  pert: PerturbationSpec | None = None) -> Array:
    """Score (gradient of the exact log-likelihood) via sensitivity
    propagation: :func:`forward_score_batch` on one series."""
    return forward_score_batch(model, theta, as_obs_1d(data)[None], pert)[1][0]


def _replicate_batch(obs_batch) -> Array:
    """``obs_batch`` as finite replicate 1-D series (R, n), or a
    ``ValueError`` naming the problem."""
    obs_batch = np.atleast_2d(np.asarray(obs_batch, dtype=float))
    if obs_batch.ndim != 2:
        raise ValueError(f"expected replicate 1-D series (R, n), got shape "
                         f"{obs_batch.shape}")
    if obs_batch.shape[1] < 1:
        raise ValueError("data must contain at least one observation")
    check_finite_obs(obs_batch.T)
    return obs_batch


def forward_score_batch(model: ModelSpec, theta, obs_batch: Array,
                        pert: PerturbationSpec | None = None):
    """Log-likelihood and score for a batch of replicate series (R, n).

    Every step uses the emission channel ``pert`` selects: the one-boundary
    case of :func:`boundary_scores`, at boundary 0, whose sequences mix the
    two.  P and the initial law are differentiated by central differences,
    exact zeros where they do not move with theta.  Returns ``(loglik (R,),
    score (R, d))``; a series of loglik -inf has a NaN score.
    """
    theta = check_theta(model, theta)
    obs_batch = _replicate_batch(obs_batch)
    ll, score = _score_pass(model, theta, pert, obs_batch, obs_batch, [0])
    return ll[0] - obs_batch.shape[1] * log_weight_scale(model, pert), score[0]


def boundary_scores(model: ModelSpec, theta, pert: PerturbationSpec,
                    y: Array, y_eps: Array, boundaries) -> dict:
    """Scores of the mixed sequences ``y[:, :b] ++ y_eps[:, b:]`` (R, n), one
    per integer boundary ``b`` in [0, n]: ``{b: scores (R, d)}``, in
    increasing ``b``.

    The first ``b`` steps use the exact emission channel on the clean
    series ``y``, the rest the ``pert`` channel on the noisy ``y_eps``.  One
    pass over time serves every boundary, sharing the clean prefix (see
    ``_score_pass``), and each score equals, bit for bit, the one a
    separate kernel run over that boundary's whole mixed sequence gives
    (boundary n is ``forward_score_batch(model, theta, y)``, boundary 0
    ``forward_score_batch(model, theta, y_eps, pert)``).  A series of zero
    likelihood has a NaN score.
    """
    theta = check_theta(model, theta)
    y, y_eps = _replicate_batch(y), _replicate_batch(y_eps)
    boundaries = list(boundaries)
    for b in boundaries:
        check_count("boundary", b, 0)
    bs = sorted(set(int(b) for b in boundaries))
    if y.shape != y_eps.shape or not bs or bs[-1] > y.shape[1]:
        raise ValueError(f"need y and y_eps of one shape, got {y.shape} and "
                         f"{y_eps.shape}, and boundaries in [0, n], got {bs}")
    return dict(zip(bs, _score_pass(model, theta, pert, y, y_eps, bs)[1]))


# ---------------------------------------------------------------------------
# independent brute-force route


_PATH_CHUNK = 1 << 16          # paths per logsumexp block of brute force


def brute_force_loglik(model: ModelSpec, theta, data,
                       pert: PerturbationSpec | None = None) -> float:
    """Log-likelihood by explicit enumeration of every hidden path.

    Exponential in n -- guarded to K^n <= ~3.2e6 -- and deliberately free of
    the forward recursion's scaling machinery, so it serves as an independent
    oracle for it.
    """
    # imported here: this reference oracle is the module's only user of scipy
    from scipy.special import logsumexp
    theta = check_theta(model, theta)
    ys = as_obs_1d(data)
    n, k = ys.shape[0], model.n_states
    if k ** n > 3_200_000:
        raise ValueError(f"path enumeration infeasible for K={k}, n={n}")
    with np.errstate(divide="ignore"):
        log_e = np.log(emission_matrix(model, theta, ys, pert))   # (n, K)
        (p,), (init,) = laws(model, theta[None])
        log_p = np.log(p)
        log_first = np.log(init @ p)      # law of the first observed state
    t_idx = np.arange(n)
    chunks = []
    paths_iter = itertools.product(range(k), repeat=n)
    while block := list(itertools.islice(paths_iter, _PATH_CHUNK)):
        paths = np.asarray(block, dtype=np.int64)                 # (B, n)
        lp = log_first[paths[:, 0]] \
            + log_p[paths[:, :-1], paths[:, 1:]].sum(axis=1) \
            + log_e[t_idx[None, :], paths].sum(axis=1)
        chunks.append(logsumexp(lp))
    return float(logsumexp(np.asarray(chunks))) \
        - n * log_weight_scale(model, pert)


# ---------------------------------------------------------------------------
# filter forgetting


@dataclass
class FilterForgetting:
    """Total-variation gap between two filters plus its geometric envelope."""

    tv: Array          # tv[i]: TV after i+1 update steps
    bound: Array       # rho_hat ** (i+1)
    rho_hat: float
    c_lo: float
    c_hi: float


def filter_tv_forgetting(model: ModelSpec, theta, data,
                         init_a=None, init_b=None,
                         pert: PerturbationSpec | None = None) -> FilterForgetting:
    """Track the TV distance between filters started from two initializations.

    The envelope constant is ``rho_hat = 1 - (c_lo / c_hi)**2`` with ``c_lo``
    / ``c_hi`` the smallest / largest transition probability -- the standard
    one-step minorization constant for the filter map.  It depends on the
    transition matrix alone, so neither the data nor the scale of the
    emission weights moves it.
    """
    theta = check_theta(model, theta)
    if init_a is None:
        init_a = 0
    if init_b is None:
        init_b = model.n_states - 1
    fa, _ = forward_filter(model, theta, data, pert=pert, init=init_a)
    fb, _ = forward_filter(model, theta, data, pert=pert, init=init_b)
    tv = 0.5 * np.abs(fa - fb).sum(axis=1)
    (p,), _ = laws(model, theta[None])
    c_lo, c_hi = float(p.min()), float(p.max())
    rho = 1.0 - (c_lo / c_hi) ** 2 if c_lo > 0 else 1.0
    k = np.arange(1, len(tv) + 1)
    return FilterForgetting(tv=tv, bound=rho ** k, rho_hat=float(rho),
                            c_lo=c_lo, c_hi=c_hi)
