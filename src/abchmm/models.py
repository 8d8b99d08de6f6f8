"""Model and perturbation primitives.

A :class:`ModelSpec` bundles everything the rest of the package needs to know
about a hidden Markov model with a finite latent chain: transition matrix,
initial distribution, observation noise and the sampler that transforms it,
and (when tractable) vectorized emission-density callables plus their
parameter Jacobians.  Models whose emission density is unavailable (the
alpha-stable regime model) still work everywhere that only requires forward
simulation.

A :class:`PerturbationSpec` describes the observation-space perturbation used
by the ABC constructions: a kernel (``uniform`` ball indicator or ``gaussian``
smooth weight), a tolerance ``epsilon`` and a ball norm.  A 1-D model's
closed forms give each state's kernel weight at the data ``y``, the quantity
the particle estimator averages, and :func:`abchmm.oracle.emission_matrix`
takes them as they come:

    emission_ball_prob:     P(|Y - y| <= eps | x)
    emission_smooth_weight: eps * (emission density convolved with N(0, eps^2))(y)
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import kernels, stable
from .errors import ConfigError

Array = np.ndarray


# ---------------------------------------------------------------------------
# parameter vectors


@dataclass(frozen=True)
class ParameterVector:
    """A parameter value together with the box it must live in."""

    values: Array
    box: Array

    def __post_init__(self):
        box = check_box(self.box, "ParameterVector: box")
        values = np.asarray(self.values, dtype=float).reshape(1, -1)
        _check_rows(values, box, "ParameterVector")
        object.__setattr__(self, "values", values[0])
        object.__setattr__(self, "box", box)

    def to_list(self) -> list[float]:
        return [float(v) for v in self.values]


# ---------------------------------------------------------------------------
# perturbations


@dataclass(frozen=True)
class PerturbationSpec:
    """Observation-space perturbation: kernel, tolerance and ball norm.

    ``epsilon == 0`` is an allowed boundary meaning "no perturbation"; it is
    useful for identities of the form "perturbed quantity at eps = 0 equals
    the exact quantity".
    """

    epsilon: float
    kernel: str = "uniform"
    norm: str = "linf"

    def __post_init__(self):
        eps = self.epsilon
        # a bool is a Real, and a string would fail math.isfinite with a
        # TypeError
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) \
                or not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"epsilon must be a finite number >= 0, "
                             f"got {eps!r}")
        if self.kernel not in kernels.KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected one of {kernels.KERNELS}")
        if self.norm not in kernels.NORMS:
            raise ValueError(
                f"unknown norm {self.norm!r}; expected one of {kernels.NORMS}")

    @property
    def is_exact(self) -> bool:
        return self.epsilon == 0.0

    def log_ball_volume(self, m: int) -> float:
        if self.kernel != "uniform":
            raise ValueError("ball volume is defined for the uniform kernel only")
        return kernels.log_ball_volume(self.epsilon, m, self.norm)

    def noise(self, m: int, size: int, rng: np.random.Generator) -> Array:
        """Draw ``size`` perturbation offsets (size, m), already scaled by
        epsilon.  The draw is scaled in place (u·eps is eps·u bit for bit),
        so the result is the one fresh C-ordered array, which a caller may
        write into."""
        if self.epsilon == 0.0:
            return np.zeros((size, m))
        if self.kernel == "uniform":
            u = kernels.ball_uniform(m, size, rng, self.norm)
        else:
            u = rng.standard_normal((size, m))
        u *= self.epsilon
        return u


# ---------------------------------------------------------------------------
# model container


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A finite-state hidden Markov model with optional tractable emissions.

    Emission callables are vectorized over observations: given ``theta``, a
    1-D array ``ys`` of ``n`` observations and, for the two kernel weights
    of the module docstring, ``eps`` by keyword, each returns an ``(n, K)``
    array of weights with one column per latent state.  Each
    ``*_jac`` callable takes the same arguments and returns the pair
    ``(weights, jacobian)``: those (n, K) weights and their parameter
    Jacobian ``(d, n, K)``, computed together.  The score kernel makes one
    ``*_jac`` call per block of whole steps and runs each block through
    the recursion before it asks for the next, so it never holds the
    weights or the Jacobian of a whole batch; the forward recursions call
    the weights alone.  The results may be in any memory order.  The
    built-ins compute state-major, on (K, n) and (d, K, n) arrays, and
    return their transposed views, the layout the score kernel reads
    fastest, in place; a C-ordered result it reads with a stride of K.
    All of them are optional; samplers alone support simulation and
    particle-based likelihood work.  Scores take a model without a ``*_jac`` callable
    through finite differences of its weights, one-sided at a box edge, and
    of ``transition_matrix`` and ``initial_dist``, exact zeros for a law
    that ``theta`` leaves fixed.

    ``initial_dist`` is the law of the latent state *before* the first
    observation: the first observed state has law ``initial_dist @ P``.
    Simulation, the forward recursions, brute-force enumeration and the
    particle filter all read it this way; for a stationary initial law the
    two coincide.

    Observations are drawn in two parts.  ``obs_noise(rng, size)`` draws
    the randomness of ``size`` pseudo-observations, with no reference to
    any parameter, as an array whose first axis has ``size`` entries (a
    model without noise returns an empty ``(size, 0)`` array).
    ``obs_sampler(theta, states, noise)`` is the deterministic transform,
    batched over parameters: ``theta`` is (G, d), ``states`` (G, N) integer
    states, ``noise`` one ``obs_noise`` draw of size N, and the result (G,
    N, obs_dim) holds row g's pseudo-observations at ``theta[g]``.  It acts
    per particle: entry (g, i) reads only ``theta[g]``, ``states[g, i]`` and
    ``noise[i]``, so a call on a slice of the particles returns that slice of
    the whole call, bit for bit.  Every row reads the same noise, so the
    particle filter runs a whole batch of candidate parameters on one set of
    draws (common random numbers), and a particle fit keeps or replays each
    step's noise after its first draw.  The states and the noise are
    read-only: a transform that writes into either raises.  Nor may it keep
    them: the filter draws each step's states into one buffer.
    Simulation calls the transform with G=1, on consecutive slices of a
    series laid end to end, so that no temporary of the transform is as
    large as the series.

    Construction (``dataclasses.replace`` too) stores ``theta_box`` as the
    float array of :func:`check_box` and derives ``param_dim``, the number d
    of its rows, and ``n_states``, the size K of ``transition_matrix``;
    ``hyper`` is optional.  It raises a ``ValueError`` naming the model
    unless the box holds d >= 1 finite rows ``[lo, hi]`` with lo < hi, and
    unless ``transition_matrix`` and ``initial_dist``, evaluated
    once at the centre of the box, are a K x K stochastic matrix and a law over
    the K states.  A law that moves with ``theta`` is checked there only; the
    likelihood paths do not check it again.
    """

    name: str
    obs_dim: int
    theta_box: Array
    transition_matrix: Callable[[Array], Array]
    initial_dist: Callable[[Array], Array]
    obs_sampler: Callable[[Array, Array, Array], Array]
    obs_noise: Callable[[np.random.Generator, int], Array]
    hyper: dict = field(default_factory=dict)
    emission_density: Callable | None = None
    emission_ball_prob: Callable | None = None
    emission_smooth_weight: Callable | None = None
    emission_density_jac: Callable | None = None
    emission_ball_prob_jac: Callable | None = None
    emission_smooth_weight_jac: Callable | None = None

    param_dim: int = field(init=False)
    n_states: int = field(init=False)

    def __post_init__(self):
        box = check_box(self.theta_box, f"model {self.name!r}: theta_box")
        object.__setattr__(self, "theta_box", box)
        centre = box.mean(axis=1)
        (p,), (init,) = laws(self, centre[None])
        where = f"model {self.name!r} at the theta_box centre {centre.tolist()}"
        try:
            check_transition(p)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        k = p.shape[0]
        if not is_law(init, k):
            raise ValueError(f"{where}: initial_dist {init.tolist()} is not a "
                             f"law over the {k} states of the transition "
                             f"matrix, shape {p.shape}")
        object.__setattr__(self, "param_dim", box.shape[0])
        object.__setattr__(self, "n_states", k)


def check_box(box, where: str) -> Array:
    """``box`` as a float (d, 2) array of d >= 1 finite rows ``[lo, hi]``
    with lo < hi, or a ``ValueError`` (for a numeric box, one that begins
    with ``where``): the one check of a parameter box."""
    arr = np.asarray(box, dtype=float)
    if arr.shape[1:] != (2,) or arr.shape[0] < 1 \
            or not np.all(np.isfinite(arr)) or not np.all(arr[:, 0] < arr[:, 1]):
        raise ValueError(f"{where} must be d >= 1 finite [lo, hi] rows with "
                         f"lo < hi, got {arr.tolist()}")
    return arr


def _check_rows(thetas: Array, box: Array, owner: str) -> Array:
    """:func:`check_thetas` against a checked ``box``, naming ``owner``."""
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError("thetas must be a (G, d) array with G >= 1, "
                         f"got shape {thetas.shape}")
    d = box.shape[0]
    if thetas.shape[1] != d:
        raise ValueError(f"{owner} expects {d} parameters, "
                         f"got {thetas.shape[1]}")
    inside = (box[:, 0] <= thetas) & (thetas <= box[:, 1])  # False for NaN
    if not inside.all():
        g, j = divmod(int(np.argmin(inside)), d)
        raise ValueError(f"theta[{j}] = {thetas[g, j]} outside box "
                         f"[{box[j, 0]}, {box[j, 1]}] for {owner}")
    return thetas


def check_thetas(model: ModelSpec, thetas) -> Array:
    """Validate a (G, d) batch of parameter rows against the model's box,
    returning a float array; a ``ValueError`` names the first problem: the
    shape, the column count or the first entry outside the box."""
    return _check_rows(np.asarray(thetas, dtype=float), model.theta_box,
                       f"model {model.name!r}")


def check_theta(model: ModelSpec, theta) -> Array:
    """Validate one theta, an array or a :class:`ParameterVector`, against
    the model's box, returning a float array (d,): the one-row case of
    :func:`check_thetas`."""
    values = theta.values if isinstance(theta, ParameterVector) else theta
    return check_thetas(model, np.asarray(values, float).reshape(1, -1))[0]


def laws(model: ModelSpec, thetas: Array) -> tuple[Array, Array]:
    """The latent chain's laws at each row of a checked (G, d) batch: the
    transition matrices (G, K, K) and the initial laws (G, K)."""
    p = np.array([model.transition_matrix(th) for th in thetas], dtype=float)
    init = np.array([model.initial_dist(th) for th in thetas], dtype=float)
    return p, init


def _is_integer(value) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int):
    """A ``ValueError`` naming ``name`` unless ``value`` is an int >= least."""
    if not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")


def check_seed(seed):
    """A ``ValueError`` naming ``seed`` unless it is a Python or NumPy
    integer, of any sign.  Streams are derived from the seed as given, so a
    float or a bool would draw streams that the recorded ``int(seed)`` does
    not reproduce."""
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def is_law(values: Array, k: int) -> bool:
    """True when ``values`` is a probability vector over ``k`` states:
    shape (k,), finite, nonnegative, summing to one within 1e-10."""
    v = np.asarray(values, dtype=float)
    if v.shape != (k,) or not np.all(np.isfinite(v)) or np.any(v < 0.0):
        return False
    with np.errstate(over="ignore"):
        return math.isclose(v.sum(), 1.0, abs_tol=1e-10)


def check_transition(p: Array) -> Array:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    if np.any(p < 0.0):
        raise ValueError("transition matrix has negative entries")
    rows = p.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-10):
        raise ValueError(f"transition rows must sum to 1, got sums {rows}")
    return p


def stationary_dist(p: Array) -> Array:
    """Stationary distribution of a stochastic matrix (unique ergodic case)."""
    p = check_transition(p)
    k = p.shape[0]
    a = np.vstack([p.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def sample_categorical_rows(probs: Array, u: Array, out: Array | None = None,
                            above: Array | None = None) -> Array:
    """Categorical draws from every row of ``probs`` (R, K) by inversion of
    the uniforms ``u`` (size,), which every row shares: the result (R, size),
    written into ``out`` (an int64 (R, size) array) when given.

    Entry (r, i) is the number of entries of row r's cumulative sum below
    ``u[i]``, capped at K - 1.  It is found through K - 1 boolean planes:
    plane j holds ``u > cum_j`` (the draws above state j), and the result
    is their sum.  ``above``, a boolean (K - 1, R, size) array, receives the
    planes when given; otherwise they are allocated here.
    """
    cum = probs.cumsum(axis=1)
    if out is None:
        out = np.empty((cum.shape[0], u.size), dtype=np.int64)
    if cum.shape[1] == 1:
        out.fill(0)
        return out
    if above is None:
        above = np.empty((cum.shape[1] - 1,) + out.shape, dtype=bool)
    # the cumulative sum is nondecreasing, so counting the first K - 1
    # entries below u is the full count capped at K - 1.  One comparison
    # per row and state: u against a number takes numpy's scalar loop, and
    # u against a broadcast (R, 1) column is several times slower per
    # element
    for plane, col in zip(above, cum[:, :-1].T.tolist()):
        for row, c in zip(plane, col):
            np.greater(u, c, out=row)
    np.copyto(out, above[0])
    for plane in above[1:]:
        out += plane
    return out


def draw_noise(model: ModelSpec, rng: np.random.Generator, size: int) -> Array:
    """``model.obs_noise(rng, size)``, made read-only, with its first axis
    checked: ``size`` entries."""
    noise = np.asarray(model.obs_noise(rng, size))
    if noise.shape[:1] != (size,):
        raise ValueError(
            f"obs_noise of model {model.name!r} returned shape {noise.shape}, "
            f"expected {size} entries on the first axis")
    noise.flags.writeable = False
    return noise


def sample_observations(model: ModelSpec, theta: Array, states: Array,
                        noise: Array) -> Array:
    """``model.obs_sampler(theta, states, noise)``, on a read-only view of
    ``states``, with its result's shape checked against the batched
    contract: (G, N, obs_dim)."""
    seen = states.view()
    seen.flags.writeable = False
    y = model.obs_sampler(theta, seen, noise)
    want = states.shape + (model.obs_dim,)
    if np.shape(y) != want:
        raise ValueError(
            f"obs_sampler of model {model.name!r} returned shape "
            f"{np.shape(y)}, expected {want}: it takes theta (G, d) and "
            "states (G, N) and returns (G, N, obs_dim)")
    return y


# ---------------------------------------------------------------------------
# built-in models


# each finite_gaussian parameterisation: the hyper keys it reads besides
# transition, param and initial, and its default theta_box
_GAUSS_PARAM_MODES = {
    "mean": (("mu_coeff", "sigma"), [[-3.0, 3.0]]),
    "scale": (("mu",), [[0.05, 5.0]]),
    "mean_scale": (("mu_coeff",), [[-3.0, 3.0], [0.05, 5.0]]),
}

_FINITE_GAUSSIAN_DEFAULTS = {
    "transition": ((0.7, 0.3), (0.3, 0.7)),
    "param": "mean",
    "mu_coeff": (-1.0, 1.0),
    "mu": (-1.0, 1.0),
    "sigma": 1.0,
    "initial": "stationary",
}

_TWO_STATE_STABLE_DEFAULTS = {
    "alpha": 1.8,
    "state_values": (-1.0, 1.0),
    "transition": ((0.95, 0.05), (0.2, 0.8)),
    "initial": "stationary",
}


def _merge_hyper(name: str, defaults: dict, hyper: dict | None) -> dict:
    if not isinstance(hyper, (dict, type(None))):
        raise ConfigError(f"hyper of model '{name}' must be an object")
    merged = dict(defaults)
    for key, value in (hyper or {}).items():
        if key not in defaults:
            raise ConfigError(
                f"unknown hyper key '{key}' for model '{name}' "
                f"(known: {sorted(defaults)})")
        merged[key] = value
    return merged


def _theta_box(name: str, theta_box, default) -> Array:
    """``theta_box`` (``default`` when None) as a float array: a ConfigError
    unless numeric, a ValueError unless it has ``default``'s row count."""
    try:
        box = np.asarray(default if theta_box is None else theta_box, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("theta_box must be numeric [[lo, hi], ...] "
                          f"rows, got {theta_box!r}") from None
    if box.shape[:1] != (len(default),):
        raise ValueError(f"model {name!r}: theta_box must have {len(default)} "
                         f"[lo, hi] rows, one per parameter, got {box.tolist()}")
    return box


def _initial_from_hyper(hyper: dict, transition: Array) -> Array:
    if hyper["initial"] == "stationary":
        return stationary_dist(transition)
    init = np.asarray(hyper["initial"], dtype=float)
    if not is_law(init, transition.shape[0]):
        raise ConfigError("hyper key 'initial' must be 'stationary' or a "
                          "probability vector over the states")
    return init


# Arguments past which a result is known exactly: the true value is beyond
# double precision, so any correct ndtr rounds to 1.0 at and above
# _NDTR_ONE and to 0.0 at and below _NDTR_ZERO, and exp(-z^2 / 2)
# underflows to 0.0 for |z| >= 39, an exponent of _EXP_ZERO or less.  Such
# entries take the constant instead of a full ndtr or exp's slow underflow
# path.
_NDTR_ONE, _NDTR_ZERO = 9.0, -40.0
_EXP_ZERO = -0.5 * 39.0 ** 2


def _ndtr(x: Array, out: Array) -> Array:
    """scipy's ``ndtr(x)``, written into ``out`` (which may be ``x``).
    Only entries strictly between _NDTR_ZERO and _NDTR_ONE are evaluated;
    a block without a saturated entry costs one min/max check more."""
    # imported on the first call, not at import or construction: a
    # particle fit builds finite_gaussian but never needs scipy
    from scipy.special import ndtr
    if _NDTR_ZERO < x.min(initial=math.inf) \
            and x.max(initial=-math.inf) < _NDTR_ONE:     # False for NaN
        return ndtr(x, out=out)
    one = x >= _NDTR_ONE
    live = np.flatnonzero(~(one | (x <= _NDTR_ZERO)))
    vals = ndtr(x.take(live))
    np.copyto(out, one)
    out.put(live, vals)
    return out


def _norm_pdf(z: Array, out: Array | None = None) -> Array:
    """Standard normal density at ``z``, written into ``out`` when given.
    An entry of |z| >= 39 takes 0.0, the value exp underflows to there; a
    block without one costs one min check more."""
    out = np.multiply(-0.5, z, out=out)
    out *= z
    if out.min(initial=0.0) <= _EXP_ZERO:       # False for NaN
        live = np.flatnonzero(~(out <= _EXP_ZERO))
        vals = np.exp(out.take(live))
        out.fill(0.0)
        out.put(live, vals)
    else:
        np.exp(out, out=out)
    out /= math.sqrt(2.0 * math.pi)
    return out


def _finite_gaussian(hyper: dict | None, theta_box) -> ModelSpec:
    given = hyper or {}
    hyper = _merge_hyper("finite_gaussian", _FINITE_GAUSSIAN_DEFAULTS, hyper)
    mode = hyper["param"]
    if mode not in tuple(_GAUSS_PARAM_MODES):      # a list is not hashable
        raise ConfigError(
            f"unknown hyper value for 'param': {mode!r} "
            f"(known: {tuple(_GAUSS_PARAM_MODES)})")
    reads, default_box = _GAUSS_PARAM_MODES[mode]
    for key in ("mu_coeff", "mu", "sigma"):
        if key in given and key not in reads:
            raise ConfigError(f"hyper key '{key}' is not read when 'param' "
                              f"is {mode!r}: of mu_coeff, mu and sigma, "
                              f"that mode reads {list(reads)}")
    transition = check_transition(np.asarray(hyper["transition"], dtype=float))
    k = transition.shape[0]
    coeff = np.asarray(hyper["mu_coeff"], dtype=float)
    mu_fixed = np.asarray(hyper["mu"], dtype=float)
    for key, value in (("mu_coeff", coeff), ("mu", mu_fixed)):
        if key in reads and value.shape != (k,):
            raise ConfigError(f"hyper key '{key}' must have one entry per "
                              "state of 'transition'")
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"hyper key '{key}' must hold finite numbers, "
                              f"got {value.tolist()}")
    sigma_fixed = float(hyper["sigma"])
    if not 0.0 < sigma_fixed < math.inf:        # False for NaN
        raise ConfigError(f"hyper key 'sigma' must be positive and finite, "
                          f"got {sigma_fixed}")
    initial = _initial_from_hyper(hyper, transition)
    box = _theta_box("finite_gaussian", theta_box, default_box)
    d = box.shape[0]

    def mu_s(theta):
        """Per-state means and the emission sd at ``theta`` (d,)."""
        if mode == "mean":
            return coeff * theta[0], sigma_fixed
        if mode == "scale":
            return mu_fixed, theta[0]
        return coeff * theta[0], theta[1]

    def obs_noise(rng, size):
        return rng.standard_normal(size)

    def obs_sampler(theta, states, noise):
        # each particle's mean: coeff[states] * theta is (coeff *
        # theta)[states] bit for bit, the same products gathered first.
        # Indexing, not take: take copies an index array that is read-only
        if mode == "scale":
            y = mu_fixed[states]
        else:
            y = coeff[states]
            y *= theta[:, :1]
        y += (sigma_fixed if mode == "mean" else theta[:, -1:]) * noise
        return y[:, :, None]

    # The emission callables compute state-major, on (K, n) and (d, K, n)
    # arrays, so each elementwise op runs over the n observations of one
    # state, and return the transposed (n, K) and (d, n, K) views.

    # Parameter Jacobians.  With f the N(mu, s^2) density and z = (y - mu)/s:
    #   df/dmu = f z / s,     df/ds = f (z^2 - 1) / s
    # and for the ball probability I = Phi(zh) - Phi(zl), zh, zl at y ± eps:
    #   dI/dmu = -(pdf(zh) - pdf(zl)) / s,  dI/ds = -(pdf(zh) zh - pdf(zl) zl)/s.
    # One body per channel serves the weights alone and, with jac=True, the
    # pair (weights, Jacobian) from the same z-scores and densities.

    def density(theta, ys, eps=None, jac=False):
        """The emission density at ``ys``; with ``eps``, the smooth kernel
        weight, eps times the density convolved with N(0, eps^2) (the sd
        becomes s_eff = sqrt(s^2 + eps^2), and ds_eff/ds = s / s_eff)."""
        mu, s = mu_s(theta)
        s_eff = s if eps is None else math.sqrt(s * s + eps * eps)
        z = (ys[None, :] - mu[:, None]) / s_eff
        f = _norm_pdf(z)
        f /= s_eff
        if not jac:
            return f.T if eps is None else np.multiply(f, eps, out=f).T
        out = np.empty((d, *z.shape))
        if mode in ("mean", "mean_scale"):
            np.multiply(f, z, out=out[0])
            out[0] /= s_eff
            out[0] *= coeff[:, None]
        if mode in ("scale", "mean_scale"):
            np.multiply(z, z, out=out[-1])
            out[-1] -= 1.0
            out[-1] *= f
            out[-1] /= s_eff
            if eps is not None:
                out[-1] *= s / s_eff
        if eps is not None:
            f *= eps
            out *= eps
        return f.T, out.transpose(0, 2, 1)

    def ball(theta, ys, eps, jac=False):
        mu, s = mu_s(theta)
        zh = ((ys + eps)[None, :] - mu[:, None]) / s
        zl = ((ys - eps)[None, :] - mu[:, None]) / s
        # above the mean, Phi(zh) - Phi(zl) cancels to 0; there the equal
        # difference of upper tails, Phi(-zl) - Phi(-zh), keeps its digits.
        # Both are |Phi(t zh) - Phi(t zl)| with t = -1 where zl > 0 and 1
        # elsewhere, bit for bit: scaling by t is exact.  t lives in the
        # Jacobian's last row until the Jacobian is written, and t zh in zh
        # when the Jacobian does not need zh
        out = np.empty((d if jac else 1, *zh.shape))
        t = np.multiply(zl > 0.0, -2.0, out=out[-1])
        t += 1.0
        w = np.multiply(zh, t, out=None if jac else zh)
        _ndtr(w, out=w)
        w -= _ndtr(np.multiply(zl, t, out=t), out=t)
        np.abs(w, out=w)
        if not jac:
            return w.T
        # written by in-place ops into one (d, K, n) array, in the order of
        # the formulas above: pdf(zh) goes into the first row and pdf(zl)
        # into zh once zh is spent
        ph = _norm_pdf(zh, out=out[0])
        if mode in ("scale", "mean_scale"):
            np.multiply(ph, zh, out=out[-1])
        pl = _norm_pdf(zl, out=zh)
        if mode in ("scale", "mean_scale"):
            np.multiply(pl, zl, out=zl)
            out[-1] -= zl
            np.negative(out[-1], out=out[-1])
            out[-1] /= s
        if mode in ("mean", "mean_scale"):
            out[0] -= pl
            np.negative(out[0], out=out[0])
            out[0] /= s
            out[0] *= coeff[:, None]
        return w.T, out.transpose(0, 2, 1)

    return ModelSpec(
        name="finite_gaussian",
        obs_dim=1,
        theta_box=box,
        hyper=hyper,
        transition_matrix=lambda theta: transition,
        initial_dist=lambda theta: initial,
        obs_sampler=obs_sampler,
        obs_noise=obs_noise,
        emission_density=functools.partial(density, eps=None),
        emission_ball_prob=ball,
        emission_smooth_weight=density,
        emission_density_jac=functools.partial(density, eps=None, jac=True),
        emission_ball_prob_jac=functools.partial(ball, jac=True),
        emission_smooth_weight_jac=functools.partial(density, jac=True),
    )


def _iid_pm_theta(hyper: dict | None, theta_box) -> ModelSpec:
    _merge_hyper("iid_pm_theta", {}, hyper)
    transition = np.full((2, 2), 0.5)
    initial = np.array([0.5, 0.5])

    def obs_sampler(theta, states, noise):
        values = np.concatenate([-theta[:, :1], theta[:, :1]], axis=1)
        return np.take_along_axis(values, states, axis=1)[:, :, None]

    def emission_ball_prob(theta, ys, eps):
        # the particle kernel's own comparison, |yhat - y| <= eps
        values = np.array([-theta[0], theta[0]])[:, None]
        return (np.abs(values - ys[None, :]) <= eps).astype(float).T

    return ModelSpec(
        name="iid_pm_theta",
        obs_dim=1,
        theta_box=_theta_box("iid_pm_theta", theta_box, [[0.0, 3.0]]),
        transition_matrix=lambda theta: transition,
        initial_dist=lambda theta: initial,
        obs_sampler=obs_sampler,
        obs_noise=lambda rng, size: np.empty((size, 0)),     # no noise
        emission_ball_prob=emission_ball_prob,
    )


def _two_state_alpha_stable(hyper: dict | None, theta_box) -> ModelSpec:
    hyper = _merge_hyper("two_state_alpha_stable", _TWO_STATE_STABLE_DEFAULTS, hyper)
    alpha = float(hyper["alpha"])
    if not 0.0 < alpha <= 2.0:                  # False for NaN
        raise ConfigError(f"hyper key 'alpha' must lie in (0, 2], got {alpha}")
    values = np.asarray(hyper["state_values"], dtype=float)
    if values.shape != (2,) or not np.all(np.isfinite(values)):
        raise ConfigError(f"hyper key 'state_values' must be two finite "
                          f"numbers, got {values.tolist()}")
    transition = check_transition(np.asarray(hyper["transition"], dtype=float))
    if transition.shape != (2, 2):
        raise ConfigError(f"hyper key 'transition' must be 2 x 2, one row "
                          f"per state value, got shape {transition.shape}")
    initial = _initial_from_hyper(hyper, transition)

    def obs_noise(rng, size):
        # standard draws x as S(alpha, 0, 1, 0) gives them: 1.0 * x + 0.0
        return stable.sample(alpha, 0.0, 1.0, 0.0, size, rng)

    def obs_sampler(theta, states, noise):
        sigma, delta = theta.T[:, :, None]
        if not np.all((sigma > 0.0) & (sigma < np.inf)):    # False for NaN
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        # sigma * (x + 0.0) + value + delta, in that order, has the bytes
        # of the one-theta sampler's (sigma * x + 0.0) + value + delta, as
        # sigma > 0
        y = sigma * noise
        y += values[states]
        y += delta
        return y[:, :, None]

    return ModelSpec(
        name="two_state_alpha_stable",
        obs_dim=1,
        theta_box=_theta_box("two_state_alpha_stable", theta_box,
                             [[0.2, 5.0], [-3.0, 3.0]]),
        hyper=hyper,
        transition_matrix=lambda theta: transition,
        initial_dist=lambda theta: initial,
        obs_sampler=obs_sampler,
        obs_noise=obs_noise,
    )


_BUILTINS = {
    "finite_gaussian": _finite_gaussian,
    "iid_pm_theta": _iid_pm_theta,
    "two_state_alpha_stable": _two_state_alpha_stable,
}


def builtin_model(name: str, hyper: dict | None = None,
                  theta_box=None) -> ModelSpec:
    """Construct a built-in model by name.

    ``finite_gaussian``
        K-state chain with Gaussian emissions, K the size of the hyper key
        ``transition``.  The hyper key ``param`` selects the
        parameterization, and with it the keys read besides ``transition``
        and ``initial``: ``mean`` (theta = emission location factor; reads
        ``mu_coeff``, the per-state factors, and the sd ``sigma``),
        ``scale`` (theta = emission sd; reads ``mu``, the fixed per-state
        means) or ``mean_scale`` (both; reads ``mu_coeff``).  A key given
        that the mode does not read is a ``ConfigError``.
    ``iid_pm_theta``
        i.i.d. observations equal to -theta or +theta with probability 1/2
        each; no emission density (point masses), but a closed-form ball
        probability, so the oracle evaluates its ABC likelihood under the
        uniform kernel.
    ``two_state_alpha_stable``
        Two-state regime-switching chain with symmetric alpha-stable
        emissions centred at the state value plus a location parameter;
        theta = (sigma, delta).  Emission density intractable on purpose.
    """
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown model '{name}' (known: {sorted(_BUILTINS)})")
    return _BUILTINS[name](hyper, theta_box)


def read_config(source, what: str) -> dict:
    """The JSON object ``source`` holds: a dict, the path of an existing
    file, or JSON text.  Anything else is a ``ConfigError`` naming ``what``.
    """
    if isinstance(source, dict):
        return dict(source)
    if not isinstance(source, (str, Path)):
        raise ConfigError(f"cannot read {what} from {source!r}")
    try:
        is_file = Path(source).is_file()
    except OSError:     # e.g. JSON text longer than a file name may be
        is_file = False
    if isinstance(source, Path) and not is_file:
        raise ConfigError(f"{what} file not found: {source}")
    text = Path(source).read_text(encoding="utf8") if is_file else source
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        origin = f"file {source}" if is_file else "text (no such file)"
        raise ConfigError(f"{what} {origin} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return config


def load_model_config(source) -> ModelSpec:
    """Build a model from a JSON config file, JSON text or dict.

    Schema: ``{"model": <name>, "hyper": {...}, "theta_box": [[lo, hi], ...]}``
    with ``hyper`` and ``theta_box`` optional.
    """
    config = read_config(source, "model config")
    allowed = {"model", "hyper", "theta_box"}
    for key in config:
        if key not in allowed:
            raise ConfigError(
                f"unknown model-config key '{key}' (known: {sorted(allowed)})")
    if "model" not in config:
        raise ConfigError("model config is missing required key 'model'")
    return builtin_model(config["model"], config.get("hyper"),
                         config.get("theta_box"))
