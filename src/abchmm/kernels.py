"""Acceptance-ball geometry and comparison kernels.

Two kernel families are supported when comparing a proposed observation
``y`` with a recorded one ``y_hat``:

* ``uniform``: the indicator of the radius-``eps`` ball ``|y - y_hat| <= eps``
  in the chosen norm (``linf`` or ``l2``);
* ``gaussian``: the smooth weight ``prod_j pdf((y_hat_j - y_j) / eps)`` with
  ``pdf`` the standard normal density (unnormalized as a kernel in y).
"""

from __future__ import annotations

import math

import numpy as np

NORMS = ("linf", "l2")
KERNELS = ("uniform", "gaussian")

#: supremum of the standard normal density, the per-coordinate bound on
#: gaussian kernel weights.
GAUSS_SUP = 1.0 / math.sqrt(2.0 * math.pi)


def ball_uniform(m: int, size: int, rng: np.random.Generator,
                 norm: str = "linf") -> np.ndarray:
    """Draw ``size`` points uniformly from the unit ball in R^m.

    ``linf`` is a product of U(-1, 1) coordinates.  ``l2`` uses a normalized
    Gaussian direction with radius ``U**(1/m)``, the standard
    volume-preserving construction.
    """
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if norm == "linf":
        return rng.uniform(-1.0, 1.0, size=(size, m))
    if norm == "l2":
        direction = rng.standard_normal((size, m))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.random(size) ** (1.0 / m)
        return direction * radius[:, None]
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def log_ball_volume(eps: float, m: int, norm: str = "linf") -> float:
    """log Lebesgue volume of the radius-``eps`` ball in R^m."""
    if eps <= 0.0:
        raise ValueError(f"ball volume requires eps > 0, got {eps}")
    if norm == "linf":
        return m * math.log(2.0 * eps)
    if norm == "l2":
        return (m / 2.0) * math.log(math.pi) - math.lgamma(m / 2.0 + 1.0) \
            + m * math.log(eps)
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def within_ball(diff: np.ndarray, eps: float, norm: str = "linf",
                out: np.ndarray | None = None) -> np.ndarray:
    """Indicator of ``||d|| <= eps`` for every point ``d`` on the last axis
    of ``diff`` (..., m); the result has shape (...).  A NaN coordinate puts
    its point outside the ball.

    With ``out``, a boolean array of the result's shape, the result is
    written there and ``diff`` serves as scratch: its values are lost.
    """
    diff = np.atleast_2d(diff)
    if norm == "linf":
        # one coordinate at a time: np.max over a short last axis costs
        # more than the loop; np.maximum propagates NaN
        dist = np.abs(diff, out=None if out is None else diff)
        for j in range(1, dist.shape[-1]):
            np.maximum(dist[..., 0], dist[..., j], out=dist[..., 0])
        return np.less_equal(dist[..., 0], eps, out=out)
    if norm == "l2":
        return np.less_equal(np.einsum("...j,...j->...", diff, diff),
                             eps * eps, out=out)
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def smooth_weight(diff: np.ndarray, eps: float) -> np.ndarray:
    """Gaussian kernel weight ``prod_j pdf(diff_j / eps)`` for every point
    on the last axis of ``diff`` (..., m); the result has shape (...).  A
    NaN coordinate gives its point weight 0, as it puts the point outside
    the uniform kernel's ball."""
    if eps <= 0.0:
        raise ValueError(f"smooth kernel requires eps > 0, got {eps}")
    diff = np.atleast_2d(diff)
    z = diff / eps
    log_w = -0.5 * np.einsum("...j,...j->...", z, z) \
        - diff.shape[-1] * 0.5 * math.log(2.0 * math.pi)
    # fmax passes every number through and turns NaN into -inf
    return np.exp(np.fmax(log_w, -math.inf, out=log_w))
