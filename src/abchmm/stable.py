"""Alpha-stable sampling via the Chambers--Mallows--Stuck transform.

Convention
----------
All routines use the "1" parameterization S(alpha, beta, sigma, delta; 1):
for ``alpha != 1`` the characteristic function is

    E exp(itY) = exp( -sigma^alpha |t|^alpha [1 - i beta sign(t) tan(pi alpha / 2)]
                      + i delta t )

and a draw is ``Y = sigma * X + delta`` with ``X`` standard.  At ``alpha == 1``
the transform switches to the logarithmic branch and the location correction
``Y = sigma * X + delta + beta * (2/pi) * sigma * log(sigma)`` keeps the
parameterization consistent.  Special cases used as sanity anchors:

* ``alpha = 2`` is Gaussian with variance ``2 sigma**2`` (not ``sigma**2``),
* ``alpha = 1, beta = 0`` is Cauchy with scale ``sigma``.
"""

from __future__ import annotations

import numpy as np


def _validate(alpha: float, beta: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {beta}")


def standard(alpha: float, beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Draw from the standard stable law S(alpha, beta, 1, 0; 1).

    Chambers--Mallows--Stuck: with U ~ Uniform(-pi/2, pi/2) and W ~ Exp(1),

        theta0 = arctan(beta * tan(pi*alpha/2)) / alpha
        X = sin(alpha*(U + theta0)) / (cos(alpha*theta0) * cos(U))**(1/alpha)
            * (cos(alpha*theta0 + (alpha-1)*U) / W)**((1-alpha)/alpha)

    for ``alpha != 1``, and the logarithmic branch

        X = (2/pi) * ((pi/2 + beta*U) * tan(U)
                      - beta * log(((pi/2) * W * cos(U)) / (pi/2 + beta*U)))

    at ``alpha == 1``.
    """
    _validate(alpha, beta)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        half_pi = np.pi / 2.0
        shifted = half_pi + beta * u
        x = (shifted * np.tan(u)
             - beta * np.log((half_pi * w * np.cos(u)) / shifted)) / half_pi
        return x
    theta0 = np.arctan(beta * np.tan(np.pi * alpha / 2.0)) / alpha
    num = np.sin(alpha * (u + theta0))
    den = (np.cos(alpha * theta0) * np.cos(u)) ** (1.0 / alpha)
    tail = (np.cos(alpha * theta0 + (alpha - 1.0) * u) / w) ** ((1.0 - alpha) / alpha)
    return num / den * tail


def sample(alpha: float, beta: float, sigma, delta, size,
           rng: np.random.Generator) -> np.ndarray:
    """Draw from S(alpha, beta, sigma, delta; 1).

    ``sigma`` and ``delta`` may be arrays that broadcast against ``size``;
    the standard draws are made once and shared, so ``sigma`` (G, 1) with
    ``size`` N gives (G, N) with row g scaled by ``sigma[g]``.
    """
    scale = np.asarray(sigma)
    if not np.all((scale > 0.0) & (scale < np.inf)):    # False for NaN
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"delta must be finite, got {delta}")
    x = standard(alpha, beta, size, rng)
    if alpha == 1.0:
        return sigma * x + delta + beta * (2.0 / np.pi) * sigma * np.log(sigma)
    return sigma * x + delta
