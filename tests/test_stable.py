"""Checks of the heavy-tailed sampler against independently computed truth.

The reference CDF values below were computed by numerical inversion of the
characteristic function: for the symmetric case with unit scale,

    F(x) = 1/2 + (1/pi) * int_0^inf sin(t x) exp(-t^alpha) / t dt,

evaluated with adaptive quadrature on split intervals.  The same quadrature
reproduces the Gaussian (alpha=2) and Cauchy (alpha=1) closed forms to ten
decimal places, which validates the oracle itself.
"""

import math

import numpy as np
import pytest

from abchmm import rng, stable

# F_alpha(x) for alpha=1.8, beta=0, unit scale (quadrature oracle, see above)
CDF_18 = {
    -2.0: 0.0877033725,
    -1.0: 0.2412852079,
    -0.5: 0.3617170885,
    0.5: 0.6382829115,
    1.0: 0.7587147921,
    2.0: 0.9122966275,
    3.0: 0.9706574660,
}

N = 400_000


def test_alpha_18_cdf():
    x = stable.standard(1.8, 0.0, N, rng.stream(123, "stable-check"))
    for q, expected in CDF_18.items():
        emp = float(np.mean(x <= q))
        se = math.sqrt(expected * (1 - expected) / N)
        assert abs(emp - expected) < 4 * se + 1e-4, (q, emp, expected)


def test_alpha_2_is_gaussian():
    y = stable.sample(2.0, 0.0, 1.5, 0.3, N, rng.stream(9, "a2"))
    # variance is 2 sigma^2 in this parameterization, not sigma^2
    assert abs(y.mean() - 0.3) < 0.02
    assert abs(y.var() - 2 * 1.5 ** 2) < 0.05
    # fourth standardized moment of a Gaussian
    z = (y - y.mean()) / y.std()
    assert abs(np.mean(z ** 4) - 3.0) < 0.05


def test_alpha_1_is_cauchy():
    z = stable.sample(1.0, 0.0, 2.0, -1.0, N, rng.stream(9, "a1"))
    q25, q50, q75 = np.percentile(z, [25, 50, 75])
    assert abs(q50 - (-1.0)) < 0.02
    assert abs(q25 - (-3.0)) < 0.03
    assert abs(q75 - 1.0) < 0.03


def test_scale_location_transform():
    a = stable.standard(1.8, 0.0, 1000, rng.stream(4, "t"))
    b = stable.sample(1.8, 0.0, 2.5, -0.75, 1000, rng.stream(4, "t"))
    np.testing.assert_allclose(b, 2.5 * a - 0.75, rtol=1e-12)


def test_skewed_alpha_1_finite_and_shifted():
    # the alpha=1 branch has its own log form plus a location correction;
    # the reference median 0.4952 comes from an independent implementation
    pos = stable.sample(1.0, 0.9, 1.0, 0.0, N, rng.stream(2, "skew"))
    neg = stable.sample(1.0, -0.9, 1.0, 0.0, N, rng.stream(2, "skew"))
    assert np.all(np.isfinite(pos))
    assert abs(np.median(pos) - 0.4952) < 0.03
    np.testing.assert_allclose(np.median(pos), -np.median(neg), atol=0.05)


def test_skewed_alpha_15_median():
    x = stable.sample(1.5, 1.0, 1.0, 0.0, N, rng.stream(3, "skew15"))
    assert np.all(np.isfinite(x))
    # fully right-skewed: reference median -0.7167 (independent implementation)
    assert abs(np.median(x) - (-0.7167)) < 0.03


def test_parameter_validation():
    g = rng.stream(0, "v")
    with pytest.raises(ValueError):
        stable.sample(2.3, 0.0, 1.0, 0.0, 4, g)
    with pytest.raises(ValueError):
        stable.sample(1.5, 1.5, 1.0, 0.0, 4, g)
    with pytest.raises(ValueError):
        stable.sample(1.5, 0.0, -1.0, 0.0, 4, g)
    # NaN and infinite scales and locations are named, not drawn from
    for sigma, delta, named in [(math.nan, 0.0, "sigma"), (math.inf, 0.0, "sigma"),
                                (np.array([[1.0], [math.nan]]), 0.0, "sigma"),
                                (1.0, math.nan, "delta"), (1.0, -math.inf, "delta")]:
        with pytest.raises(ValueError, match=f"{named} must be .*finite"):
            stable.sample(1.8, 0.0, sigma, delta, 3, g)


def test_reproducible():
    a = stable.sample(1.8, 0.2, 1.0, 0.0, 32, rng.stream(7, "r"))
    b = stable.sample(1.8, 0.2, 1.0, 0.0, 32, rng.stream(7, "r"))
    np.testing.assert_array_equal(a, b)
