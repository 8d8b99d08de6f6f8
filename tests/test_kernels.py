import math

import numpy as np
import pytest

from abchmm.kernels import NORMS, ball_uniform, log_ball_volume, \
    smooth_weight, within_ball


def _reference(diff, eps, norm):
    if norm == "linf":
        return np.max(np.abs(diff), axis=-1) <= eps
    return np.sqrt(np.sum(diff * diff, axis=-1)) <= eps


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("shape", [(40,), (3, 40)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_within_ball_matches_reference(m, shape, norm):
    eps = 0.75
    rs = np.random.default_rng(m)
    diff = rs.uniform(-1.5, 1.5, size=shape + (m,))
    # points exactly on the boundary, in every coordinate and of both signs
    diff[..., 0, :] = eps
    diff[..., 1, :] = -eps
    diff[..., 2, :] = 0.0
    diff[..., 2, -1] = eps
    diff[..., 3, :] = 0.0
    diff[..., 3, 0] = -eps
    got = within_ball(diff, eps, norm)
    assert got.dtype == bool and got.shape == shape
    np.testing.assert_array_equal(got, _reference(diff, eps, norm))
    assert got[..., 2:4].all()
    if norm == "linf":
        assert got[..., :2].all()


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_within_ball_rejects_nan(m, norm):
    diff = np.zeros((2, 5, m))
    for j in range(m):
        diff[0, j, j] = np.nan
    got = within_ball(diff, 1.0, norm)
    np.testing.assert_array_equal(got[0], [j >= m for j in range(5)])
    assert got[1].all()


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_within_ball_writes_into_out(m, norm):
    # with out, diff is scratch: the result is the same as without
    rs = np.random.default_rng(m)
    diff = rs.uniform(-1.5, 1.5, size=(3, 41, m))
    diff[1, ::5, -1] = np.nan
    want = within_ball(diff, 0.75, norm)
    out = np.ones((3, 41), dtype=bool)
    assert within_ball(diff.copy(), 0.75, norm, out=out) is out
    np.testing.assert_array_equal(out, want)


def test_within_ball_one_point():
    # a single (m,) point is one row
    np.testing.assert_array_equal(within_ball(np.array([0.5, -0.2]), 0.5),
                                  [True])
    np.testing.assert_array_equal(within_ball(np.array([0.5, -0.6]), 0.5),
                                  [False])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nan_point_weighs_nothing_under_both_kernels(m):
    # 1% of the points have a NaN coordinate: the uniform kernel puts them
    # outside its ball and the gaussian kernel gives them weight 0; every
    # other weight keeps the bytes of the formula on finite input
    eps = 0.5
    rs = np.random.default_rng(m)
    diff = rs.normal(scale=0.5, size=(2, 400, m))
    z = diff / eps
    want = np.exp(-0.5 * np.einsum("...j,...j->...", z, z)
                  - m * 0.5 * math.log(2.0 * math.pi))
    inside = within_ball(diff, eps)
    assert smooth_weight(diff, eps).tobytes() == want.tobytes()
    nan = np.zeros((2, 400), dtype=bool)
    nan[:, ::100] = True
    diff[:, ::100, rs.integers(0, m)] = np.nan
    got = smooth_weight(diff, eps)
    assert got.shape == (2, 400)
    np.testing.assert_array_equal(got[nan], 0.0)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    for norm in NORMS:
        np.testing.assert_array_equal(within_ball(diff, eps, norm)[nan],
                                      False)
    np.testing.assert_array_equal(within_ball(diff, eps)[~nan], inside[~nan])


@pytest.mark.parametrize("m, volume", [
    (1, lambda eps: 2.0 * eps),
    (2, lambda eps: math.pi * eps ** 2),
    (3, lambda eps: 4.0 / 3.0 * math.pi * eps ** 3)])
def test_l2_ball_volume(m, volume):
    # the Euclidean ball's closed form, through lgamma: at m = 1 it rounds
    # in the last digits apart from linf's m * log(2 eps)
    for eps in (0.3, 1.0, 2.5):
        assert log_ball_volume(eps, m, "l2") == pytest.approx(
            math.log(volume(eps)), rel=1e-14, abs=1e-14)
    assert log_ball_volume(0.3, 1, "l2") == pytest.approx(
        log_ball_volume(0.3, 1, "linf"), rel=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_l2_ball_draws_are_uniform_in_the_ball(m):
    # the radius of a uniform point of the unit ball in R^m has
    # P(|Z| <= r) = r^m
    from scipy.stats import kstest
    z = ball_uniform(m, 4000, np.random.default_rng(m), "l2")
    assert z.shape == (4000, m)
    radii = np.sqrt(np.sum(z * z, axis=1))
    assert within_ball(z, 1.0, "l2").all() and radii.max() <= 1.0
    assert kstest(radii, lambda r: np.clip(r, 0.0, 1.0) ** m).pvalue > 1e-3
    # the direction is uniform too: every coordinate has mean 0
    assert np.all(np.abs(z.mean(axis=0)) < 4.0 * math.sqrt(1.0 / 4000))
