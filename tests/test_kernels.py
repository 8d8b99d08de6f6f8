import math

import numpy as np
import pytest

from abchmm.kernels import NORMS, smooth_weight, within_ball


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
