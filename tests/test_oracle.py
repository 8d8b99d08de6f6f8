"""The forward machinery against independent brute-force enumeration."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from abchmm import kernels, oracle, rng, sampling, smc
from abchmm.kernels import KERNELS
from abchmm.models import PerturbationSpec, builtin_model, check_theta, laws


@pytest.fixture(scope="module")
def gauss():
    return builtin_model("finite_gaussian", hyper={"param": "mean_scale"})


@pytest.fixture(scope="module")
def short_data(gauss):
    return sampling.simulate(gauss, [0.7, 1.1], 6, seed=21)


def test_forward_matches_brute_force(gauss, short_data):
    g = rng.stream(0, "theta-draws")
    for _ in range(5):
        theta = np.array([g.uniform(-2, 2), g.uniform(0.3, 2.5)])
        for pert in (None, PerturbationSpec(epsilon=0.4),
                     PerturbationSpec(epsilon=0.4, kernel="gaussian")):
            ll = oracle.forward_loglik(gauss, theta, short_data, pert)
            bf = oracle.brute_force_loglik(gauss, theta, short_data, pert)
            assert ll == pytest.approx(bf, rel=1e-10)


def test_brute_force_guard(gauss):
    with pytest.raises(ValueError, match="infeasible"):
        oracle.brute_force_loglik(gauss, [0.0, 1.0], np.zeros(40))


def test_grid_matches_loop(gauss, short_data):
    thetas = np.array([[0.1, 0.8], [0.7, 1.1], [-1.0, 2.0]])
    pert = PerturbationSpec(epsilon=0.3)
    grid = oracle.forward_loglik_grid(gauss, thetas, short_data, pert)
    loop = [oracle.forward_loglik(gauss, t, short_data, pert) for t in thetas]
    np.testing.assert_allclose(grid, loop, rtol=1e-12)


def test_exact_smc_target_shift(gauss, short_data):
    pert = PerturbationSpec(epsilon=0.4)
    n = short_data.observations.shape[0]
    target = oracle.exact_smc_target(gauss, [0.7, 1.1], short_data, pert)
    ll = oracle.forward_loglik(gauss, [0.7, 1.1], short_data, pert)
    assert target == pytest.approx(ll + n * math.log(2 * 0.4), rel=1e-12)
    # gaussian kernel: the scale is log eps per observation, not log 2 eps
    pg = PerturbationSpec(epsilon=0.4, kernel="gaussian")
    tg = oracle.exact_smc_target(gauss, [0.7, 1.1], short_data, pg)
    lg = oracle.forward_loglik(gauss, [0.7, 1.1], short_data, pg)
    assert tg == pytest.approx(lg + n * math.log(0.4), rel=1e-12)


def test_score_matches_fd(gauss):
    data = sampling.simulate(gauss, [0.7, 1.1], 200, seed=4)
    for pert in (None, PerturbationSpec(epsilon=0.3),
                 PerturbationSpec(epsilon=0.3, kernel="gaussian")):
        theta = np.array([0.55, 0.95])
        score = oracle.forward_score(gauss, theta, data, pert)
        h = 1e-5
        fd = np.empty_like(score)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (oracle.forward_loglik(gauss, up, data, pert)
                     - oracle.forward_loglik(gauss, dn, data, pert)) / (2 * h)
        np.testing.assert_allclose(score, fd, rtol=1e-4)


def test_score_on_many_random_instances(gauss):
    g = rng.stream(1, "instances")
    for i in range(10):
        theta = np.array([g.uniform(-1.5, 1.5), g.uniform(0.4, 2.0)])
        data = sampling.simulate(gauss, theta, 60, seed=100 + i)
        eps = float(g.uniform(0.1, 0.8))
        pert = PerturbationSpec(epsilon=eps)
        score = oracle.forward_score(gauss, theta, data, pert)
        h = 1e-5
        for j in range(2):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd = (oracle.forward_loglik(gauss, up, data, pert)
                  - oracle.forward_loglik(gauss, dn, data, pert)) / (2 * h)
            assert score[j] == pytest.approx(fd, rel=2e-4, abs=1e-6)


def _mixed_brute_force(model, theta, ys, pert, noisy_mask):
    """Path enumeration with per-step emission channel chosen by the mask."""
    theta = np.asarray(theta, dtype=float)
    n, k = ys.shape[0], model.n_states
    e_clean = oracle.emission_matrix(model, theta, ys, None)
    e_noisy = oracle.emission_matrix(model, theta, ys, pert)
    emis = np.where(noisy_mask[:, None], e_noisy, e_clean)
    p = np.asarray(model.transition_matrix(theta), dtype=float)
    init = np.asarray(model.initial_dist(theta), dtype=float)
    total = []
    for path in itertools.product(range(k), repeat=n):
        path = np.asarray(path)
        lp = math.log(init[path[0]]) \
            + np.log(p[path[:-1], path[1:]]).sum() \
            + np.log(emis[np.arange(n), path]).sum()
        total.append(lp)
    return float(logsumexp(np.asarray(total)))


def test_mixed_channel_score_batch(gauss):
    # every boundary's score against central differences of the brute-force
    # log-likelihood of its mixed sequence
    pert = PerturbationSpec(epsilon=0.5)
    g = rng.stream(3, "mixed")
    y = np.stack([g.normal(size=5), g.normal(size=5)])         # (R=2, n=5)
    y_eps = y + g.uniform(-0.5, 0.5, size=y.shape)
    theta = np.array([0.4, 1.2])
    scores = oracle.boundary_scores(gauss, theta, pert, y, y_eps, range(6))
    h = 1e-5
    for b, score in scores.items():
        mask = np.arange(5) >= b
        for r in range(2):
            ys = np.where(mask, y_eps[r], y[r])
            for j in range(2):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (_mixed_brute_force(gauss, up, ys, pert, mask)
                      - _mixed_brute_force(gauss, dn, ys, pert, mask)) / (2 * h)
                assert score[r, j] == pytest.approx(fd, rel=2e-4, abs=1e-6)


def test_score_batch_extremes_match_single(gauss, short_data):
    # one channel on every step, against the single-series routes; the
    # boundary scorer's extremes, all noisy (0) and all clean (n), are those
    # one-channel scores bit for bit
    pert = PerturbationSpec(epsilon=0.5)
    ys = short_data.observations[:, 0][None, :]
    theta = [0.7, 1.1]
    n = ys.shape[1]
    ends = oracle.boundary_scores(gauss, theta, pert, ys, ys, (0, n))
    for channel, b in ((pert, 0), (None, n)):
        ll, score = oracle.forward_score_batch(gauss, theta, ys, pert=channel)
        assert ll[0] == pytest.approx(
            oracle.forward_loglik(gauss, theta, short_data, channel), rel=1e-12)
        np.testing.assert_allclose(
            score[0], oracle.forward_score(gauss, theta, short_data, channel),
            rtol=1e-10)
        np.testing.assert_array_equal(ends[b], score)


@pytest.mark.parametrize("r", [1, 3])
def test_every_score_is_a_c_ordered_rows_first_array(gauss, r):
    # the kernel carries its rows last, and _forward_finish hands the scores
    # out rows-first in C order, so a reduction over the replicates
    # (fisher._outer_mean_se) adds in one order whatever the kernel's
    # layout: both channels, and boundaries at 0, inside and at n, alone
    # and together
    pert = PerturbationSpec(epsilon=0.5)
    g = rng.stream(4, "c-order")
    y = g.normal(size=(r, 6))
    y_eps = y + g.uniform(-0.5, 0.5, size=y.shape)
    theta = [0.4, 1.2]
    scores = [oracle.forward_score_batch(gauss, theta, y, channel)[1]
              for channel in (None, pert)]
    for bs in ([0], [3], [6], [0, 3, 6]):
        got = oracle.boundary_scores(gauss, theta, pert, y, y_eps, bs)
        assert list(got) == bs
        scores += got.values()
    for score in scores:
        assert score.shape == (r, 2) and score.flags.c_contiguous


def test_long_series_stability():
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [1.0], 1_000_000, seed=8,
                             with_hidden=False)
    ll = oracle.forward_loglik(model, [1.0], data, None)
    assert math.isfinite(ll)
    # per observation the log-likelihood sits near the entropy rate
    assert -2.5 < ll / 1e6 < -1.0


def test_filter_matches_brute_force_posterior(gauss, short_data):
    theta = np.array([0.7, 1.1])
    filters, incr = oracle.forward_filter(gauss, theta, short_data)
    ys = short_data.observations[:, 0]
    n, k = ys.shape[0], 2
    e = oracle.emission_matrix(gauss, theta, ys, None)
    p = gauss.transition_matrix(theta)
    init = gauss.initial_dist(theta)
    # posterior of X_t given y_{0:t} by enumeration over prefix paths
    for t in (0, 2, 5):
        post = np.zeros(k)
        for path in itertools.product(range(k), repeat=t + 1):
            path = np.asarray(path)
            w = init[path[0]] * np.prod(p[path[:-1], path[1:]]) \
                * np.prod(e[np.arange(t + 1), path])
            post[path[-1]] += w
        post /= post.sum()
        np.testing.assert_allclose(filters[t], post, rtol=1e-10)
    # log-normalizer increments accumulate to the log-likelihood
    assert incr.sum() == pytest.approx(
        oracle.forward_loglik(gauss, theta, short_data, None), rel=1e-12)


def test_point_mass_init(gauss, short_data):
    filters, _ = oracle.forward_filter(gauss, [0.7, 1.1], short_data, init=1)
    assert filters.shape[1] == 2
    vector, _ = oracle.forward_filter(gauss, [0.7, 1.1], short_data,
                                      init=[0.0, 1.0])
    np.testing.assert_array_equal(vector, filters)


@pytest.mark.parametrize("init", [[2.0, 3.0], 5, -1, 1.0, True,
                                  [0.5, 0.5, 0.0], [np.nan, 1.0],
                                  [1.5, -0.5]])
def test_bad_filter_init_rejected(gauss, short_data, init):
    # not a law over the two states: it used to come back as plausible
    # increments (a vector) or end in an IndexError (a state out of range)
    with pytest.raises(ValueError, match="init must be"):
        oracle.forward_filter(gauss, [0.7, 1.1], short_data, init=init)
    with pytest.raises(ValueError, match="init must be"):
        oracle.filter_tv_forgetting(gauss, [0.7, 1.1], short_data,
                                    init_a=init)


def _iid_abc_log_likelihood_grid(thetas, data, epsilon):
    """The referee: the exact ABC log-likelihood of the two-point i.i.d.
    model at every scalar of ``thetas``.  Per observation, P(the ball
    around y is hit) = 1/2 * 1{|theta - y| <= eps} + 1/2 * 1{|theta + y| <=
    eps}; -inf as soon as one observation's ball misses both support
    points."""
    ys = oracle.as_obs_1d(data)
    th = np.asarray(thetas, dtype=float).reshape(-1, 1)
    prob = 0.5 * (np.abs(th - ys[None, :]) <= epsilon) \
        + 0.5 * (np.abs(th + ys[None, :]) <= epsilon)
    with np.errstate(divide="ignore"):
        return np.where(np.all(prob > 0.0, axis=1),
                        np.sum(np.log(np.maximum(prob, 1e-300)), axis=1),
                        -np.inf)


def test_iid_closed_form():
    data = np.array([1.0, -1.0, 1.0, 1.0])
    # per observation: half mass at theta, half at -theta
    grid = _iid_abc_log_likelihood_grid(np.array([0.0, 1.0, 3.0]), data, 1.5)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(4 * math.log(0.5))
    assert grid[2] == -math.inf
    assert _iid_abc_log_likelihood_grid([3.0], data, 0.5)[0] == -math.inf


def test_generic_oracle_matches_two_point_closed_form():
    # the point-mass model runs through the generic forward recursion; on
    # the likelihood scale it differs from the closed form only by the
    # n * log(2 eps) shift, which cancels exactly where the likelihood is
    # one (0.0) and keeps -inf where a ball misses both support points
    model = builtin_model("iid_pm_theta")
    raw = sampling.simulate(model, [1.0], 40, seed=7, with_hidden=False)
    thetas = np.linspace(0.0, 3.0, 301)
    for eps in (0.25, 0.5, 1.0, 1.5, 2.5):
        pert = PerturbationSpec(epsilon=eps)
        for data in (raw, sampling.noisify(raw, pert, seed=11)):
            ref = _iid_abc_log_likelihood_grid(thetas, data, eps)
            got = oracle.forward_loglik_grid(model, thetas[:, None], data, pert) \
                + 40 * oracle.log_weight_scale(model, pert)
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)
            np.testing.assert_array_equal(np.isneginf(got), np.isneginf(ref))
            finite = np.isfinite(ref)
            np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-13)
    at_one = oracle.forward_loglik_grid(model, thetas[:, None], raw,
                                        PerturbationSpec(epsilon=1.5))
    assert np.any(at_one == -40 * math.log(3.0))
    assert oracle.has_closed_form(model, PerturbationSpec(epsilon=1.5))
    assert not oracle.has_closed_form(model, None)
    assert not oracle.has_closed_form(
        model, PerturbationSpec(epsilon=1.5, kernel="gaussian"))


def test_point_mass_ball_tie_matches_particle_kernel():
    # the rounded 1.0 + 0.3 equals 1.3, so a test against the ends y - eps
    # and y + eps would accept what |1.3 - 1.0| <= 0.3 rejects
    model = builtin_model("iid_pm_theta")
    theta = np.linspace(0.0, 3.0, 301)[130]          # 1.3; |1.3 - 1| > 0.3
    pert = PerturbationSpec(epsilon=0.3)
    particle = smc.smc_abc_likelihood(model, [theta], [1.0], pert, 16, seed=0)
    assert particle.log_value == -math.inf
    assert oracle.exact_smc_target(model, [theta], [1.0], pert) == -math.inf


def test_point_mass_ball_prob_is_the_particle_kernel():
    # every theta of a fine grid, data on both sides: the ball probability
    # of each state is the particle kernel's indicator on that state's
    # pseudo-observation
    model = builtin_model("iid_pm_theta")
    thetas = np.linspace(0.0, 3.0, 301)[:, None]
    states = np.tile([0, 1], (thetas.shape[0], 1))
    values = model.obs_sampler(thetas, states, np.empty((2, 0)))   # (G, 2, 1)
    for y in (1.0, -1.0):
        kernel = kernels.within_ball(values - y, 0.3)               # (G, 2)
        ball = np.array([model.emission_ball_prob(th, np.array([y]), eps=0.3)[0]
                         for th in thetas])
        np.testing.assert_array_equal(ball, kernel.astype(float))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_native_scale_identities_on_random_models(draw):
    k = draw.draw(st.integers(1, 3), label="n_states")
    rows = np.array([draw.draw(st.lists(st.floats(0.05, 1.0), min_size=k,
                                        max_size=k)) for _ in range(k)])
    model = builtin_model("finite_gaussian", hyper={
        "transition": (rows / rows.sum(axis=1, keepdims=True)).tolist(),
        "mu_coeff": draw.draw(st.lists(st.floats(-2.0, 2.0), min_size=k,
                                       max_size=k)),
        "sigma": draw.draw(st.floats(0.3, 2.0))})
    theta = [draw.draw(st.floats(-2.0, 2.0), label="theta")]
    n = draw.draw(st.integers(1, 6), label="n")
    ys = np.array(draw.draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                     max_size=n)))
    pert = PerturbationSpec(epsilon=draw.draw(st.floats(0.05, 2.0)),
                            kernel=draw.draw(st.sampled_from(KERNELS)))
    target = oracle.exact_smc_target(model, theta, ys, pert)
    ll = oracle.forward_loglik(model, theta, ys, pert)
    bf = oracle.brute_force_loglik(model, theta, ys, pert)
    if math.isinf(bf):
        assert ll == bf and target == bf
        return
    assert target == pytest.approx(
        ll + n * oracle.log_weight_scale(model, pert), rel=1e-12)
    assert ll == pytest.approx(bf, rel=1e-8, abs=1e-8)


def _forward_loop(p, init, emis):
    """Per-step scaled forward recursion, one batch row at a time: the
    reference for the product reduction in ``oracle._forward_batch``.

    Returns the log-likelihoods (G,) and the sums of the absolute log
    increments (G,), the magnitude the log-likelihood is accumulated from.
    """
    g, n, k = emis.shape
    ps = np.broadcast_to(p, (g, k, k))
    inits = np.broadcast_to(init, (g, k))
    out, size = np.empty(g), np.zeros(g)
    for r in range(g):
        alpha, ll = inits[r], 0.0
        for t in range(n):
            b = (alpha @ ps[r]) * emis[r, t]
            c = b.sum()
            if c == 0.0:
                ll = -math.inf
                break
            alpha, ll = b / c, ll + math.log(c)
            size[r] += abs(math.log(c))
        out[r] = ll
    return out, size


def _assert_same_loglik(got, want, size, n):
    """-inf in the same rows; elsewhere equal to 1e-12 relative to the
    summed magnitude ``size``, plus 1e-12 per step: either side rounds each
    step's weight, so a log-likelihood near zero (weights near one, or
    increments that cancel) has no relative precision of its own."""
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    live = np.isfinite(want)
    assert np.all(np.abs(got[live] - want[live]) <= 1e-12 * (size[live] + n))


def _draw_transition(draw, gen, k, size):
    """(size, K, K) transition matrices: strictly positive, or with exact
    zeros -- the identity, an absorbing last state, a left-to-right chain,
    or a state that no row enters."""
    rows = gen.uniform(0.05, 1.0, size=(size, k, k))
    shape = draw.draw(st.sampled_from(
        ["positive", "identity", "absorbing", "left_to_right", "unentered"]),
        label="transition")
    if shape == "identity":
        rows = np.broadcast_to(np.eye(k), rows.shape).copy()
    elif shape == "absorbing":
        rows[:, -1, :-1] = 0.0
    elif shape == "left_to_right":
        rows *= np.triu(np.ones((k, k)))
    elif shape == "unentered" and k > 1:
        rows[:, :, 0] = 0.0
    return rows / rows.sum(axis=-1, keepdims=True)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_reduction_matches_step_loop(draw):
    k = draw.draw(st.integers(1, 3), label="n_states")
    g = draw.draw(st.integers(1, 4), label="batch")
    n = draw.draw(st.integers(1, 300), label="n")
    shared = draw.draw(st.booleans(), label="shared_p")
    spread = draw.draw(st.floats(0.0, 20.0), label="log_spread")
    offset = draw.draw(st.floats(0.0, 600.0), label="log_offset")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = _draw_transition(draw, gen, k, 1 if shared else g)
    p = p[0] if shared else p
    init = gen.dirichlet(np.ones(k), size=g)
    if draw.draw(st.booleans(), label="point_mass_init"):
        init = np.eye(k)[gen.integers(0, k, size=g)]
    trend = draw.draw(st.floats(0.0, 10.0), label="log_trend")
    zeros = draw.draw(st.floats(0.0, 0.3), label="zero_share")
    # weights over many orders of magnitude within a step and from step to
    # step (so that the product of two raw steps can leave the double range),
    # a per-state trend (so that states drift apart over the series), zeros
    # that spare one state per step, and one all-zero step in each dead row:
    # the batch mixes dead and live rows
    log_w = gen.normal(0.0, 1.0, size=(g, n, k)) * spread \
        + gen.uniform(-1.0, 1.0, size=(g, n, 1)) * offset \
        + gen.normal(0.0, 1.0, size=(g, 1, k)) * trend * np.arange(n)[:, None]
    emis = np.exp(np.clip(log_w, -700.0, 700.0))
    zero = gen.random((g, n, k)) < zeros
    np.put_along_axis(zero, gen.integers(0, k, size=(g, n, 1)), False, axis=-1)
    emis[zero] = 0.0
    dead = np.array(draw.draw(st.lists(st.booleans(), min_size=g, max_size=g),
                              label="dead"))
    emis[dead, gen.integers(0, n)] = 0.0
    # a small entry budget cuts the series into time blocks, the last one
    # ragged
    budget = draw.draw(st.integers(1, g * k * k * (n + 1)), label="block")
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", budget):
        got = oracle._forward_batch(p, init, emis)
    _assert_same_loglik(got, *_forward_loop(p, init, emis), n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_grid_rows_equal_their_one_row_calls(draw):
    # the reduction's time blocks depend on n and K alone, so every row of a
    # G-row call equals its one-row call bit for bit; a small entry budget
    # makes the series cross block edges and the rows run in several chunks
    k = draw.draw(st.integers(1, 4), label="n_states")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = gen.uniform(0.05, 1.0, size=(k, k))
    model = builtin_model("finite_gaussian", hyper={
        "param": "scale", "transition": (p / p.sum(axis=1, keepdims=True))
        .tolist(), "mu": gen.normal(0.0, 2.0, size=k).tolist()})
    n = draw.draw(st.integers(1, 300), label="n")
    ys = gen.normal(0.0, 2.0, size=n)
    thetas = gen.uniform(0.05, 5.0, size=(draw.draw(st.integers(2, 12),
                                                    label="rows"), 1))
    pert = draw.draw(st.sampled_from([
        None, PerturbationSpec(epsilon=0.2),
        PerturbationSpec(epsilon=0.2, kernel="gaussian")]), label="pert")
    budget = draw.draw(st.integers(1, 40 * k * k), label="budget")
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", budget):
        grid = oracle.forward_loglik_grid(model, thetas, ys, pert)
        rows = [oracle.forward_loglik(model, th, ys, pert) for th in thetas]
    assert grid.tobytes() == np.array(rows).tobytes()


def _every_level_tree(p, init, emis):
    """``oracle._forward_tree`` with a rescale after every level: the
    reference its two-level cadence must equal bit for bit."""
    g, n, k = emis.shape
    e = np.moveaxis(emis, -1, 0)
    pk = np.moveaxis(p, 0, -1)[..., None]
    block = max(1, oracle._BLOCK_ENTRIES // (k * k) - 1)
    chunk = max(1, oracle._BLOCK_ENTRIES // (k * k * (min(block, n) + 1)))
    out = np.empty(g)
    for a in range(0, g, chunk):
        rows = slice(a, a + chunk)
        v = init[rows].T
        shift = np.zeros(v.shape[1], dtype=np.int64)
        for s in range(0, n, block):
            w = e[:, rows, s:s + block]
            m = np.empty((k, k, w.shape[1], w.shape[2] + 1))
            m[..., 0] = v
            np.multiply(pk[:, :, rows], w, out=m[..., 1:])
            shift += oracle._rescale(m)
            while m.shape[-1] > 1:
                if m.shape[-1] % 2:
                    m[..., -2:-1] = oracle._plane_product(m[..., -2:-1],
                                                          m[..., -1:])
                    m = m[..., :-1]
                m = oracle._plane_product(m[..., 0::2], m[..., 1::2])
                shift += oracle._rescale(m)
            v = m[0, :, :, 0]
        with np.errstate(divide="ignore"):
            out[rows] = shift * math.log(2.0) + np.log(oracle._state_sum(v))
    return out


# lengths on both sides of powers of two, where the tree's level count and
# the parity of each level's matrix count change
_TREE_LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64,
                 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_tree_rescaled_every_other_level_equals_every_level(draw):
    # a power of two scales a product exactly, so rescaling after every
    # second level (and after a block's last) changes no bit against a
    # rescale after every level, also with weights from 1e-300 to 1e3 and
    # zeros, and with P at the column-ratio limit, where a row of a product
    # of seven rescaled factors may sum to as little as 2^-448
    k = draw.draw(st.integers(1, 5), label="n_states")
    g = draw.draw(st.integers(1, 4), label="batch")
    n = draw.draw(st.sampled_from(_TREE_LENGTHS), label="n")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    if draw.draw(st.booleans(), label="at_ratio_limit"):
        # off-diagonal entries in [d, 2d) and one of exactly d per column,
        # with d = 1 / _MAX_COLUMN_RATIO: the diagonal rounds to one, so the
        # largest column ratio is the limit itself
        d = 1.0 / oracle._MAX_COLUMN_RATIO
        p = d * (1.0 + gen.random((g, k, k)))
        p[:, (np.arange(k) + 1) % k, np.arange(k)] = d
        p[:, np.arange(k), np.arange(k)] = 0.0
        p[:, np.arange(k), np.arange(k)] = 1.0 - p.sum(axis=-1)
        assert k == 1 or oracle._column_ratio(p) == oracle._MAX_COLUMN_RATIO
    else:
        p = gen.uniform(0.05, 1.0, size=(g, k, k))
        p /= p.sum(axis=-1, keepdims=True)
    init = gen.dirichlet(np.ones(k), size=g)
    emis = 10.0 ** gen.uniform(-300.0, 3.0, size=(g, n, k))
    zeros = draw.draw(st.floats(0.0, 0.5), label="zero_share")
    emis[gen.random((g, n, k)) < zeros] = 0.0
    budget = oracle._BLOCK_ENTRIES
    if draw.draw(st.booleans(), label="blocked"):
        block = draw.draw(st.sampled_from([b for b in _TREE_LENGTHS if b <= n]),
                          label="block")
        budget = (block + 1) * k * k
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", budget):
        got = oracle._forward_tree(p, init, emis)
        want = _every_level_tree(p, init, emis)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p, init", [
    (np.eye(3), [0.0, 0.0, 1.0]),                          # identity
    (np.array([[0.5, 0.5, 0.0],                            # absorbing
               [0.0, 0.5, 0.5],                            # last state
               [0.0, 0.0, 1.0]]), [0.0, 0.0, 1.0]),
])
def test_chain_with_zero_transitions_keeps_the_unlikely_state(p, init):
    # the chain never leaves the last state, the least likely one at every
    # step: a partial product scaled by its likeliest row loses that row to
    # underflow after about a hundred steps, so the loglik must not come
    # from such products
    n = 400
    emis = np.broadcast_to([1.0, 0.5, 1e-3], (1, n, 3))
    got = oracle._forward_batch(p, np.asarray(init), emis)
    assert got[0] == pytest.approx(n * math.log(1e-3), rel=1e-12)


def test_identity_chain_model_keeps_the_unlikely_state():
    # the same through a model: a chain that never switches, started in
    # the state that fits y=3 far worse
    model = builtin_model("finite_gaussian", hyper={
        "transition": [[1.0, 0.0], [0.0, 1.0]], "initial": [1.0, 0.0]})
    ys = np.full(300, 3.0)
    want = np.log(oracle.emission_matrix(model, [1.0], ys)[:, 0]).sum()
    assert oracle.forward_loglik(model, [1.0], ys) == pytest.approx(want,
                                                                    rel=1e-12)


def test_grid_with_theta_dependent_transition_matches_loop():
    # a transition matrix that moves with theta: each grid row runs on its
    # own; grids with dead rows are covered by the point-mass closed-form
    # test and the property test above
    model = dataclasses.replace(
        builtin_model("finite_gaussian"),
        transition_matrix=lambda th: np.array([[0.5 + 0.1 * th[0],
                                                0.5 - 0.1 * th[0]],
                                               [0.3, 0.7]]))
    ys = oracle.as_obs_1d(sampling.simulate(model, [1.0], 300, seed=6,
                                            with_hidden=False))
    pert = PerturbationSpec(epsilon=0.5)
    thetas = np.linspace(-2.0, 2.0, 5)[:, None]
    want, size = _forward_loop(
        np.stack([model.transition_matrix(th) for th in thetas]),
        model.initial_dist(thetas[0]),
        np.stack([oracle.emission_matrix(model, th, ys, pert) for th in thetas]))
    _assert_same_loglik(oracle.forward_loglik_grid(model, thetas, ys, pert)
                        + 300 * oracle.log_weight_scale(model, pert),
                        want, size, 300)


@pytest.mark.parametrize("n", [1, 100, 257, 1000])
def test_all_accept_run_is_exactly_zero(n):
    # every ball holds both support points of the point-mass model at
    # theta 0, so each step's weight is exactly one and so is the product
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], n, seed=n, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    assert oracle.exact_smc_target(model, [0.0], data, pert) == 0.0
    grid = oracle.forward_loglik_grid(model, [[0.0], [0.2], [0.4]], data,
                                      pert)
    assert np.all(grid + n * oracle.log_weight_scale(model, pert) == 0.0)


def test_filter_forgetting_bound(gauss):
    data = sampling.simulate(gauss, [0.7, 1.1], 60, seed=2)
    out = oracle.filter_tv_forgetting(gauss, [0.7, 1.1], data)
    assert 0 < out.rho_hat < 1
    assert out.tv.shape == (60,)
    bound = out.rho_hat ** np.arange(1, 61)
    assert np.all(out.tv <= bound + 1e-12)
    # forgetting is geometric: far past initializations are irrelevant
    assert out.tv[-1] < 1e-6


def test_filter_forgetting_constant_ignores_outliers():
    # one observation at 40 drives every emission density to zero; the
    # minorization constant uses the transition matrix only, so it stays
    # informative and the envelope still holds
    model = builtin_model("finite_gaussian")
    ys = sampling.simulate(model, [1.0], 50, seed=29).observations[:, 0]
    ys[20] = 40.0
    out = oracle.filter_tv_forgetting(model, [1.0], ys)
    assert (out.c_lo, out.c_hi) == (0.3, 0.7)
    assert 0 < out.rho_hat < 1
    assert np.all(out.tv <= out.bound + 1e-12)
    assert out.rho_hat == oracle.filter_tv_forgetting(
        model, [1.0], ys, pert=PerturbationSpec(epsilon=0.3)).rho_hat


def test_non_finite_observation_rejected(gauss):
    ys = np.array([0.1, -0.4, np.nan, 0.3])
    with pytest.raises(ValueError, match="step 2 is not finite"):
        oracle.forward_loglik(gauss, [0.7, 1.1], ys)
    ys[2] = np.inf
    with pytest.raises(ValueError, match="step 2 is not finite"):
        oracle.forward_loglik_grid(gauss, [[0.7, 1.1]], ys,
                                   PerturbationSpec(epsilon=0.3))


def test_score_batch_rejects_non_finite_observations(gauss):
    ys = np.array([[0.1, -0.4, 0.3], [0.2, np.nan, 0.5]])
    with pytest.raises(ValueError, match="step 1 is not finite"):
        oracle.forward_score_batch(gauss, [0.7, 1.1], ys)


def test_nonstationary_initial_forward_matches_brute_force():
    # initial_dist is the law before the first observation, in the forward
    # recursion and in brute-force enumeration alike
    model = builtin_model("finite_gaussian", hyper={"initial": [1.0, 0.0]})
    ys = [0.3, -1.2, 0.8]
    assert oracle.brute_force_loglik(model, [1.0], ys) == pytest.approx(
        -4.751949017233476, rel=1e-8)
    for pert in (None, PerturbationSpec(epsilon=0.4),
                 PerturbationSpec(epsilon=0.4, kernel="gaussian")):
        assert oracle.forward_loglik(model, [1.0], ys, pert) == pytest.approx(
            oracle.brute_force_loglik(model, [1.0], ys, pert), rel=1e-8)


def test_upper_tail_ball_probability_does_not_cancel():
    # the model is symmetric under y -> -y with the states swapped, so the
    # ball probabilities at +-10 agree; Phi(hi) - Phi(lo) used to cancel to
    # 0 in the upper tail
    model = builtin_model("finite_gaussian")
    pert = PerturbationSpec(epsilon=0.3)
    up = oracle.exact_smc_target(model, [1.0], [10.0], pert)
    down = oracle.exact_smc_target(model, [1.0], [-10.0], pert)
    assert up == pytest.approx(down, rel=1e-12)
    assert up == pytest.approx(-41.637, abs=1e-3)


# ---------------------------------------------------------------------------
# the per-step kernel's tangent rows against the normalised sensitivity
# loop below, which renormalises the filter and its derivatives each step


def _forward_sens_batch(p, dp, init, dinit, emis, demis):
    """Forward pass with parameter sensitivities.

    p: (K, K); dp: (d, K, K); init: (K,); dinit: (d, K);
    emis: (G, n, K); demis: (G, n, d, K).
    Returns (loglik (G,), score (G, d)).
    """
    g, n, k = emis.shape
    d = dp.shape[0]
    alpha = np.broadcast_to(init, (g, k)).copy()
    dalpha = np.broadcast_to(dinit, (g, d, k)).copy()
    ll = np.zeros(g)
    score = np.zeros((g, d))
    dead = np.zeros(g, dtype=bool)
    for t in range(n):
        e_t = emis[:, t]                       # (G, K)
        de_t = demis[:, t]                     # (G, d, K)
        pred = alpha @ p                       # (G, K)
        dpred = dalpha @ p + np.einsum("gk,dkj->gdj", alpha, dp)
        b = pred * e_t
        db = dpred * e_t[:, None, :] + pred[:, None, :] * de_t
        c = b.sum(axis=1)                      # (G,)
        dc = db.sum(axis=2)                    # (G, d)
        newly_dead = (c <= 0.0) & ~dead
        dead |= newly_dead
        safe_c = np.where(c > 0.0, c, 1.0)
        ratio = dc / safe_c[:, None]
        alpha = np.where(c[:, None] > 0.0, b / safe_c[:, None], 1.0 / k)
        dalpha = np.where(c[:, None, None] > 0.0,
                          db / safe_c[:, None, None]
                          - alpha[:, None, :] * ratio[:, :, None],
                          0.0)
        with np.errstate(divide="ignore"):
            step_log = np.where(c > 0.0, np.log(safe_c), -np.inf)
        live = ~dead
        ll = ll + np.where(live, step_log, 0.0)
        score = score + np.where(live[:, None], ratio, 0.0)
    ll[dead] = -np.inf
    score[dead] = np.nan
    return ll, score


def _assert_same_score(got, want, ll):
    """NaN in the same rows (the dead ones); elsewhere equal to 1e-10
    relative to ``|want| + 1``.  Either side rounds each of at most a
    hundred steps at ~1e-16 of the running tangent, so 1e-10 leaves a
    margin of about 1e4."""
    dead = np.isneginf(ll)
    assert np.all(np.isnan(got[dead])) and np.all(np.isnan(want[dead]))
    err = np.abs(got[~dead] - want[~dead])
    assert np.all(err <= 1e-10 * (np.abs(want[~dead]) + 1.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_tangent_kernel_matches_sensitivity_loop(draw):
    k = draw.draw(st.integers(1, 3), label="n_states")
    d = draw.draw(st.integers(1, 3), label="param_dim")
    g = draw.draw(st.integers(1, 4), label="batch")
    n = draw.draw(st.integers(1, 100), label="n")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = _draw_transition(draw, gen, k, 1)[0]
    init = gen.dirichlet(np.ones(k))
    if draw.draw(st.booleans(), label="point_mass_init"):
        init = np.eye(k)[gen.integers(0, k)]
    # weights spread over a few orders of magnitude within a step, a common
    # factor per step up to e^±600, a slow per-state trend, zeros that spare
    # one state per step and an all-zero step in each dead row; states
    # stay far from drifting e^700 apart, where both sides lose digits to
    # subnormals
    spread = draw.draw(st.floats(0.0, 4.0), label="log_spread")
    offset = draw.draw(st.floats(0.0, 600.0), label="log_offset")
    trend = draw.draw(st.floats(0.0, 0.5), label="log_trend")
    log_w = gen.normal(0.0, 1.0, size=(g, n, k)) * spread \
        + gen.uniform(-1.0, 1.0, size=(g, n, 1)) * offset \
        + gen.normal(0.0, 1.0, size=(g, 1, k)) * trend * np.arange(n)[:, None]
    emis = np.exp(np.clip(log_w, -700.0, 700.0))
    zero = gen.random((g, n, k)) < draw.draw(st.floats(0.0, 0.3),
                                              label="zero_share")
    np.put_along_axis(zero, gen.integers(0, k, size=(g, n, 1)), False, axis=-1)
    emis[zero] = 0.0
    dead = np.array(draw.draw(st.lists(st.booleans(), min_size=g, max_size=g),
                              label="dead"))
    emis[dead, gen.integers(0, n)] = 0.0
    # nonzero tangents of the size of the entries they belong to, as a
    # model's derivatives are: dP keeps the zeros of P, and no built-in
    # model has a dP at all, so this is what tests its (K, d·K) layout.  A
    # tangent on a state the filter has all but left makes the normalised
    # loop subtract nearly equal numbers, so it is no reference there.
    dp = p * gen.normal(size=(d, k, k))
    dinit = init * gen.normal(size=(d, k))
    demis = emis[:, :, None, :] * gen.normal(size=(g, n, d, k))
    want_ll, want_score = _forward_sens_batch(p, dp, init, dinit, emis, demis)
    # the kernel's time-major layout, with the rows last
    state = oracle._forward_start(init, dinit, (g,))
    got_ll, got_score = oracle._forward_finish(oracle._forward_segment(
        p, dp, state, np.moveaxis(emis, 0, -1), np.moveaxis(demis, 0, -1)))
    _assert_same_loglik(got_ll, want_ll, _forward_loop(p, init, emis)[1], n)
    _assert_same_score(got_score, want_score, want_ll)


def _rows_first(emis, demis):
    """Time-major weights (n, K, R) and Jacobian (n, d, K, R) as (R, n, K)
    and (R, n, d, K)."""
    return emis.transpose(2, 0, 1), demis.transpose(3, 0, 1, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_score_batch_matches_sensitivity_loop_on_mixed_channels(draw):
    # forward_score_batch (one channel) and boundary_scores (mixed) evaluate
    # each channel on its own steps; the reference evaluates both on every
    # step and picks one per step
    k = draw.draw(st.integers(1, 3), label="n_states")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    p = _draw_transition(draw, gen, k, 1)[0]
    model = builtin_model("finite_gaussian", hyper={
        "param": "mean_scale", "transition": p.tolist(),
        "initial": gen.dirichlet(np.ones(k)).tolist(),
        "mu_coeff": gen.uniform(-2.0, 2.0, size=k).tolist()})
    theta = np.array([draw.draw(st.floats(-2.0, 2.0), label="mean"),
                      draw.draw(st.floats(0.3, 2.0), label="scale")])
    r = draw.draw(st.integers(1, 4), label="replicates")
    n = draw.draw(st.integers(1, 30), label="n")
    ys = gen.normal(0.0, 2.0, size=(r, n))
    # a ball around 1e3 holds no probability under either channel
    dead = np.array(draw.draw(st.lists(st.booleans(), min_size=r, max_size=r),
                              label="dead"))
    ys[dead, gen.integers(0, n)] = 1e3
    y_eps = ys + gen.uniform(-0.5, 0.5, size=ys.shape)
    pert = PerturbationSpec(epsilon=draw.draw(st.floats(0.05, 1.0)),
                            kernel=draw.draw(st.sampled_from(KERNELS)))
    boundaries = draw.draw(st.one_of(st.none(), st.lists(
        st.integers(0, n), min_size=1, max_size=4)), label="boundaries")
    dp = oracle._central_diff(model.transition_matrix, theta, model.theta_box)
    dinit = oracle._central_diff(model.initial_dist, theta, model.theta_box)

    def reference(steps):
        # the kernel's time-major (n, K, R) and (n, d, K, R), back to
        # rows-first
        mixed = np.where(steps, y_eps, ys)
        e_ex, de_ex = _rows_first(*oracle._emissions_and_jac(
            model, theta, mixed, None))
        e_pe, de_pe = _rows_first(*oracle._emissions_and_jac(
            model, theta, mixed, pert))
        return _forward_sens_batch(
            p, dp, model.initial_dist(theta), dinit,
            np.where(steps[None, :, None], e_pe, e_ex),
            np.where(steps[None, :, None, None], de_pe, de_ex))

    if boundaries is None:
        want_ll, want_score = reference(np.ones(n, dtype=bool))
        want_ll -= n * oracle.log_weight_scale(model, pert)
        got_ll, got_score = oracle.forward_score_batch(model, theta, y_eps,
                                                       pert)
        np.testing.assert_array_equal(np.isneginf(got_ll), dead)
        np.testing.assert_array_equal(np.isneginf(want_ll), dead)
        np.testing.assert_allclose(got_ll[~dead], want_ll[~dead], rtol=1e-12,
                                   atol=1e-12 * n)
        _assert_same_score(got_score, want_score, want_ll)
        return
    got = oracle.boundary_scores(model, theta, pert, ys, y_eps, boundaries)
    for b in set(boundaries):
        want_ll, want_score = reference(np.arange(n) >= b)
        np.testing.assert_array_equal(np.isneginf(want_ll), dead)
        _assert_same_score(got[b], want_score, want_ll)


def test_score_batch_dead_rows_are_nan_and_live_rows_unchanged():
    # balls of radius 0.25 around the data: the one around 5 misses both
    # support points ±1 of the second series; the one around 1.2500005
    # misses +1 by less than the difference step, so the Jacobian of the
    # third series' dead step is not zero and its raw ratio is infinite
    model = builtin_model("iid_pm_theta")
    pert = PerturbationSpec(epsilon=0.25)
    ys = np.array([[1.0, -1.1, 0.9, -1.0],
                   [1.0, 5.0, -1.0, 1.0],
                   [-0.8, 1.2500005, 1.0, -0.9],
                   [-0.8, 1.2, 1.0, -0.9]])
    ll, score = oracle.forward_score_batch(model, [1.0], ys, pert)
    np.testing.assert_array_equal(np.isneginf(ll), [False, True, True, False])
    assert np.all(np.isnan(score[1:3]))
    for r in (0, 3):
        one_ll, one_score = oracle.forward_score_batch(model, [1.0], ys[r],
                                                       pert)
        assert np.isfinite(ll[r]) and ll[r] == one_ll[0]
        np.testing.assert_array_equal(score[r], one_score[0])
        assert not np.any(np.isnan(score[r]))
        assert ll[r] == oracle.forward_loglik(model, [1.0], ys[r], pert)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_score_batch_rows_do_not_depend_on_batch_width(k, draw):
    # each row of a wide batch, bit for bit, is the one-row call of its series:
    # exact, perturbed and mixed channels, dead rows, and a P that moves with
    # theta (nonzero dP) or does not.  The sizes come from the seeded
    # generator, which spreads them more evenly than hypothesis draws do.
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    r, n = gen.integers(1, 301), gen.integers(1, 13)
    p, q = _draw_transition(draw, gen, k, 2)
    model = builtin_model("finite_gaussian", hyper={
        "param": "mean_scale", "transition": p.tolist(),
        "initial": gen.dirichlet(np.ones(k)).tolist(),
        "mu_coeff": gen.uniform(-2.0, 2.0, size=k).tolist()})
    if draw.draw(st.booleans(), label="moving_p"):
        model = dataclasses.replace(model, transition_matrix=lambda th:
                                    p + (q - p) * (0.5 + 0.1 * th[0]))
    theta = np.array([draw.draw(st.floats(-2.0, 2.0), label="mean"),
                      draw.draw(st.floats(0.3, 2.0), label="scale")])
    ys = gen.normal(0.0, 2.0, size=(r, n))
    # a ball around 1e3 holds no probability under either channel
    dead = gen.random(r) < draw.draw(st.floats(0.0, 0.3), label="dead_share")
    ys[dead, gen.integers(0, n, size=dead.sum())] = 1e3
    channel = draw.draw(st.sampled_from(["exact", "perturbed", "mixed"]),
                        label="channel")
    pert = None if channel == "exact" else PerturbationSpec(
        epsilon=draw.draw(st.floats(0.05, 1.0), label="eps"),
        kernel=draw.draw(st.sampled_from(KERNELS), label="kernel"))
    if channel == "mixed":
        # every branch row of the boundary scorer, a few boundaries at once
        bs = np.unique(gen.integers(0, n + 1, size=3)).tolist()

        def run(rows):
            got = oracle.boundary_scores(model, theta, pert, ys[rows],
                                         ys[rows], bs)
            return np.stack([got[b] for b in bs], axis=1)
    else:
        def run(rows):
            ll, score = oracle.forward_score_batch(model, theta, ys[rows],
                                                   pert)
            return np.concatenate([ll[:, None], score], axis=1)
    out = run(slice(None))
    # a dead row has loglik -inf and NaN scores
    np.testing.assert_array_equal(
        np.isnan(out.reshape(r, -1)).any(axis=1), dead)
    for i in range(r):
        assert np.array_equal(out[i:i + 1], run(slice(i, i + 1)),
                              equal_nan=True)


def test_score_scaling_stays_exact_at_a_subnormal_filter_sum():
    # at theta (0, 1) the density of 38 is about e^-723, so the filter sum
    # after that step is subnormal: the rescaling factor 2^-exp is then past
    # the largest double, and a plain multiply by it would give inf
    model = builtin_model("finite_gaussian", hyper={"param": "mean_scale"})
    ys = np.array([0.1, 0.3, 38.0, 0.2, -0.4])
    theta = np.array([0.0, 1.0])
    ll, score = oracle.forward_score_batch(model, theta, ys)
    assert ll[0] == pytest.approx(-726.7447, abs=1e-4)
    # the weight of 38 is itself subnormal, with about 31 significant bits,
    # which the product reduction and the kernel round differently
    assert ll[0] == pytest.approx(oracle.forward_loglik(model, theta, ys),
                                  abs=1e-8)
    h = 1e-6
    for j in range(2):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (oracle.forward_loglik(model, up, ys)
              - oracle.forward_loglik(model, dn, ys)) / (2 * h)
        assert score[0, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_score_with_theta_dependent_transition_matches_fd():
    # P and the initial law move with theta, so dP and dinit come from
    # central differences and feed the tangent rows: a kernel that skipped
    # the nonzero dP terms fails here
    def transition(th):
        return np.array([[0.5 + 0.1 * th[0], 0.5 - 0.1 * th[0]],
                         [0.3 - 0.05 * th[0], 0.7 + 0.05 * th[0]]])

    model = dataclasses.replace(
        builtin_model("finite_gaussian"), transition_matrix=transition,
        initial_dist=lambda th: np.array([0.6 + 0.1 * th[0],
                                          0.4 - 0.1 * th[0]]))
    ys = sampling.simulate(model, [1.0], 200, seed=12, with_hidden=False)
    for pert in (None, PerturbationSpec(epsilon=0.4),
                 PerturbationSpec(epsilon=0.4, kernel="gaussian")):
        for theta in (-1.5, 0.4, 2.0):
            score = oracle.forward_score(model, [theta], ys, pert)
            h = 1e-5
            fd = (oracle.forward_loglik(model, [theta + h], ys, pert)
                  - oracle.forward_loglik(model, [theta - h], ys, pert)) / (2 * h)
            assert score[0] == pytest.approx(fd, rel=1e-5, abs=1e-6)



def _without_jacobians(model):
    """``model`` without its ``*_jac`` callables, whose weights and laws
    raise at a theta outside ``theta_box``, as a custom model's may."""
    def inside_box_only(f):
        def checked(theta, *args, **kwargs):
            check_theta(model, theta)
            return f(theta, *args, **kwargs)
        return checked

    names = ("emission_density", "emission_ball_prob", "emission_smooth_weight",
             "transition_matrix", "initial_dist")
    return dataclasses.replace(
        model, emission_density_jac=None, emission_ball_prob_jac=None,
        emission_smooth_weight_jac=None,
        **{name: inside_box_only(getattr(model, name)) for name in names
           if getattr(model, name) is not None})


@pytest.mark.parametrize("mode, box, corners", [
    ("mean", None, [[-3.0], [3.0]]),
    ("scale", None, [[0.05], [5.0]]),
    ("mean_scale", None, [[-3.0, 0.05], [3.0, 5.0], [-3.0, 5.0]]),
    ("mean", [[0.5, 0.5000001]], [[0.5], [0.5000001]]),
], ids=["mean", "scale", "mean_scale", "box-narrower-than-a-step"])
def test_score_at_the_box_edges_steps_inward(mode, box, corners):
    # without a *_jac pair the weights are differentiated by finite
    # differences; at an edge of theta_box the step goes inward (no further
    # than the box reaches), so the score is finite and matches the one
    # from the built-in Jacobian, to the first-order error of a one-sided
    # difference
    model = builtin_model("finite_gaussian", hyper={"param": mode},
                          theta_box=box)
    no_jac = _without_jacobians(model)
    for i, theta in enumerate(corners):
        ys = sampling.simulate(model, theta, 50, seed=3 + i, with_hidden=False)
        for pert in (None, PerturbationSpec(epsilon=0.3),
                     PerturbationSpec(epsilon=0.3, kernel="gaussian")):
            want = oracle.forward_score(model, theta, ys, pert)
            got = oracle.forward_score(no_jac, theta, ys, pert)
            assert np.all(np.isfinite(got)), (theta, pert)
            np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-6)


def test_point_mass_score_at_the_box_edges():
    # iid_pm_theta has no Jacobian: its ball indicator is differentiated
    # inward at theta = 0 and 3, where it is flat, so the score is 0; a
    # series the edge cannot produce has a NaN score, not an error
    model = _without_jacobians(builtin_model("iid_pm_theta"))
    pert = PerturbationSpec(epsilon=0.5)
    assert oracle.forward_score(model, [0.0], [0.2, -0.3], pert)[0] == 0.0
    assert oracle.forward_score(model, [3.0], [2.8, -3.1], pert)[0] == 0.0
    assert np.isnan(oracle.forward_score(model, [0.0], [1.0, -1.0], pert)[0])


def test_theta_dependent_laws_at_the_box_edge_step_inward():
    # dP and dinit by one-sided differences at theta = -3 and 3, the ends
    # of the box: the score matches a one-sided difference of the
    # log-likelihood
    def transition(th):
        return np.array([[0.5 + 0.1 * th[0], 0.5 - 0.1 * th[0]],
                         [0.3 - 0.05 * th[0], 0.7 + 0.05 * th[0]]])

    model = _without_jacobians(dataclasses.replace(
        builtin_model("finite_gaussian"), transition_matrix=transition,
        initial_dist=lambda th: np.array([0.6 + 0.1 * th[0],
                                          0.4 - 0.1 * th[0]])))
    ys = sampling.simulate(model, [3.0], 200, seed=12, with_hidden=False)
    h = 1e-5
    for theta, step in ((3.0, -h), (-3.0, h)):
        score = oracle.forward_score(model, [theta], ys)
        fd = (oracle.forward_loglik(model, [theta + step], ys)
              - oracle.forward_loglik(model, [theta], ys)) / step
        assert score[0] == pytest.approx(fd, rel=1e-4, abs=1e-5)


_EMISSION_CALLABLES = (
    "emission_density", "emission_ball_prob", "emission_smooth_weight",
    "emission_density_jac", "emission_ball_prob_jac",
    "emission_smooth_weight_jac")


def _c_ordered(model):
    """``model`` with every emission callable returning a C-ordered copy of
    the built-in's result, or of each array of a ``*_jac`` pair."""
    def wrap(f):
        def c_ordered(*args, **kwargs):
            got = f(*args, **kwargs)
            if isinstance(got, tuple):
                return tuple(np.ascontiguousarray(a) for a in got)
            return np.ascontiguousarray(got)
        return c_ordered

    return dataclasses.replace(model, **{
        name: wrap(getattr(model, name)) for name in _EMISSION_CALLABLES
        if getattr(model, name) is not None})


def _result_bytes(result):
    """The C-order bytes of an array, of each array of a tuple, or of each
    ``(key, array)`` of a dict."""
    if isinstance(result, dict):
        return [(key, value.tobytes()) for key, value in result.items()]
    if isinstance(result, tuple):
        return [value.tobytes() for value in result]
    return result.tobytes()


@pytest.mark.parametrize("name, hyper, theta", [
    ("finite_gaussian", {"param": "mean"}, [0.7]),
    ("finite_gaussian", {"param": "scale"}, [1.3]),
    ("finite_gaussian", {"param": "mean_scale", "mu_coeff": [-1.3, 0.2, 0.7],
                         "transition": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3],
                                        [0.3, 0.3, 0.4]]}, [0.7, 1.1]),
    ("iid_pm_theta", None, [1.2]),
])
def test_emission_memory_order_changes_no_bit(name, hyper, theta):
    # the built-ins return state-major views; the same values in C order,
    # as a user callable may return them, give every result bit for bit
    model = builtin_model(name, hyper=hyper)
    c_model = _c_ordered(model)
    ys = sampling.simulate(model, theta, 300, seed=4).observations[:, 0]
    y = ys.reshape(3, 100)
    y_eps = y + rng.stream(4, "noise").uniform(-0.4, 0.4, size=y.shape)
    thetas = np.array([theta, theta]) * [[1.0], [0.9]]
    exact = model.emission_density is not None
    # iid_pm_theta has only the uniform kernel's closed form, so its mixed
    # sequences can start noisy only: boundary 0
    boundaries = (0, 40, 100) if exact else (0,)
    perts = [PerturbationSpec(epsilon=0.4)]
    if exact:
        perts += [None, PerturbationSpec(epsilon=0.4, kernel="gaussian")]
    for pert in perts:
        # the two models do differ in layout
        assert oracle.emission_matrix(model, theta, ys, pert).flags.f_contiguous
        for call in (
                lambda m: oracle.emission_matrix(m, theta, ys, pert),
                lambda m: oracle.forward_loglik_grid(m, thetas, ys, pert),
                lambda m: oracle.forward_score_batch(m, theta, y_eps, pert),
                lambda m: oracle.boundary_scores(m, theta, pert, y, y_eps,
                                                 boundaries)):
            assert _result_bytes(call(model)) == _result_bytes(call(c_model))


def _weight_source(model, pert):
    """Weights from a source other than ``emission_matrix``: the model's
    closed-form pair called once per replicate series of ``obs`` (R, m),
    stacked C-ordered with the replicates last, the weights (m, K, R) and
    their Jacobian (m, d, K, R)."""
    name = "emission_ball_prob" if pert.kernel == "uniform" \
        else "emission_smooth_weight"
    pair = getattr(model, name + "_jac")

    def source(theta, obs):
        got = [pair(theta, ys, eps=pert.epsilon) for ys in obs]
        return (np.ascontiguousarray(np.stack([w for w, _ in got], axis=-1)),
                np.ascontiguousarray(np.stack(
                    [np.moveaxis(jac, 0, 1) for _, jac in got], axis=-1)))
    return source


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weights_from_another_source_enter_at_both_seams(k, kernel):
    # the recursions take any weights beside the laws: the model's own
    # weights, from another source in another memory order, give
    # forward_loglik_grid through _forward_batch and forward_score_batch
    # through _forward_segment a block at a time, bit for bit; estimated
    # weights enter at the same two places
    gen = np.random.default_rng(k)
    model = builtin_model("finite_gaussian", hyper={
        "param": "mean_scale",
        "transition": gen.dirichlet(np.ones(k), size=k).tolist(),
        "mu_coeff": gen.uniform(-2.0, 2.0, size=k).tolist()})
    pert = PerturbationSpec(epsilon=0.4, kernel=kernel)
    source = _weight_source(model, pert)
    theta = np.array([0.7, 1.1])
    obs = np.stack([sampling.simulate(model, theta, 40, seed=s,
                                      with_hidden=False).observations[:, 0]
                    for s in range(3)])
    shift = obs.shape[1] * oracle.log_weight_scale(model, pert)

    thetas = np.array([[0.7, 1.1], [-0.4, 0.6], [1.5, 2.0]])
    weights = np.ascontiguousarray(
        [source(th, obs[:1])[0][..., 0] for th in thetas])
    assert weights.flags.c_contiguous     # emission_matrix's are state-major
    got = oracle._forward_batch(*laws(model, thetas), weights) - shift
    assert got.tobytes() \
        == oracle.forward_loglik_grid(model, thetas, obs[0], pert).tobytes()

    p, dp, init, dinit = oracle._laws_and_jac(model, theta)
    state = oracle._forward_start(init, dinit, (len(obs),))
    for s in range(0, obs.shape[1], 7):
        state = oracle._forward_segment(p, dp, state,
                                        *source(theta, obs[:, s:s + 7]))
    ll, score = oracle._forward_finish(state)
    want_ll, want_score = oracle.forward_score_batch(model, theta, obs, pert)
    assert (ll - shift).tobytes() == want_ll.tobytes()
    assert score.tobytes() == want_score.tobytes()
