import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from abchmm import estimate, models, oracle, rng, sampling, smc
from abchmm.errors import ConfigError
from abchmm.models import (ModelSpec, ParameterVector, PerturbationSpec,
                           builtin_model, check_transition, draw_noise,
                           load_model_config, sample_categorical_rows,
                           stationary_dist)


def test_parameter_vector_validation():
    ParameterVector([0.5], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="outside box"):
        ParameterVector([1.5], [[0.0, 1.0]])
    # a NaN reads as it does on check_thetas
    with pytest.raises(ValueError, match=r"theta\[1\] = nan outside box"):
        ParameterVector([0.5, math.nan], [[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="lo < hi"):
        ParameterVector([0.5], [[1.0, 0.0]])


def test_a_fitted_parameter_vector_is_a_theta():
    # ParameterVector, what a fit returns, passes check_theta and with it
    # every one-theta entry
    model = builtin_model("finite_gaussian", hyper={"param": "mean_scale"})
    pert = PerturbationSpec(epsilon=0.3)
    ys = np.linspace(-1.5, 1.5, 6)
    result = estimate.exact_mle(model, ys, method="grid", grid_points=3)
    values = result.theta_hat.values
    assert oracle.forward_loglik(model, result.theta_hat, ys) \
        == oracle.forward_loglik(model, values, ys) == result.value
    a, b = (smc.smc_abc_likelihood(model, th, ys, pert, 64, seed=0)
            for th in (result.theta_hat, values))
    assert a.step_acceptance.tolist() == b.step_acceptance.tolist()
    assert a.log_value == b.log_value


def test_check_transition():
    with pytest.raises(ValueError):
        check_transition(np.array([[0.5, 0.6], [0.5, 0.5]]))
    p = check_transition(np.array([[0.9, 0.1], [0.4, 0.6]]))
    assert p.shape == (2, 2)


def test_model_laws_checked_at_construction():
    # dataclasses.replace builds a new ModelSpec, so it runs the check too
    base = builtin_model("finite_gaussian")
    bad_rows = np.array([[0.9, 0.9], [0.3, 0.7]])
    cases = [
        ({"transition_matrix": lambda th: bad_rows}, "rows must sum to 1"),
        ({"transition_matrix": lambda th: np.full((2, 2), -0.5) + np.eye(2) * 2},
         "negative entries"),
        ({"transition_matrix": lambda th: np.eye(3)}, r"shape \(3, 3\)"),
        ({"initial_dist": lambda th: np.array([0.5, 0.6])}, "not a law"),
        ({"initial_dist": lambda th: np.array([np.nan, 1.0])}, "not a law"),
        ({"initial_dist": lambda th: np.ones(3) / 3}, "not a law"),
    ]
    for change, problem in cases:
        with pytest.raises(ValueError, match=problem) as info:
            dataclasses.replace(base, **change)
        assert "model 'finite_gaussian'" in str(info.value)
    with pytest.raises(ValueError, match="model 'custom'.*rows must sum"):
        ModelSpec(name="custom", obs_dim=1, theta_box=np.array([[-1.0, 1.0]]),
                  transition_matrix=lambda th: bad_rows,
                  initial_dist=lambda th: np.array([0.5, 0.5]),
                  obs_sampler=base.obs_sampler, obs_noise=base.obs_noise)
    # a law that moves with theta is evaluated at the box centre only
    seen = []

    def moving(th):
        seen.append(th.copy())
        return np.array([[0.5 + 0.1 * th[0], 0.5 - 0.1 * th[0]], [0.3, 0.7]])

    dataclasses.replace(base, theta_box=np.array([[-2.0, 4.0]]),
                        transition_matrix=moving)
    assert len(seen) == 1 and seen[0].tolist() == [1.0]


def test_model_derives_param_dim_and_n_states():
    # d is the number of theta_box rows and K the size of the transition
    # matrix; neither is an argument, and hyper is optional
    base = builtin_model("finite_gaussian")
    p3 = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]])
    fields = dict(name="custom", obs_dim=1, theta_box=np.array([[-1.0, 1.0]]),
                  transition_matrix=lambda th: p3,
                  initial_dist=lambda th: np.ones(3) / 3,
                  obs_sampler=base.obs_sampler, obs_noise=base.obs_noise)
    custom = ModelSpec(**fields)
    assert (custom.param_dim, custom.n_states, custom.hyper) == (1, 3, {})
    for name in ("param_dim", "n_states"):
        with pytest.raises(TypeError, match=name):
            ModelSpec(**fields, **{name: 1})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(base, **{name: 1})
    # dataclasses.replace derives both again
    wide = dataclasses.replace(
        base, theta_box=np.array([[-3.0, 3.0], [0.1, 2.0]]))
    assert (wide.param_dim, wide.n_states) == (2, 2)
    three = dataclasses.replace(base, transition_matrix=lambda th: p3,
                                initial_dist=lambda th: stationary_dist(p3))
    assert (three.param_dim, three.n_states) == (1, 3)
    assert (base.param_dim, base.n_states) == (1, 2)
    with pytest.raises(ValueError, match="model 'custom': theta_box"):
        ModelSpec(**{**fields, "theta_box": np.empty((0, 2))})


def test_stationary_dist():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = stationary_dist(p)
    np.testing.assert_allclose(pi @ p, pi, atol=1e-12)
    np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_perturbation_spec():
    with pytest.raises(ValueError):
        PerturbationSpec(epsilon=-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(epsilon=0.5, kernel="box")
    p = PerturbationSpec(epsilon=0.0)
    assert p.is_exact
    # volume of the sup-ball in 1-d is 2 eps
    p = PerturbationSpec(epsilon=0.5)
    assert p.log_ball_volume(1) == pytest.approx(math.log(1.0))
    assert PerturbationSpec(epsilon=2.0).log_ball_volume(1) == pytest.approx(
        math.log(4.0))


def test_uniform_noise_moments():
    p = PerturbationSpec(epsilon=0.3)
    z = p.noise(1, 200_000, rng.stream(0, "z"))
    assert np.all(np.abs(z) <= 0.3)
    assert abs(z.var() - 0.3 ** 2 / 3) < 2e-4


def test_gaussian_noise_moments():
    p = PerturbationSpec(epsilon=0.3, kernel="gaussian")
    z = p.noise(1, 200_000, rng.stream(0, "z"))
    assert abs(z.var() - 0.3 ** 2) < 3e-4


# ---------------------------------------------------------------------------
# finite_gaussian emission family


@pytest.fixture(scope="module")
def gauss2():
    return builtin_model("finite_gaussian", hyper={"param": "mean_scale"})


def _gauss_model(mode, coeff, mu, **hyper):
    """finite_gaussian in ``mode``, given only the means key that mode
    reads: ``mu`` in scale mode, ``mu_coeff`` in the others."""
    key, value = ("mu", mu) if mode == "scale" else ("mu_coeff", coeff)
    return builtin_model("finite_gaussian", hyper={
        "param": mode, key: list(value), **hyper})


# three states, mu_coeff off ±1 and fixed means off ±1 and 0
_THREE_STATES = dict(
    coeff=[-1.3, 0.2, 0.7], mu=[-1.0, 0.0, 2.0],
    transition=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])


def test_interval_prob_matches_density_quadrature(gauss2):
    theta = np.array([0.8, 1.3])
    eps = 0.4
    for y in (-1.2, 0.0, 0.7):
        probs = gauss2.emission_ball_prob(theta, np.array([y]), eps=eps)[0]
        for k in range(gauss2.n_states):
            num, _ = quad(
                lambda u, k=k: gauss2.emission_density(theta, np.array([u]))[0, k],
                y - eps, y + eps)
            assert probs[k] == pytest.approx(num, rel=1e-8)


def test_smooth_density_matches_convolution(gauss2):
    # eps times the density convolved with N(0, eps^2)
    theta = np.array([0.8, 1.3])
    sd = 0.35
    for y in (-0.9, 0.4):
        vals = gauss2.emission_smooth_weight(theta, np.array([y]), eps=sd)[0] / sd
        for k in range(gauss2.n_states):
            num, _ = quad(
                lambda u, k=k: gauss2.emission_density(theta, np.array([u]))[0, k]
                * math.exp(-0.5 * ((y - u) / sd) ** 2)
                / (sd * math.sqrt(2 * math.pi)),
                y - 8, y + 8)
            assert vals[k] == pytest.approx(num, rel=1e-7)


def _fd_jac(fn, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    rows = []
    for j in range(theta.size):
        hj = h * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += hj
        dn[j] -= hj
        rows.append((fn(up) - fn(dn)) / (2 * hj))
    return np.stack(rows)


def test_emission_jacobians_vs_fd(gauss2):
    theta = np.array([0.6, 0.9])
    ys = np.array([-1.1, 0.2, 1.4])
    _, jac = gauss2.emission_density_jac(theta, ys)
    fd = _fd_jac(lambda t: gauss2.emission_density(t, ys), theta)
    np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-8)

    _, jac = gauss2.emission_ball_prob_jac(theta, ys, eps=0.3)
    fd = _fd_jac(lambda t: gauss2.emission_ball_prob(t, ys, eps=0.3), theta)
    np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-8)

    _, jac = gauss2.emission_smooth_weight_jac(theta, ys, eps=0.25)
    fd = _fd_jac(lambda t: gauss2.emission_smooth_weight(t, ys, eps=0.25),
                 theta)
    np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("mode", ["mean", "scale", "mean_scale"])
def test_interval_prob_jacobian_bytes_match_formulas(mode):
    # the in-place Jacobian gives the bytes of its formulas written out, on
    # both sides of the mean and far into the tails
    # mu_coeff off ±1, so that the order of its product with 1/s shows
    coeff = np.array([-1.3, 0.7])
    model = _gauss_model(mode, coeff, [-1.0, 1.0])
    theta = {"mean": [0.6], "scale": [0.9], "mean_scale": [0.6, 0.9]}[mode]
    mu = np.array([-1.0, 1.0]) if mode == "scale" else coeff * theta[0]
    s = 1.0 if mode == "mean" else theta[-1]
    ys = np.random.default_rng(3).normal(0.0, 4.0, size=2000)
    lo, hi = ys - 0.3, ys + 0.3
    zh = (hi[:, None] - mu[None, :]) / s
    zl = (lo[:, None] - mu[None, :]) / s

    def pdf(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    ph, pl = pdf(zh), pdf(zl)
    rows = []
    if mode != "scale":
        rows.append(-(ph - pl) / s * coeff[None, :])
    if mode != "mean":
        rows.append(-(ph * zh - pl * zl) / s)
    assert np.array_equal(model.emission_ball_prob_jac(theta, ys, eps=0.3)[1],
                          np.stack(rows))


def test_saturation_constants_are_what_ndtr_and_exp_give():
    # a dense scan past each threshold, out to the largest doubles: ndtr is
    # exactly 1.0 at and above 9 and exactly 0.0 at and below -40, and the
    # density exactly 0.0 for |z| >= 39, so taking the constant there
    # changes no bit
    from scipy.special import ndtr
    past = np.concatenate([np.linspace(0.0, 1e3, 400_001),
                           np.geomspace(1e3, 1e300, 2000), [np.inf]])
    assert np.all(ndtr(9.0 + past) == 1.0)
    assert np.all(ndtr(-40.0 - past) == 0.0)
    z = np.append(39.0 + past[past < 1e150], np.inf)   # z * z stays finite
    assert np.all(models._norm_pdf(z) == 0.0)
    assert np.all(models._norm_pdf(-z) == 0.0)
    # just inside the density's threshold the value is still subnormal
    assert models._norm_pdf(np.array([-38.5, 38.5])).min() > 0.0


def _old_norm_pdf(z):
    """The density as written before saturation: every entry through exp."""
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _old_weights_and_jac(mode, channel, coeff, theta, ys, eps):
    """The emission weights (K, n) and Jacobian (d, K, n) by the formulas
    each callable had before the pair: ndtr of two ``np.where`` selections
    and an unsaturated density, the smooth channel's scaled by eps
    afterwards."""
    from scipy.special import ndtr
    mu = np.array([-1.0, 0.0, 2.0]) if mode == "scale" else coeff * theta[0]
    s = 1.0 if mode == "mean" else theta[-1]
    mu = mu[:, None]
    rows = []
    if channel == "emission_ball_prob":
        zh = (ys + eps - mu) / s
        zl = (ys - eps - mu) / s
        upper = zl > 0.0
        w = ndtr(np.where(upper, -zl, zh)) - ndtr(np.where(upper, -zh, zl))
        ph, pl = _old_norm_pdf(zh), _old_norm_pdf(zl)
        if mode != "scale":
            rows.append(-(ph - pl) / s * coeff[:, None])
        if mode != "mean":
            rows.append(-(ph * zh - pl * zl) / s)
        return w, np.stack(rows)
    s_eff = s if channel == "emission_density" else math.sqrt(s * s + eps * eps)
    z = (ys - mu) / s_eff
    f = _old_norm_pdf(z) / s_eff
    if mode != "scale":
        rows.append(f * z / s_eff * coeff[:, None])
    if mode != "mean":
        ds = f * (z * z - 1.0) / s_eff
        rows.append(ds if channel == "emission_density" else ds * (s / s_eff))
    if channel == "emission_density":
        return f, np.stack(rows)
    return eps * f, eps * np.stack(rows)


# the ids keep the names the two perturbed channels had before they took
# (ys, eps), so each case keeps its id
@pytest.mark.parametrize("channel", ["emission_density", "emission_ball_prob",
                                     "emission_smooth_weight"],
                         ids=["emission_density", "emission_interval_prob",
                              "emission_smooth_density"])
@pytest.mark.parametrize("mode", ["mean", "scale", "mean_scale"])
def test_weights_and_jacobian_pair_bytes_match_old_formulas(mode, channel):
    # |z| from 0 to 1e3, on both sides of every mean: past 9, -40 and 39
    # the saturated constants stand in for ndtr and exp, and the upper-tail
    # flip is |ndtr(t zh) - ndtr(t zl)|; the weights-only callable, the
    # pair's weights and the old formulas agree bit for bit, and so do the
    # pair's Jacobian and the old one
    coeff = np.array(_THREE_STATES["coeff"])
    model = _gauss_model(mode, **_THREE_STATES)
    theta = np.array({"mean": [0.6], "scale": [0.9],
                      "mean_scale": [0.6, 0.9]}[mode])
    gen = np.random.default_rng(17)
    mag = np.concatenate([np.geomspace(1e-3, 1e3, 3000),
                          gen.uniform(0.0, 60.0, 3000),
                          np.linspace(8.0, 10.0, 500),
                          np.linspace(36.0, 42.0, 500)])
    ys = gen.permutation(np.concatenate([mag, -mag]))
    for eps in (0.3, 4.0, 100.0):
        kw = {} if channel == "emission_density" else {"eps": eps}
        weights = getattr(model, channel)(theta, ys, **kw)
        pair_w, pair_j = getattr(model, channel + "_jac")(theta, ys, **kw)
        old_w, old_j = _old_weights_and_jac(mode, channel, coeff, theta, ys,
                                            eps)
        assert weights.tobytes() == pair_w.tobytes() == old_w.T.tobytes()
        assert pair_j.tobytes() == old_j.transpose(0, 2, 1).tobytes()


def test_perturbed_density_is_interval_prob(gauss2):
    # uniform kernel: the oracle's perturbed emission is the ball
    # probability itself, the weight the particle filter averages
    pert = PerturbationSpec(epsilon=0.5)
    theta = np.array([0.3, 1.1])
    ys = np.array([-0.4, 0.9])
    expect = gauss2.emission_ball_prob(theta, ys, eps=0.5)
    np.testing.assert_array_equal(
        oracle.emission_matrix(gauss2, theta, ys, pert), expect)


def test_gaussian_kernel_perturbed_model_variance(gauss2):
    # gaussian kernel: eps times the density of N(mu, s^2) convolved with
    # N(0, eps^2), i.e. variance s^2 + eps^2
    pert = PerturbationSpec(epsilon=0.4, kernel="gaussian")
    theta = np.array([0.0, 1.0])
    ys = np.linspace(-3, 3, 7)
    expect = gauss2.emission_smooth_weight(theta, ys, eps=0.4)
    np.testing.assert_array_equal(
        oracle.emission_matrix(gauss2, theta, ys, pert), expect)
    widened = np.exp(-0.5 * ys ** 2 / 1.16) / math.sqrt(2 * math.pi * 1.16)
    np.testing.assert_allclose(expect[:, 1] / 0.4, widened, rtol=1e-12)


# ---------------------------------------------------------------------------
# builtins and config loading


def test_finite_gaussian_modes():
    mean = builtin_model("finite_gaussian")
    assert mean.param_dim == 1 and oracle.has_closed_form(mean)
    scale = builtin_model("finite_gaussian", hyper={"param": "scale"})
    assert scale.param_dim == 1
    assert scale.theta_box[0, 0] > 0
    both = builtin_model("finite_gaussian", hyper={"param": "mean_scale"})
    assert both.param_dim == 2
    one_state = builtin_model("finite_gaussian",
                              hyper={"transition": [[1.0]], "mu_coeff": [1.0]})
    assert one_state.n_states == 1


def test_iid_pm_theta():
    m = builtin_model("iid_pm_theta")
    assert not oracle.has_closed_form(m)
    states = np.array([0, 1, 1, 0])
    noise = m.obs_noise(rng.stream(0, "s"), 4)
    assert noise.shape == (4, 0)
    y = m.obs_sampler(np.array([[0.7]]), states[None], noise)
    np.testing.assert_allclose(y[0, :, 0], [-0.7, 0.7, 0.7, -0.7])


def test_two_state_alpha_stable():
    m = builtin_model("two_state_alpha_stable")
    assert not oracle.has_closed_form(m)
    assert m.param_dim == 2
    y = m.obs_sampler(np.array([[1.0, 0.0]]), np.zeros((1, 8), dtype=np.int64),
                      m.obs_noise(rng.stream(0, "s"), 8))
    assert y.shape == (1, 8, 1)
    np.testing.assert_allclose(m.initial_dist(np.array([1.0, 0.0])) @
                               m.transition_matrix(np.array([1.0, 0.0])),
                               m.initial_dist(np.array([1.0, 0.0])), atol=1e-12)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_two_state_alpha_stable_needs_a_positive_sigma(sigma):
    # a box may reach sigma <= 0; the transform refuses it, in a batch with
    # good rows, in simulation and in the filter.  A NaN or infinite sigma
    # reaches only a direct call of the transform: the box, which is finite,
    # refuses it first everywhere else
    m = builtin_model("two_state_alpha_stable", theta_box=[[-3, 5], [-3, 3]])
    noise = m.obs_noise(rng.stream(0, "s"), 8)
    states = np.zeros((2, 8), dtype=np.int64)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        m.obs_sampler(np.array([[1.0, 0.0], [sigma, 0.0]]), states, noise)
    refused = "sigma must be positive" if sigma <= 0.0 else "outside box"
    with pytest.raises(ValueError, match=refused):
        sampling.simulate(m, [sigma, 0.0], 5, seed=1)
    data = sampling.simulate(m, [1.0, 0.0], 5, seed=1, with_hidden=False)
    with pytest.raises(ValueError, match=refused):
        smc.smc_abc_likelihood(m, [sigma, 0.0], data, PerturbationSpec(0.5),
                               50, seed=2)


@pytest.mark.parametrize("name,hyper", [
    ("finite_gaussian", {"param": "mean"}),
    ("finite_gaussian", {"param": "scale"}),
    ("finite_gaussian", {"param": "mean_scale",
                         "transition": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1],
                                        [0.3, 0.3, 0.4]],
                         "mu_coeff": [-1.0, 0.0, 1.5]}),
    ("iid_pm_theta", None),
    ("two_state_alpha_stable", None),
])
def test_obs_sampler_rows_equal_single_theta_calls(name, hyper):
    # the batched contract: theta (G, d), states (G, N) and one noise draw
    # give (G, N, obs_dim), row g bit-identical to the G=1 call at
    # theta[g] on the same noise, which no call writes into (it is
    # read-only)
    m = builtin_model(name, hyper=hyper)
    g = rng.stream(1, "contract")
    thetas = g.uniform(m.theta_box[:, 0], m.theta_box[:, 1],
                       size=(4, m.param_dim))
    states = g.integers(0, m.n_states, size=(4, 50))
    noise = draw_noise(m, rng.stream(2, "obs"), 50)
    assert not noise.flags.writeable
    y = m.obs_sampler(thetas, states, noise)
    assert y.shape == (4, 50, m.obs_dim)
    for row in range(4):
        one = m.obs_sampler(thetas[row:row + 1], states[row:row + 1], noise)
        assert one.shape == (1, 50, m.obs_dim)
        assert y[row].tobytes() == one[0].tobytes()


def test_categorical_shared_uniforms_match_per_row_draws():
    probs = np.array([[0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.6, 0.0, 0.4],
                      [1.0, 0.0, 0.0]])
    u = rng.stream(3, "u").random(400)
    shared = sample_categorical_rows(probs, u)
    assert shared.shape == (4, 400)
    # every row inverts the same uniforms
    for r in range(4):
        own = np.searchsorted(np.cumsum(probs[r]), u, side="left")
        np.testing.assert_array_equal(shared[r], np.minimum(own, 2))
    # a zero-probability state is never drawn
    assert np.all(shared[1] == 1)
    assert not np.any(shared[2] == 1)
    assert np.all(shared[3] == 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_categorical_draws_into_the_given_buffer(k):
    probs = rng.stream(4, "p").dirichlet(np.ones(k), size=5)
    u = rng.stream(4, "u").random(300)
    buf = np.full((5, 300), -7, dtype=np.int64)
    assert sample_categorical_rows(probs, u, out=buf) is buf
    np.testing.assert_array_equal(buf, sample_categorical_rows(probs, u))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_categorical_masks_mark_the_draws_above_each_state(k):
    # plane j holds u > cum_j; the planes sum to the states, each row's
    # inversion of u by search, on ties with the cumulative sum too
    probs = rng.stream(5, "p").dirichlet(np.ones(k), size=6)
    probs[0] = np.eye(k)[k - 1]
    u = rng.stream(5, "u").random(301)
    cum = np.cumsum(probs, axis=1)
    u[:k - 1] = cum[1, :-1]
    above = np.ones((k - 1, 6, 301), dtype=bool)
    buf = np.full((6, 301), -7, dtype=np.int64)
    got = sample_categorical_rows(probs, u, out=buf, above=above)
    assert got is buf
    for j in range(k - 1):
        np.testing.assert_array_equal(above[j], u > cum[:, j, None])
    np.testing.assert_array_equal(above.sum(axis=0), got)
    for r in range(6):
        own = np.searchsorted(cum[r], u, side="left")
        np.testing.assert_array_equal(got[r], np.minimum(own, k - 1))


@pytest.mark.parametrize("mode, key", [
    ("mean", "mu"), ("scale", "mu_coeff"), ("scale", "sigma"),
    ("mean_scale", "mu"), ("mean_scale", "sigma")])
def test_hyper_key_the_mode_does_not_read_is_refused(mode, key):
    # the model would silently ignore it, and fits would return plausible
    # numbers for a model the user did not ask for; a value equal to the
    # default is refused too, since it was given
    value = {"mu": [-1.0, 1.0], "mu_coeff": [-1.0, 1.0], "sigma": 1.0}[key]
    with pytest.raises(ConfigError, match=f"hyper key '{key}' is not read "
                                          f"when 'param' is '{mode}'"):
        builtin_model("finite_gaussian", hyper={"param": mode, key: value})


def test_unknown_hyper_key_named():
    with pytest.raises(ConfigError, match="'sigmaa'"):
        builtin_model("finite_gaussian", hyper={"sigmaa": 2.0})


@pytest.mark.parametrize("name, hyper, key", [
    ("finite_gaussian", {"sigma": math.nan}, "sigma"),
    ("finite_gaussian", {"sigma": math.inf}, "sigma"),
    ("finite_gaussian", {"sigma": -1.0}, "sigma"),
    ("finite_gaussian", {"mu_coeff": [math.nan, 1.0]}, "mu_coeff"),
    ("finite_gaussian", {"param": "mean_scale", "mu_coeff": [-1.0, math.inf]},
     "mu_coeff"),
    ("finite_gaussian", {"param": "scale", "mu": [math.nan, 1.0]}, "mu"),
    ("finite_gaussian", {"param": "scale", "mu": [-math.inf, 1.0]}, "mu"),
    ("two_state_alpha_stable", {"state_values": [math.nan, 1.0]},
     "state_values"),
    ("two_state_alpha_stable", {"state_values": [-1.0, math.inf]},
     "state_values"),
    ("two_state_alpha_stable", {"state_values": [-1.0, 0.0, 1.0]},
     "state_values"),
    ("two_state_alpha_stable", {"alpha": 2.5}, "alpha"),
    ("two_state_alpha_stable", {"alpha": 0.0}, "alpha"),
    ("two_state_alpha_stable", {"alpha": math.nan}, "alpha"),
    # the state count is the size of 'transition', not a key of its own
    ("finite_gaussian", {"n_states": 2}, "n_states"),
    # two states, one per state value
    ("two_state_alpha_stable", {"transition": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1],
                                               [0.3, 0.3, 0.4]]}, "transition"),
])
def test_bad_hyper_value_named_at_construction(name, hyper, key):
    # a NaN or infinite hyperparameter is refused when the model is built;
    # it would otherwise come back as NaN observations or a NaN (or, for
    # the stable model's particle likelihood, a plausible) log-likelihood
    with pytest.raises(ConfigError, match=f"hyper key '{key}'"):
        builtin_model(name, hyper=hyper)


@pytest.mark.parametrize("hyper", [[1], 0, "sigma"])
def test_hyper_that_is_not_an_object_is_named(hyper):
    # a list once raised AttributeError, and 0 built the default model
    for name in ("finite_gaussian", "iid_pm_theta", "two_state_alpha_stable"):
        with pytest.raises(ConfigError, match=f"hyper of model '{name}'"):
            builtin_model(name, hyper=hyper)
    with pytest.raises(ConfigError, match="must be an object"):
        load_model_config({"model": "finite_gaussian", "hyper": hyper})


def test_unknown_model_named():
    with pytest.raises(ConfigError, match="no_such"):
        builtin_model("no_such")


def test_load_model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"model": "finite_gaussian", "hyper": {"sigma": 2.0}}')
    m = load_model_config(path)
    assert m.hyper["sigma"] == 2.0

    path.write_text('{"model": "finite_gaussian", "extra": 1}')
    with pytest.raises(ConfigError, match="'extra'"):
        load_model_config(path)

    path.write_text('{"hyper": {}}')
    with pytest.raises(ConfigError, match="'model'"):
        load_model_config(path)


def test_load_model_config_long_inline_json(tmp_path):
    # text longer than a file name may be is read as JSON, not as a path
    text = '{"model": "finite_gaussian", "hyper": {"sigma": 2.0}' \
        + " " * 280 + "}"
    assert load_model_config(text).hyper["sigma"] == 2.0
    with pytest.raises(ConfigError, match="JSON"):
        load_model_config("{" + " " * 300)
    with pytest.raises(ConfigError, match="JSON object"):
        load_model_config("[1, 2]")
    with pytest.raises(ConfigError, match="not found"):
        load_model_config(tmp_path / "missing.json")


# sha256 of each built-in emission callable's result, weights and
# Jacobians, on one fixed input per mode: three states, mu_coeff off ±1 and
# observations far into both tails.  Recorded before the callables computed
# state-major; the ball pins at eps 0.3 are those of the interval (ys - 0.3,
# ys + 0.3), and the smooth-weight pins those of 0.25 times the smooth
# density at sd 0.25.  A change here moves every oracle result, so it must
# be stated, not re-recorded.
_EMISSION_PINS = {
    "mean": {
        "emission_density":
            "a552c9e502e6178b96e941a6995315e740914155ede5d5544bfa723a210cf54f",
        "emission_ball_prob":
            "ad109abcf7b3f305cd0b97082d2620a6ffcb390777ecbd23b1528895bd37a497",
        "emission_smooth_weight":
            "990247a24c538f36711c157e8f747625339d3b7d1a7adad1245df145a8f6d1e5",
        "emission_density_jac":
            "ec5992fe2a9a265084db59fd472203781034428b23cf8f551c73f1ef52bb225b",
        "emission_ball_prob_jac":
            "badbf2745d517f0aaf301f2115e19f0a1652bcd548040d4631ca14103df16d80",
        "emission_smooth_weight_jac":
            "d85e68087a0a088a657f18dd178b7947722be0a9ad8c11f241d8e07c66e465b5",
    },
    "scale": {
        "emission_density":
            "61920fdca3bbc7eba6a8d8cd8aeacfac1c23c8e4021ef1ea41c01db9c1d3c461",
        "emission_ball_prob":
            "51a5bb7989c6d281a7c1db3f106da64a57f8bbefa82ea343d02dd2e60da4ac33",
        "emission_smooth_weight":
            "5526e510bea240bd5c83d309e2a6ee81ccc0f37610d5002cbed26b53b3f2ed10",
        "emission_density_jac":
            "a61032387a508ec4029035d23bd5887d69aca09404652f8508d85dad6ba99471",
        "emission_ball_prob_jac":
            "e5c31690d8d121553e8114e710237dc346ea8104e1a1276b10f20a8c89a4cd62",
        "emission_smooth_weight_jac":
            "710de3e82c5eb88dc54d48ffe057101af57ddf3694297b8fcc00617138ed0dd5",
    },
    "mean_scale": {
        "emission_density":
            "f4f99fe09516017b5f639433e50b31a480157b271ac112619be134dbba2584f0",
        "emission_ball_prob":
            "97fe9e9c9f5b3f9dc1ab39594f32b2307ec020991d5fabd5b46401ae90509cd0",
        "emission_smooth_weight":
            "ef326035e2aa37a05f1365ddc9ed29d6555bd64ce8588330ca8d14a741e4ac13",
        "emission_density_jac":
            "cba19a6ce5cc90d27774c7e73d220556a901ae0d7754ab5d0cc961add58318fd",
        "emission_ball_prob_jac":
            "5e9313ddc21fab66e7515921ac0f13c35c3620e5aa81a08fbeb9dc1133f19bc3",
        "emission_smooth_weight_jac":
            "792ab2540766350490833e781c2857dbfb5755e86603cdafecd738efa9a8a8d5",
    },
}


@pytest.mark.parametrize("mode", ["mean", "scale", "mean_scale"])
def test_emission_callable_bytes_are_pinned(mode):
    model = _gauss_model(mode, **_THREE_STATES)
    theta = np.array({"mean": [0.6], "scale": [0.9],
                      "mean_scale": [0.6, 0.9]}[mode])
    ys = np.random.default_rng(11).normal(0.0, 4.0, size=61)
    kw = {"emission_density": {}, "emission_ball_prob": {"eps": 0.3},
          "emission_smooth_weight": {"eps": 0.25}}
    for name, digest in _EMISSION_PINS[mode].items():
        got = getattr(model, name)(theta, ys, **kw[name.removesuffix("_jac")])
        if name.endswith("_jac"):       # the pin is the pair's Jacobian
            got = got[1]
        want = (len(theta), 61, 3) if name.endswith("_jac") else (61, 3)
        assert got.shape == want, name
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest, name


def test_iid_pm_theta_ball_indicator_bytes_are_pinned():
    ys = np.linspace(-2.0, 2.0, 21)
    got = builtin_model("iid_pm_theta").emission_ball_prob(
        np.array([1.2]), ys, eps=0.5)
    assert got.shape == (21, 2) and got.sum() == 10.0
    assert hashlib.sha256(got.tobytes()).hexdigest() == \
        "35652924c60d72a71514d3185ff64553920a8908540bb48c10e36bbcfad22b04"
