import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import estimate, oracle, rng, sampling, smc
from abchmm.kernels import KERNELS, NORMS
from abchmm.models import ModelSpec, PerturbationSpec, builtin_model


def _pm_data(n=30, seed=7):
    model = builtin_model("iid_pm_theta")
    return model, sampling.simulate(model, [1.0], n, seed=seed,
                                    with_hidden=False)


def test_all_accept_gives_exact_zero():
    model, data = _pm_data()
    pert = PerturbationSpec(epsilon=1.5)
    res = smc.smc_abc_likelihood(model, [0.0], data, pert, 200, seed=3)
    # every particle lands inside every ball: the estimate must be exactly
    # log 1 = 0.0, with no float drift from the weight normalization
    assert res.log_value == 0.0
    assert res.collapsed_at is None
    np.testing.assert_array_equal(res.step_acceptance, 1.0)
    assert res.se_proxy == 0.0


def test_collapse_reported():
    model, data = _pm_data()
    pert = PerturbationSpec(epsilon=0.5)
    res = smc.smc_abc_likelihood(model, [3.0], data, pert, 200, seed=3)
    assert res.log_value == -math.inf
    assert res.collapsed_at == 0
    assert math.isnan(res.se_proxy) or res.se_proxy == math.inf


def test_same_seed_same_value():
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 25, seed=5, with_hidden=False)
    pert = PerturbationSpec(epsilon=0.5)
    a = smc.smc_abc_likelihood(model, [0.8], data, pert, 500, seed=11)
    b = smc.smc_abc_likelihood(model, [0.8], data, pert, 500, seed=11)
    assert a.log_value == b.log_value
    c = smc.smc_abc_likelihood(model, [0.8], data, pert, 500, seed=12)
    assert a.log_value != c.log_value


def test_unbiased_against_oracle():
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 20, seed=5, with_hidden=False)
    pert = PerturbationSpec(epsilon=0.5)
    target = oracle.exact_smc_target(model, [0.8], data, pert)
    ratios = []
    for rep in range(60):
        res = smc.smc_abc_likelihood(model, [0.8], data, pert, 1000,
                                     seed=rng.derive_seed(100, rep))
        ratios.append(math.exp(res.log_value - target))
    ratios = np.asarray(ratios)
    se = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) < 3 * se + 1e-3


def test_gaussian_kernel_against_oracle():
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 15, seed=6, with_hidden=False)
    pert = PerturbationSpec(epsilon=0.4, kernel="gaussian")
    target = oracle.exact_smc_target(model, [0.8], data, pert)
    ratios = []
    for rep in range(60):
        res = smc.smc_abc_likelihood(model, [0.8], data, pert, 1000,
                                     seed=rng.derive_seed(200, rep))
        ratios.append(math.exp(res.log_value - target))
    ratios = np.asarray(ratios)
    se = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) < 3 * se + 1e-3


def test_unbiased_with_asymmetric_chain_and_nonstationary_start():
    # P is not symmetric and initial_dist is not stationary, so a transposed
    # prediction (P @ q for q @ P) or drawing the first state from
    # initial_dist instead of initial_dist @ P moves the mean ratio off 1
    model = builtin_model("finite_gaussian", hyper={
        "transition": [[0.9, 0.1], [0.4, 0.6]], "initial": [0.2, 0.8],
        "mu_coeff": [-2.0, 2.0]})
    data = np.array([1.8, 2.3, -1.9, 2.1, 1.7, -2.2, -1.8, 2.0])
    pert = PerturbationSpec(epsilon=0.5)
    target = oracle.exact_smc_target(model, [1.0], data, pert)
    ratios = np.asarray([
        math.exp(smc.smc_abc_likelihood(model, [1.0], data, pert, 1000,
                                        seed=rng.derive_seed(300, rep)).log_value
                 - target)
        for rep in range(60)])
    se = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) < 3 * se + 1e-3


def test_boolean_particle_count_rejected():
    model, data = _pm_data()
    with pytest.raises(ValueError,
                       match="n_particles must be an integer >= 1"):
        smc.smc_abc_likelihood(model, [1.0], data,
                               PerturbationSpec(epsilon=1.5), True, seed=0)


@pytest.mark.parametrize("kernel", ["uniform", "gaussian"])
def test_zero_tolerance_rejected(kernel):
    model, data = _pm_data()
    with pytest.raises(ValueError,
                       match=r"particle estimator needs epsilon > 0, got 0.0"):
        smc.smc_abc_likelihood(model, [1.0], data,
                               PerturbationSpec(epsilon=0.0, kernel=kernel),
                               64, seed=0)


def test_estimate_metadata():
    model, data = _pm_data()
    pert = PerturbationSpec(epsilon=1.5)
    res = smc.smc_abc_likelihood(model, [0.5], data, pert, 128, seed=9)
    assert res.n == 30
    assert res.n_particles == 128
    assert res.epsilon == 1.5
    assert res.seed == 9


def test_gaussian_weight_underflow_gives_finite_estimate():
    # an observation 12 sd out gives mean weights near 1e-40, whose square
    # underflows; the variance proxy must not divide by that square
    res = smc.smc_abc_likelihood(builtin_model("finite_gaussian"), [1.0],
                                 np.array([13.0]),
                                 PerturbationSpec(0.3, "gaussian"), 2000,
                                 seed=1)
    assert math.isfinite(res.log_value)
    assert res.collapsed_at is None


def test_non_finite_observation_rejected():
    model, data = _pm_data()
    obs = data.observations.copy()
    obs[4, 0] = np.nan
    with pytest.raises(ValueError, match="step 4 is not finite"):
        smc.smc_abc_likelihood(model, [1.0], obs,
                               PerturbationSpec(epsilon=1.5), 64, seed=0)


def _gauss_1d_model(fill=None):
    """One state, observations theta + N(0, 1); with ``fill``, every 100th
    particle's observation is ``fill`` instead."""
    def obs_sampler(theta, states, noise):
        y = theta[:, None, :1] + noise[None, :, None]
        if fill is not None:
            y[:, ::100] = fill
        return y

    return ModelSpec(
        name="gauss_1d", obs_dim=1, theta_box=np.array([[-3.0, 3.0]]),
        transition_matrix=lambda theta: np.ones((1, 1)),
        initial_dist=lambda theta: np.ones(1),
        obs_sampler=obs_sampler,
        obs_noise=lambda g, size: g.standard_normal(size))


@pytest.mark.parametrize("kernel", ["uniform", "gaussian"])
def test_nan_pseudo_observation_has_weight_zero(kernel):
    # 1% of the particles emit NaN: they weigh nothing under either kernel,
    # bit for bit as if they had landed far from every observation
    data = sampling.simulate(_gauss_1d_model(), [0.5], 30, seed=2,
                             with_hidden=False)
    pert = PerturbationSpec(0.5, kernel)
    nan, far = (smc.smc_abc_likelihood(_gauss_1d_model(fill), [0.5], data,
                                       pert, 400, seed=8)
                for fill in (np.nan, 1e6))
    assert nan.collapsed_at is None
    assert math.isfinite(nan.log_value) and math.isfinite(nan.se_proxy)
    assert _bits(nan) == _bits(far)
    clean = smc.smc_abc_likelihood(_gauss_1d_model(), [0.5], data, pert,
                                   400, seed=8)
    assert nan.log_value < clean.log_value


def _gauss_2d_model():
    """One state, 2-D observations theta + N(0, I): the two ball norms
    differ here."""
    return ModelSpec(
        name="gauss_2d", obs_dim=2, theta_box=np.array([[-3.0, 3.0]]),
        transition_matrix=lambda theta: np.ones((1, 1)),
        initial_dist=lambda theta: np.ones(1),
        obs_sampler=lambda theta, states, noise: theta[:, None, :1] + noise,
        obs_noise=lambda g, size: g.standard_normal((size, 2)))


def test_observation_dimension_mismatch_rejected():
    model = _gauss_2d_model()
    pert = PerturbationSpec(epsilon=1.0)
    with pytest.raises(ValueError, match="2-D observations"):
        smc.smc_abc_likelihood(model, [0.0], np.zeros(10), pert, 64, seed=0)
    with pytest.raises(ValueError, match="2-D observations"):
        smc.smc_abc_likelihood(model, [0.0], np.zeros((10, 3)), pert, 64,
                               seed=0)
    ok = smc.smc_abc_likelihood(model, [0.0], np.zeros((10, 2)), pert, 64,
                                seed=0)
    assert math.isfinite(ok.log_value)


def test_old_sampler_shape_rejected():
    # a sampler written for one theta and flat states: the filter names the
    # contract instead of broadcasting its output into the wrong shape
    model = ModelSpec(
        name="flat", obs_dim=1, theta_box=np.array([[-3.0, 3.0]]),
        transition_matrix=lambda theta: np.ones((1, 1)),
        initial_dist=lambda theta: np.ones(1),
        obs_sampler=lambda theta, states, noise: theta[0] + noise,
        obs_noise=lambda g, size: g.standard_normal((size, 1)))
    with pytest.raises(ValueError, match="obs_sampler of model 'flat'"):
        smc.smc_abc_likelihood(model, [0.0], np.zeros(5),
                               PerturbationSpec(epsilon=1.0), 16, seed=0)


# ---------------------------------------------------------------------------
# a batch of candidate thetas against one single-theta run per candidate


_BATCH_MODELS = {
    "finite_gaussian": (
        builtin_model("finite_gaussian", hyper={"param": "mean_scale"}),
        [0.7, 1.1]),
    "two_state_alpha_stable": (builtin_model("two_state_alpha_stable"),
                               [1.0, 0.0]),
    "iid_pm_theta": (builtin_model("iid_pm_theta"), [1.0]),
    "gauss_2d": (_gauss_2d_model(), [0.5]),
}
_BATCH_DATA = {name: sampling.simulate(model, truth, 25, seed=4,
                                       with_hidden=False)
               for name, (model, truth) in _BATCH_MODELS.items()}


def _bits(est):
    """Every output of one estimate, as bytes: equal bits, not equal values."""
    return (np.array([est.log_value, est.se_proxy]).tobytes(),
            est.collapsed_at, est.step_acceptance.tobytes(),
            est.ess_trace.tobytes(), est.n, est.n_particles, est.seed)


def _assert_batch_equals_singles(name, thetas, pert, n_particles, seed):
    model = _BATCH_MODELS[name][0]
    data = _BATCH_DATA[name]
    batch = smc.smc_abc_likelihood_batch(model, thetas, data, pert,
                                         n_particles, seed)
    assert len(batch) == len(thetas)
    for theta, est in zip(thetas, batch):
        single = smc.smc_abc_likelihood(model, theta, data, pert,
                                        n_particles, seed)
        assert _bits(est) == _bits(single)
    return batch


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("kernel,eps", [("uniform", 1.5), ("gaussian", 0.05)])
@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_batch_mixing_collapsed_and_live_rows(name, kernel, eps, norm):
    model, truth = _BATCH_MODELS[name]
    box = model.theta_box
    thetas = np.linspace(box[:, 0], box[:, 1], 5)
    thetas[2] = truth
    batch = _assert_batch_equals_singles(
        name, thetas, PerturbationSpec(eps, kernel, norm), 128, seed=7)
    collapsed = [est.collapsed for est in batch]
    assert any(collapsed) and not all(collapsed)


def test_batch_chunks_equal_one_chunk(monkeypatch):
    model, _ = _BATCH_MODELS["iid_pm_theta"]
    thetas = np.linspace(0.0, 3.0, 7)[:, None]
    pert = PerturbationSpec(epsilon=0.5)
    whole = smc.smc_abc_likelihood_batch(model, thetas, _BATCH_DATA[
        "iid_pm_theta"], pert, 64, seed=2)
    monkeypatch.setattr(smc, "_CHUNK_ELEMENTS", 3 * 64)   # chunks of 3 rows
    chunked = _assert_batch_equals_singles("iid_pm_theta", thetas, pert, 64,
                                           seed=2)
    assert [_bits(e) for e in chunked] == [_bits(e) for e in whole]


def test_batch_rejects_bad_thetas():
    model, _ = _BATCH_MODELS["iid_pm_theta"]
    data = _BATCH_DATA["iid_pm_theta"]
    pert = PerturbationSpec(epsilon=0.5)
    with pytest.raises(ValueError, match=r"\(G, d\) array"):
        smc.smc_abc_likelihood_batch(model, [1.0], data, pert, 16, seed=0)
    with pytest.raises(ValueError, match="outside box"):
        smc.smc_abc_likelihood_batch(model, [[1.0], [4.0]], data, pert, 16,
                                     seed=0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batch_equals_single_runs(data):
    name = data.draw(st.sampled_from(sorted(_BATCH_MODELS)))
    model = _BATCH_MODELS[name][0]
    g = data.draw(st.integers(1, 5))
    thetas = np.array([[data.draw(st.floats(lo, hi)) for lo, hi in
                        model.theta_box] for _ in range(g)])
    pert = PerturbationSpec(data.draw(st.sampled_from([0.05, 0.3, 1.0])),
                            data.draw(st.sampled_from(KERNELS)),
                            data.draw(st.sampled_from(NORMS)))
    _assert_batch_equals_singles(name, thetas, pert,
                                 data.draw(st.integers(1, 96)),
                                 data.draw(st.integers(0, 2**32)))


# ---------------------------------------------------------------------------
# the uniform-kernel step against a reference copy of the filter it replaced


def _reference_uniform_filter(model, theta, obs, pert, n_particles, seed):
    """One row of the uniform-kernel filter as it ran before the step
    counted bits: the state draw written as int64 comparison counts, the
    kernel's booleans summed, and each state's accepted count taken from an
    ``np.equal`` mask.  Returns (log_value, se_proxy, step_acceptance,
    ess_trace, collapsed_at)."""
    theta = np.asarray(theta, dtype=float)[None]
    p = np.asarray(model.transition_matrix(theta[0]), dtype=float)
    q = np.asarray(model.initial_dist(theta[0]), dtype=float)
    n = obs.shape[0]
    step_acceptance, ess_trace = np.zeros(n), np.zeros(n)
    collapsed_at = None
    for k in range(n):
        u = rng.stream(seed, "prop", k).random(n_particles)
        noise = np.asarray(model.obs_noise(rng.stream(seed, "obsdraw", k),
                                           n_particles))
        cum = np.cumsum(q @ p)
        states = np.zeros((1, n_particles), dtype=np.int64)
        for c in cum[:-1]:
            states += c < u
        diff = model.obs_sampler(theta, states, noise) - obs[k]
        if pert.norm == "linf":
            dist = np.abs(diff[..., 0])
            for j in range(1, diff.shape[-1]):
                np.maximum(dist, np.abs(diff[..., j]), out=dist)
            w = (dist <= pert.epsilon)[0]
        else:
            w = (np.einsum("...j,...j->...", diff, diff)
                 <= pert.epsilon ** 2)[0]
        total = w.sum()
        step_acceptance[k] = total / n_particles
        if total == 0:
            collapsed_at = k
            break
        ess_trace[k] = total
        q = np.array([np.logical_and(w, np.equal(states[0], j)).sum()
                      for j in range(len(q))], dtype=float) / total
    if collapsed_at is not None:
        return -math.inf, math.inf, step_acceptance, ess_trace, collapsed_at
    log_value = np.cumsum([math.log(v) for v in step_acceptance])[-1]
    se_proxy = math.sqrt(np.cumsum(np.maximum(
        step_acceptance / step_acceptance / step_acceptance - 1.0, 0.0)
        / n_particles)[-1])
    return log_value, se_proxy, step_acceptance, ess_trace, None


_STEP_MODELS = {
    1: builtin_model("finite_gaussian", hyper={
        "transition": [[1.0]], "mu_coeff": [1.0]}),
    3: builtin_model("finite_gaussian", hyper={
        "transition": [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
        "mu_coeff": [-1.0, 0.0, 1.0]}),
    4: builtin_model("finite_gaussian", hyper={
        "transition": [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1],
                       [0.1, 0.1, 0.7, 0.1], [0.25, 0.25, 0.25, 0.25]],
        "mu_coeff": [-1.5, -0.5, 0.5, 1.5]}),
}


def _assert_equals_reference_filter(model, thetas, data, pert, n_particles):
    ests = smc.smc_abc_likelihood_batch(model, thetas, data, pert,
                                        n_particles, seed=9)
    for theta, est in zip(thetas, ests):
        log_value, se_proxy, acceptance, ess, collapsed_at = \
            _reference_uniform_filter(model, theta, data.observations, pert,
                                      n_particles, 9)
        assert est.collapsed_at == collapsed_at
        assert np.array([est.log_value, est.se_proxy]).tobytes() == \
            np.array([log_value, se_proxy]).tobytes()
        assert est.step_acceptance.tobytes() == acceptance.tobytes()
        assert est.ess_trace.tobytes() == ess.tobytes()
    return ests


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("k, n_particles, eps, mixed", [
    (1, 1001, 0.4, True), (1, 37, 0.7, True), (3, 1001, 0.4, False),
    (3, 37, 0.7, True), (4, 1001, 0.15, True), (4, 37, 0.7, True)])
def test_uniform_step_equals_the_reference_filter(k, n_particles, eps, mixed,
                                                  norm):
    # N not a multiple of 8; in the mixed cases some rows collapse mid-run
    # and the others live to the end
    model = _STEP_MODELS[k]
    data = sampling.simulate(model, [0.8], 30, seed=3, with_hidden=False)
    ests = _assert_equals_reference_filter(
        model, [[0.8], [0.2], [2.5], [-1.9]], data,
        PerturbationSpec(eps, "uniform", norm), n_particles)
    collapsed = [est.collapsed_at for est in ests]
    assert None in collapsed
    assert any(c is not None and c > 0 for c in collapsed) == mixed


def test_uniform_step_counts_past_sixteen_bits():
    # N > 65,535, and counts past 16 bits: the per-row counts take a wider
    # type than below it
    model = _STEP_MODELS[3]
    data = sampling.simulate(model, [0.8], 6, seed=3, with_hidden=False)
    ests = _assert_equals_reference_filter(
        model, [[0.8], [0.5]], data, PerturbationSpec(1.0), (1 << 17) + 3)
    for est in ests:
        assert not est.collapsed and est.ess_trace.max() > 1 << 16


# ---------------------------------------------------------------------------
# the step-stream table


# A G = 3 batch on finite_gaussian per parameter mode (the observation
# sampler's means come from theta, or are fixed and broadcast): each row's
# collapse step, and the sha256 of every row's log_value, step_acceptance
# and ess_trace.  Recorded before the per-fit step-stream table and the flat
# gather of the means; a change here moves every particle estimate, so it
# must be stated, not re-recorded.  The four uniform-kernel digests were
# re-recorded once, when the uniform ESS became the exact accepted count;
# _VALUE_PINS below shows that nothing else moved.
_PIN_CASES = {
    "mean": (
        "finite_gaussian", {"param": "mean"}, [[-2.5], [0.8], [1.4]],
        PerturbationSpec(0.3), [None, 5, 5],
        "6996c79d8ec6f66452f656f7383698069b0ce774a498c5bb83e005ded34805ad"),
    "scale": (
        "finite_gaussian", {"param": "scale"}, [[0.3], [1.0], [2.5]],
        PerturbationSpec(0.3, "gaussian"), [None, None, None],
        "476daf477cf406762e7980e19ec95b4431c08a60fe8a98b9a71981362b7d0187"),
    "mean_scale": (
        "finite_gaussian", {"param": "mean_scale"},
        [[0.7, 1.1], [-0.4, 0.5], [2.0, 3.0]],
        PerturbationSpec(0.5, "uniform", "l2"), [None, 1, None],
        "d48d6d3a059d013a422eb7b33b91d5b19cba1ce2d700009b66c358f760491c88"),
    # recorded on the float-weight filter, before the uniform kernel ran
    # on acceptance counts
    "stable": (
        "two_state_alpha_stable", None, [[1.0, 0.0], [0.6, 1.5], [2.5, -1.0]],
        PerturbationSpec(0.8), [None, 19, None],
        "b5b6d50863df0841cb86b3fd2b3e7d4f8ab9345c6ca0dddceb9fd047ad9cf09b"),
    "iid_pm": (
        "iid_pm_theta", None, [[1.0], [0.1], [2.5]], PerturbationSpec(1.2),
        [None, None, 0],
        "c5483ac43630f92cf79aff24499828cbee619578711937ce1b145802378e4ac6"),
}


def _pin_inputs(label):
    name, hyper, thetas, pert, _, _ = _PIN_CASES[label]
    model = builtin_model(name, hyper=hyper)
    data = sampling.simulate(model, thetas[0], 60, seed=3, with_hidden=False)
    return model, thetas, data, pert


@pytest.mark.parametrize("label", sorted(_PIN_CASES))
def test_batch_bytes_are_pinned(label):
    model, thetas, data, pert = _pin_inputs(label)
    ests = smc.smc_abc_likelihood_batch(model, thetas, data, pert, 500,
                                        seed=12)
    h = hashlib.sha256()
    for est in ests:
        for a in (np.array(est.log_value), est.step_acceptance,
                  est.ess_trace):
            h.update(np.ascontiguousarray(a).tobytes())
    *_, collapsed_at, digest = _PIN_CASES[label]
    assert [est.collapsed_at for est in ests] == collapsed_at
    assert h.hexdigest() == digest


# The sha256 of every row's log_value, se_proxy and step_acceptance per
# _PIN_CASES entry: the values a fit reads.  Recorded on the filter whose
# uniform ESS was a float sum, so a change to the ESS alone leaves them.
_VALUE_PINS = {
    "iid_pm": "c76e5fe7e8f16a0c0b2e3b3c1398818263a1a4e6dd2c22092d860c0ad6afe35d",
    "mean": "c63c19c513136e00ad40bdca21fc238034a6fb2ff19caa9bf58f9b0004658a25",
    "mean_scale":
        "b043e39189f5f80286bd6602e67181e9336bed6c08992015d45d548ec5a776e6",
    "scale": "bdd91dd1c3e27548e3954124642ce573f7b81cf4fc48ca2e04841a1f1dcc0cbf",
    "stable": "a79c38751921a68b2ce746e969f40d072d3711368130a1b1ab96250ceedf85f6",
}


@pytest.mark.parametrize("label", sorted(_PIN_CASES))
def test_fit_values_are_pinned(label):
    model, thetas, data, pert = _pin_inputs(label)
    h = hashlib.sha256()
    for est in smc.smc_abc_likelihood_batch(model, thetas, data, pert, 500,
                                            seed=12):
        for a in (np.array([est.log_value, est.se_proxy]),
                  est.step_acceptance):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _VALUE_PINS[label]


@pytest.mark.parametrize("label", ["mean", "mean_scale", "stable", "iid_pm"])
def test_uniform_ess_is_the_accepted_count(label):
    # 0/1 weights: (sum w)^2 / sum w^2 is the accepted count, exactly; a
    # step past a collapse keeps 0
    model, thetas, data, pert = _pin_inputs(label)
    ests = smc.smc_abc_likelihood_batch(model, thetas, data, pert, 500,
                                        seed=12)
    assert any(est.collapsed for est in ests)
    for est in ests:
        assert np.array_equal(est.ess_trace,
                              np.rint(est.step_acceptance * 500))
        if est.collapsed:
            assert not est.ess_trace[est.collapsed_at:].any()


@pytest.mark.parametrize("label", ["stable", "iid_pm"])
def test_uniform_se_proxy_from_step_acceptance(label):
    # 0/1 weights square to themselves, so each step's second moment is its
    # acceptance a and the proxy is sqrt(sum_k max(1/a_k - 1, 0) / N)
    model, thetas, data, pert = _pin_inputs(label)
    for est in smc.smc_abc_likelihood_batch(model, thetas, data, pert, 500,
                                            seed=12):
        if est.collapsed:
            continue
        var = sum(max(1.0 / a - 1.0, 0.0) / 500 for a in est.step_acceptance)
        assert est.se_proxy == pytest.approx(math.sqrt(var), rel=1e-12)


def test_table_fills_as_passes_reach_the_steps(stream_keys):
    # a pass that collapses early derives only the steps it reached; the
    # next pass replays those and derives the rest, and every value equals
    # a run on a fresh table
    model, thetas, data, pert = _pin_inputs("mean")
    stream_keys.clear()                 # the data's own streams
    order = (thetas[1], thetas[0], thetas[2])
    table = smc._StepStreams(12)
    early, = smc._likelihood_batch(model, [order[0]], data, pert, 500, table)
    assert early.collapsed_at == 5
    assert sorted(stream_keys) == sorted((12, tag, k) for k in range(6)
                                         for tag in ("prop", "obsdraw"))
    passes = [early] + [
        smc._likelihood_batch(model, [th], data, pert, 500, table)[0]
        for th in order[1:]]
    assert len(stream_keys) == len(set(stream_keys)) == 2 * 60
    for th, got in zip(order, passes):
        want = smc.smc_abc_likelihood(model, th, data, pert, 500, seed=12)
        assert _bits(got) == _bits(want)


def test_each_call_derives_its_own_streams(stream_keys):
    # the public entry points take a fresh table on every call: nothing is
    # kept from one call to the next
    model, _ = _BATCH_MODELS["iid_pm_theta"]
    data = _BATCH_DATA["iid_pm_theta"]
    pert = PerturbationSpec(epsilon=1.5)
    first = smc.smc_abc_likelihood_batch(model, [[1.0], [2.0]], data, pert,
                                         64, seed=3)
    assert len(stream_keys) == 2 * 25
    second = smc.smc_abc_likelihood_batch(model, [[1.0], [2.0]], data, pert,
                                          64, seed=3)
    single = smc.smc_abc_likelihood(model, [1.0], data, pert, 64, seed=3)
    assert len(stream_keys) == 3 * 2 * 25
    assert [_bits(e) for e in first] == [_bits(e) for e in second]
    assert _bits(single) == _bits(first[0])


# ---------------------------------------------------------------------------
# the replay of a particle fit's step draws


def _noise_calls(model, calls):
    """``model`` with an ``obs_noise`` that appends each call's size to
    ``calls``."""
    def obs_noise(g, size):
        calls.append(size)
        return model.obs_noise(g, size)
    return dataclasses.replace(model, obs_noise=obs_noise)


@pytest.fixture
def tables(monkeypatch):
    """Every step-draw table made during the test."""
    made = []

    class Recorded(smc._StepStreams):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(smc, "_StepStreams", Recorded)
    return made


_FIT_MODEL = builtin_model("finite_gaussian")
_FIT_DATA = sampling.simulate(_FIT_MODEL, [0.8], 40, seed=1, with_hidden=False)


def _fit(model=_FIT_MODEL, **opts):
    """A short golden-section particle fit (or ``opts``' method) of
    ``_FIT_DATA``."""
    opts = {"grid_points": 7, "sweeps": 1, "section_tol": 0.05, **opts}
    return estimate.abc_mle(model, _FIT_DATA, PerturbationSpec(0.3),
                            n_particles=300, seed=5, **opts)


def _fit_bits(result):
    return repr((result.theta_hat.to_list(), result.value, result.trace))


def _assert_fit_draws_each_step_once(tables, **opts):
    calls = []
    fit = _fit(_noise_calls(_FIT_MODEL, calls), **opts)
    assert fit.n_evaluations > 2
    assert len(calls) == _FIT_DATA.n
    table, = tables
    # the first pass keeps every step it draws, and saves no state
    assert len(table._kept) == _FIT_DATA.n and not table._saved
    assert table.kept_bytes == sum(u.nbytes + noise.nbytes
                                   for u, noise in table._kept.values())
    assert not any(a.flags.writeable for pair in table._kept.values()
                   for a in pair)
    assert _fit_bits(fit) == _fit_bits(_fit(**opts))


def test_golden_fit_draws_each_step_once(tables):
    _assert_fit_draws_each_step_once(tables)


def test_nelder_mead_fit_draws_each_step_once(tables):
    _assert_fit_draws_each_step_once(tables, method="nelder_mead",
                                     restarts=1)


def test_one_pass_tables_keep_no_arrays(tables):
    # a grid fit, a single call and a one-chunk batch each pass over the
    # steps once
    calls = []
    model = _noise_calls(_FIT_MODEL, calls)
    _fit(model, method="grid")
    assert len(calls) == _FIT_DATA.n
    smc.smc_abc_likelihood_batch(model, [[0.6], [0.8], [-0.8]], _FIT_DATA,
                                 PerturbationSpec(1.0), 300, seed=5)
    smc.smc_abc_likelihood(model, [0.8], _FIT_DATA, PerturbationSpec(1.0),
                           300, seed=5)
    assert len(calls) == 3 * _FIT_DATA.n
    assert len(tables) == 3
    for table in tables:
        assert not table._kept and table.kept_bytes == 0


def test_multi_chunk_batch_keeps_at_most_the_budget(tables, monkeypatch):
    # each chunk of a public batch is one more pass over the steps: the
    # second keeps its draws within the budget, and later chunks replay them
    monkeypatch.setattr(smc, "_CHUNK_ELEMENTS", 300)    # one row a chunk
    thetas = [[0.6], [0.8], [0.7], [0.9]]
    pert = PerturbationSpec(1.0)
    want = [_bits(smc.smc_abc_likelihood(_FIT_MODEL, th, _FIT_DATA, pert,
                                         300, seed=5)) for th in thetas]
    step = 2 * 300 * 8          # one step's uniforms and noise
    for budget in (0, 10 * step + step // 2, smc._REPLAY_BYTES):
        monkeypatch.setattr(smc, "_REPLAY_BYTES", budget)
        calls = []
        got = smc.smc_abc_likelihood_batch(
            _noise_calls(_FIT_MODEL, calls), thetas, _FIT_DATA, pert, 300,
            seed=5)
        assert [_bits(e) for e in got] == want
        assert not any(e.collapsed for e in got)
        table = tables[-1]
        assert table.kept_bytes <= budget
        assert table.kept_bytes == min(budget // step, _FIT_DATA.n) * step
        # the first two passes draw; the last two draw only past the budget
        assert len(calls) == 2 * _FIT_DATA.n + 2 * (
            _FIT_DATA.n - table.kept_bytes // step)


def test_replay_budget_is_kept_and_moves_no_bit(tables, monkeypatch):
    want = _fit_bits(_fit())
    full = tables[-1].kept_bytes
    step = 2 * 300 * 8          # one step's uniforms and noise
    assert full == _FIT_DATA.n * step
    for budget in (0, 10 * step + step // 2):
        monkeypatch.setattr(smc, "_REPLAY_BYTES", budget)
        calls = []
        assert _fit_bits(_fit(_noise_calls(_FIT_MODEL, calls))) == want
        assert tables[-1].kept_bytes == budget // step * step
        # past the budget, every pass draws again
        assert len(calls) > 2 * _FIT_DATA.n


def test_transform_that_writes_into_its_noise_raises():
    def obs_sampler(theta, states, noise):
        noise *= 2.0            # would corrupt every later replay
        return _FIT_MODEL.obs_sampler(theta, states, noise)

    model = dataclasses.replace(_FIT_MODEL, obs_sampler=obs_sampler)
    with pytest.raises(ValueError, match="read-only"):
        _fit(model)
    with pytest.raises(ValueError, match="read-only"):
        smc.smc_abc_likelihood(model, [0.8], _FIT_DATA,
                               PerturbationSpec(0.3), 300, seed=5)
    with pytest.raises(ValueError, match="read-only"):
        sampling.simulate(model, [0.8], 10, seed=1)


def test_transform_that_writes_into_its_states_raises():
    def obs_sampler(theta, states, noise):
        states[:, 0] = 0        # would move the filter's per-state counts
        return _FIT_MODEL.obs_sampler(theta, states, noise)

    model = dataclasses.replace(_FIT_MODEL, obs_sampler=obs_sampler)
    with pytest.raises(ValueError, match="read-only"):
        _fit(model)
    with pytest.raises(ValueError, match="read-only"):
        smc.smc_abc_likelihood(model, [0.8], _FIT_DATA,
                               PerturbationSpec(0.3), 300, seed=5)
    with pytest.raises(ValueError, match="read-only"):
        sampling.simulate(model, [0.8], 10, seed=1)


def test_noise_of_the_wrong_length_is_named():
    model = dataclasses.replace(
        _FIT_MODEL, obs_noise=lambda g, size: g.standard_normal(size + 1))
    with pytest.raises(ValueError, match="obs_noise of model "
                       "'finite_gaussian' returned shape \\(301,\\)"):
        smc.smc_abc_likelihood(model, [0.8], _FIT_DATA,
                               PerturbationSpec(0.3), 300, seed=5)
