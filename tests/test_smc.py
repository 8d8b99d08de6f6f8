import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import oracle, rng, sampling, smc
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
    with pytest.raises(ValueError, match="n_particles must be a positive"):
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


def _gauss_2d_model():
    """One state, 2-D observations theta + N(0, I): the two ball norms
    differ here."""
    return ModelSpec(
        name="gauss_2d", param_dim=1, obs_dim=2,
        theta_box=np.array([[-3.0, 3.0]]), n_states=1, hyper={},
        transition_matrix=lambda theta: np.ones((1, 1)),
        initial_dist=lambda theta: np.ones(1),
        obs_sampler=lambda theta, states, g: theta[:, None, :1]
        + g.standard_normal((states.shape[1], 2)))


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
        name="flat", param_dim=1, obs_dim=1,
        theta_box=np.array([[-3.0, 3.0]]), n_states=1, hyper={},
        transition_matrix=lambda theta: np.ones((1, 1)),
        initial_dist=lambda theta: np.ones(1),
        obs_sampler=lambda theta, states, g: theta[0] + g.standard_normal(
            (states.shape[0], 1)))
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
