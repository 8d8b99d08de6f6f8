"""Fisher estimators against closed forms available for one-state models.

For a single state the series is iid Gaussian and everything is textbook:
the location information is 1/s^2; under a Gaussian perturbation kernel of
width eps the perturbed model is again Gaussian with variance s^2 + eps^2,
so its location information is exactly 1/(s^2 + eps^2).
"""

import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import fisher, kernels, oracle, rng, sampling
from abchmm.kernels import KERNELS
from abchmm.models import PerturbationSpec, builtin_model, check_theta


def _one_state(mode="mean"):
    # one state of mean theta, or of mean 0 and sd theta in scale mode
    means = {"mu": [0.0]} if mode == "scale" else {"mu_coeff": [1.0]}
    return builtin_model("finite_gaussian", hyper={
        "transition": [[1.0]], "param": mode, **means})


@pytest.fixture(scope="module")
def gauss2():
    return builtin_model("finite_gaussian", hyper={"param": "mean_scale"})


def test_iid_location_information():
    fe = fisher.estimate_fisher(_one_state(), [0.3], n=100,
                                n_replicates=3000, seed=1)
    assert fe.matrix[0, 0] == pytest.approx(1.0, abs=3 * fe.se[0, 0] + 0.01)


def test_iid_scale_information():
    fe = fisher.estimate_fisher(_one_state("scale"), [1.0], n=100,
                                n_replicates=3000, seed=2)
    assert fe.matrix[0, 0] == pytest.approx(2.0, abs=3 * fe.se[0, 0] + 0.02)


def test_gaussian_kernel_perturbed_information_closed_form():
    pert = PerturbationSpec(epsilon=0.5, kernel="gaussian")
    fe = fisher.estimate_fisher(_one_state(), [0.3], n=100,
                                n_replicates=3000, seed=3, pert=pert)
    assert fe.matrix[0, 0] == pytest.approx(1 / 1.25,
                                            abs=3 * fe.se[0, 0] + 0.01)
    assert fe.epsilon == 0.5


def test_zero_tolerance_equals_exact(gauss2):
    exact = fisher.estimate_fisher(gauss2, [0.8, 1.1], n=60,
                                   n_replicates=400, seed=4)
    zero = fisher.estimate_fisher(gauss2, [0.8, 1.1], n=60,
                                  n_replicates=400, seed=4,
                                  pert=PerturbationSpec(epsilon=0.0))
    np.testing.assert_array_equal(exact.matrix, zero.matrix)
    assert zero.epsilon == 0.0 and exact.epsilon is None


def test_fisher_at_the_box_edge_without_a_jacobian():
    # theta = 3.0 is the top of the mean box: the finite differences that
    # stand in for a missing Jacobian step inward there, and agree with the
    # built-in Jacobian to a one-sided difference's first-order error
    model = builtin_model("finite_gaussian")

    def density(theta, ys):
        # raises at a theta outside the box, as a custom model's may
        return model.emission_density(check_theta(model, theta), ys)

    no_jac = dataclasses.replace(model, emission_density=density,
                                 emission_density_jac=None)
    for theta in (3.0, -3.0):
        want = fisher.estimate_fisher(model, [theta], n=50, n_replicates=40,
                                      seed=6)
        got = fisher.estimate_fisher(no_jac, [theta], n=50, n_replicates=40,
                                     seed=6)
        assert np.all(np.isfinite(got.matrix))
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-4)


def test_estimate_symmetric_psd(gauss2):
    fe = fisher.estimate_fisher(gauss2, [0.8, 1.1], n=80,
                                n_replicates=1500, seed=5)
    np.testing.assert_array_equal(fe.matrix, fe.matrix.T)
    eig = np.linalg.eigvalsh(fe.matrix)
    assert np.all(eig > 0)
    assert np.all(fe.se > 0)


def test_loss_point_psd_and_ordering(gauss2):
    theta = [1.0, 1.0]
    small = fisher.loss_point(gauss2, theta, 0.1, window=16,
                              n_replicates=1200, seed=6)
    large = fisher.loss_point(gauss2, theta, 0.4, window=16,
                              n_replicates=1200, seed=6)
    for p in (small, large):
        np.testing.assert_array_equal(p.loss, p.loss.T)
        assert np.all(np.linalg.eigvalsh(p.loss) >= 0)
    # information destroyed grows with the tolerance, decisively
    assert large.frobenius > 4 * small.frobenius


def test_missing_information_routes_agree(gauss2):
    chk = fisher.missing_information_check(gauss2, [1.0, 1.0], 0.5, n=4,
                                           n_replicates=4000, seed=8)
    assert np.all(np.abs(chk.discrepancy) <= 3 * chk.combined_se + 1e-3)
    np.testing.assert_array_equal(chk.conditional, chk.conditional.T)
    assert np.all(np.linalg.eigvalsh(chk.conditional) >= 0)
    # the conditional route has far less noise than direct differencing
    assert chk.conditional_se.mean() < chk.direct_se.mean()


def test_missing_information_guards(gauss2):
    with pytest.raises(ValueError, match="n <= 8"):
        fisher.missing_information_check(gauss2, [1.0, 1.0], 0.5, n=9,
                                         n_replicates=10, seed=0)


def test_simulated_paths_start_after_one_transition():
    # the replicate paths read initial_dist as the law before the first
    # observation, like the forward recursion that scores them
    model = builtin_model("finite_gaussian", hyper={"initial": [1.0, 0.0],
                                                    "mu_coeff": [0.0, 1.0],
                                                    "sigma": 1e-3})
    y = fisher._replicates(model, np.array([1.0]), 20000, 2, seed=4)
    assert np.mean(np.abs(y[:, 0]) < 0.5) == pytest.approx(0.7, abs=0.01)


def test_replicate_batch_bytes_are_pinned(gauss2):
    # sha256 of one replicate batch: the hidden paths on the ("paths")
    # stream, the clean observations and their noisy twins
    theta = np.array([0.7, 1.1])
    states, _ = sampling._simulate_series(gauss2, theta, 9, 65,
                                          rng.stream(7, "paths"),
                                          rng.stream(7, "obs"))
    y = fisher._replicates(gauss2, theta, 9, 65, seed=7)
    y_eps = fisher._coupled_obs(y, PerturbationSpec(epsilon=0.3), seed=7)
    digests = [hashlib.sha256(a.tobytes()).hexdigest()
               for a in (states, y, y_eps)]
    assert digests == [
        "218cb0bf02c7699367cb75cbc1296e94f8f9a6934c9ff21ea2e6fadbc8cabc8e",
        "105355e4e1f3e8b58fe01c1b9828f7f2e7cf3605f63a985d19cf83576769a216",
        "1596c4f0c98dcfaf83a2d3ea415f7ff9e178b0fc9f008db34bf26b36ccc93152"]


# ---------------------------------------------------------------------------
# shared clean prefix, one branch per boundary


def _theta_transition_model():
    """finite_gaussian whose P and initial law move with theta."""
    return dataclasses.replace(
        builtin_model("finite_gaussian"),
        transition_matrix=lambda th: np.array(
            [[0.5 + 0.1 * th[0], 0.5 - 0.1 * th[0]],
             [0.3 - 0.05 * th[0], 0.7 + 0.05 * th[0]]]),
        initial_dist=lambda th: np.array([0.6 + 0.1 * th[0],
                                          0.4 - 0.1 * th[0]]))


def _iid_pm_with_density():
    """iid_pm_theta with a stand-in exact channel, each state's observation
    uniform within 1 of its point: no Jacobian, so central differences,
    and a far observation kills its row on either channel."""
    def density(theta, ys):
        values = np.array([-theta[0], theta[0]])
        return 0.5 * (np.abs(ys[:, None] - values) <= 1.0)

    return dataclasses.replace(builtin_model("iid_pm_theta"),
                               emission_density=density)


_BRANCH_MODELS = {
    "finite_gaussian": (
        lambda: builtin_model("finite_gaussian", hyper={"param": "mean_scale"}),
        [(-2.0, 2.0), (0.3, 2.0)], KERNELS),
    "theta_transition": (_theta_transition_model, [(-2.0, 2.0)], KERNELS),
    "iid_pm_theta": (_iid_pm_with_density, [(0.2, 2.8)], ("uniform",)),
}


def _mixed_kernel_scores(model, theta, pert, y, y_eps, b):
    """Scores (R, d) of ``y[:, :b] ++ y_eps[:, b:]`` from one kernel run over
    the whole mixed sequence, with both channels' weights evaluated on every
    step and one picked per step."""
    steps = np.arange(y.shape[1]) >= b
    mixed = np.where(steps, y_eps, y)
    e_ex, de_ex = oracle._emissions_and_jac(model, theta, mixed, None)
    e_pe, de_pe = oracle._emissions_and_jac(model, theta, mixed, pert)
    p, dp, init, dinit = oracle._laws_and_jac(model, theta)
    state = oracle._forward_start(init, dinit, (y.shape[0],))
    return oracle._forward_finish(oracle._forward_segment(
        p, dp, state, np.where(steps[:, None, None], e_pe, e_ex),
        np.where(steps[:, None, None, None], de_pe, de_ex)))[1]


def _draw_mixed_case(draw, max_n: int):
    """A model, theta, perturbation and clean and noisy series (R, n) for
    the branching tests; an observation at 1e3 kills some rows."""
    make, ranges, kernels = _BRANCH_MODELS[draw.draw(
        st.sampled_from(sorted(_BRANCH_MODELS)), label="model")]
    model = make()
    theta = np.array([draw.draw(st.floats(lo, hi), label="theta")
                      for lo, hi in ranges])
    pert = PerturbationSpec(epsilon=draw.draw(st.floats(0.05, 1.0),
                                              label="epsilon"),
                            kernel=draw.draw(st.sampled_from(kernels),
                                             label="kernel"))
    r = draw.draw(st.integers(1, 4), label="replicates")
    n = draw.draw(st.integers(1, max_n), label="n")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    y = gen.normal(0.0, 2.0, size=(r, n))
    y_eps = y + gen.uniform(-pert.epsilon, pert.epsilon, size=(r, n))
    # an observation at 1e3 holds no weight under either channel
    for series in (y, y_eps):
        dead = np.array(draw.draw(st.lists(st.booleans(), min_size=r,
                                           max_size=r), label="dead"))
        series[dead, gen.integers(0, n)] = 1e3
    return model, theta, pert, y, y_eps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_boundary_scores_match_per_boundary_score_batch(draw):
    # every boundary's score from the shared-prefix branching equals the
    # score of one kernel run over its whole mixed sequence, NaN rows
    # included
    model, theta, pert, y, y_eps = _draw_mixed_case(draw, 12)
    n = y.shape[1]
    # unsorted, repeated, adjacent, single and end boundaries all occur
    boundaries = draw.draw(st.lists(st.integers(0, n), min_size=1,
                                    max_size=n + 2), label="boundaries")
    got = oracle.boundary_scores(model, theta, pert, y, y_eps, boundaries)
    assert sorted(got) == sorted(set(boundaries))
    for b in set(boundaries):
        want = _mixed_kernel_scores(model, theta, pert, y, y_eps, b)
        assert np.array_equal(got[b], want, equal_nan=True), b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_score_blocks_change_no_bit(draw):
    # the score kernel reads its weights a block of whole steps at a time;
    # budgets down to one step a block put block edges on and beside the
    # boundaries, and every score still equals the one-run whole-sequence
    # reference, NaN rows included
    model, theta, pert, y, y_eps = _draw_mixed_case(draw, 24)
    r, n = y.shape
    budget = draw.draw(st.integers(1, 2 * r * n), label="budget")
    step = max(1, budget // r)          # steps per block of the clean chain
    edge = step * draw.draw(st.integers(0, n // step), label="edge")
    inside = min(n, edge + draw.draw(st.integers(1, max(1, step - 1)),
                                     label="inside"))
    boundaries = [edge, inside] + draw.draw(
        st.lists(st.integers(0, n), max_size=2), label="boundaries")
    with mock.patch.object(oracle, "_SCORE_BLOCK", budget):
        got = oracle.boundary_scores(model, theta, pert, y, y_eps, boundaries)
        ll_eps, score_eps = oracle.forward_score_batch(model, theta, y_eps,
                                                       pert)
        ll, score = oracle.forward_score_batch(model, theta, y)
    for b in set(boundaries):
        want = _mixed_kernel_scores(model, theta, pert, y, y_eps, b)
        assert np.array_equal(got[b], want, equal_nan=True), b
    for series, channel, b, got_ll, got_score in [
            (y_eps, pert, 0, ll_eps, score_eps), (y, None, n, ll, score)]:
        want = _mixed_kernel_scores(model, theta, pert, y, y_eps, b)
        assert np.array_equal(got_score, want, equal_nan=True), b
        whole_ll = oracle.forward_score_batch(model, theta, series,
                                              channel)[0]
        assert got_ll.tobytes() == whole_ll.tobytes()


@pytest.mark.parametrize("route", ["forward_score_batch", "boundary_scores"])
def test_score_memory_does_not_grow_with_the_series(gauss2, route):
    # the weights and Jacobian are read a block at a time: at fixed R, the
    # peak above the inputs grows by less than one (n, K, R) weight array
    # from n = 200 to n = 800
    r, theta = 256, np.array([1.0, 1.0])
    pert = PerturbationSpec(epsilon=0.2)
    peaks = []
    for n in (200, 800):
        y = fisher._replicates(gauss2, theta, r, n, 5)
        y_eps = fisher._coupled_obs(y, pert, 5)
        if route == "forward_score_batch":
            def call():
                oracle.forward_score_batch(gauss2, theta, y_eps, pert)
        else:
            def call():
                oracle.boundary_scores(gauss2, theta, pert, y, y_eps,
                                       (n // 2, n // 2 + 1))
        call()                              # warm caches and imports
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    weights = 200 * gauss2.n_states * r * 8
    assert peaks[1] - peaks[0] < weights, peaks


@pytest.mark.parametrize("task", ["estimate_fisher", "estimate_fisher_eps",
                                  "loss_point"])
def test_replicate_tasks_peak_below_four_batches(gauss2, task):
    # a Fisher task holds the hidden paths, the noise and the observations
    # of its replicate batch, each one (R, n) array, while it simulates;
    # the sampler's temporaries are one chunk, not a fourth batch, and the
    # noisy twins are written into their own draw.  Once that peak read
    # about 4.2 batches
    theta = np.array([1.0, 1.0])
    pert = PerturbationSpec(100.0) if task == "estimate_fisher_eps" else None

    def call(reps, n):
        if task == "loss_point":        # series of 2 * window + 1 steps
            fisher.loss_point(gauss2, theta, 0.1, window=(n - 1) // 2,
                              n_replicates=reps, seed=3)
        else:
            fisher.estimate_fisher(gauss2, theta, n=n, n_replicates=reps,
                                   seed=3, pert=pert)

    reps, n = (4000, 129) if task == "loss_point" else (2000, 200)
    call(20, 5)                             # warm caches and imports
    tracemalloc.start()
    try:
        call(reps, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (reps * n * 8) <= 3.5, peak


@pytest.mark.parametrize("kernel, norm", [("uniform", "linf"),
                                          ("uniform", "l2"),
                                          ("gaussian", "linf")])
def test_coupled_twins_are_the_clean_series_plus_scaled_noise(kernel, norm):
    # the twins are written into the draw, which the perturbation scales in
    # place: y + eps * u, bit for bit
    pert = PerturbationSpec(epsilon=0.3, kernel=kernel, norm=norm)
    y = np.linspace(-2.0, 2.0, 21 * 5).reshape(21, 5)
    g = rng.stream(7, "pertnoise")
    u = kernels.ball_uniform(1, y.size, g, norm) if kernel == "uniform" \
        else g.standard_normal((y.size, 1))
    want = y + (pert.epsilon * u)[:, 0].reshape(y.shape)
    got = fisher._coupled_obs(y, pert, seed=7)
    assert got.shape == y.shape and got.tobytes() == want.tobytes()


def test_score_functions_take_a_batch_of_no_series(gauss2):
    # zero replicates make no block budget of their own: empty results
    theta, pert = np.array([1.0, 1.0]), PerturbationSpec(epsilon=0.2)
    y = np.zeros((0, 5))
    ll, score = oracle.forward_score_batch(gauss2, theta, y, pert)
    assert ll.shape == (0,) and score.shape == (0, 2)
    got = oracle.boundary_scores(gauss2, theta, pert, y, y, (0, 2, 5))
    assert sorted(got) == [0, 2, 5]
    assert all(v.shape == (0, 2) for v in got.values())


def test_conditional_score_diffs_share_one_batch(gauss2):
    # the boundaries score the coupled batch that the seed simulates
    pert = PerturbationSpec(epsilon=0.2)
    theta = np.array([1.0, 1.0])
    scores = fisher._conditional_score_diffs(gauss2, theta, pert, 50, 9,
                                             boundaries=(4, 5), seed=3)
    y = fisher._replicates(gauss2, theta, 50, 9, 3)
    y_eps = fisher._coupled_obs(y, pert, 3)
    for b in (4, 5):
        want = _mixed_kernel_scores(gauss2, theta, pert, y, y_eps, b)
        np.testing.assert_array_equal(scores[b], want)
        assert np.all(np.isfinite(scores[b]))
