import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import estimate as est, rng, sampling, smc
from abchmm.errors import EstimationFailedError
from abchmm.models import ModelSpec, PerturbationSpec, builtin_model


def _rows(f):
    """The batch objective of a one-theta ``f(theta) -> (value, se)``."""
    def batch(thetas):
        values, ses = zip(*map(f, thetas))
        return values, ses
    return batch


def test_maximize_grid_finds_quadratic_peak():
    def f(theta):
        return -((theta[0] - 0.3) ** 2 + (theta[1] + 0.7) ** 2), 0.0

    theta, value, trace, failures, _ = est.maximize(
        _rows(f), [[-1, 1], [-1, 1]], "grid", grid_points=41)
    np.testing.assert_allclose(theta, [0.3, -0.7], atol=0.026)
    assert failures == 0
    assert len(trace) == 41 * 41


def test_maximize_grid_ties_to_lowest():
    theta, value, *_ = est.maximize(_rows(lambda t: (1.0, 0.0)), [[0, 1]],
                                    "grid", grid_points=11)
    assert theta[0] == 0.0 and value == 1.0


def test_maximize_golden_refines():
    def f(theta):
        return -(theta[0] - 0.3217) ** 2, 0.0

    theta, *_ = est.maximize(_rows(f), [[0, 1]], "grid_then_golden",
                             grid_points=11, section_tol=1e-6)
    assert theta[0] == pytest.approx(0.3217, abs=1e-4)


def test_maximize_nelder_mead():
    def f(theta):
        return -((theta[0] - 0.25) ** 2 + 3 * (theta[1] - 0.5) ** 2
                 + (theta[2] + 0.1) ** 2), 0.0

    theta, *_ = est.maximize(_rows(f), [[-1, 1]] * 3, "nelder_mead", seed=4)
    np.testing.assert_allclose(theta, [0.25, 0.5, -0.1], atol=1e-3)


def test_maximize_all_failures_raises():
    with pytest.raises(EstimationFailedError) as info:
        est.maximize(_rows(lambda t: (-math.inf, 0.0)), [[0, 1]], "grid",
                     grid_points=5)
    assert info.value.diagnostics["n_evaluations"] == 5


@pytest.mark.parametrize("method", ["grid", "grid_then_golden"])
def test_maximize_nan_objective_names_its_theta(method):
    # a NaN is not a collapse: argmax would take the NaN edge of the grid
    # as the best point and skip the golden stage
    def f(theta):
        value = math.nan if theta[0] in (0.0, 1.0) \
            else -(theta[0] - 0.4) ** 2
        return value, 0.0

    with pytest.raises(ValueError,
                       match=r"objective is NaN at theta \[0\.0\]"):
        est.maximize(_rows(f), [[0, 1]], method, grid_points=5)


@pytest.mark.parametrize("method", ["grid", "nelder_mead"])
def test_maximize_all_nan_objective_is_not_a_failure(method):
    # not "every objective evaluation failed (value -inf)": the first NaN
    # names its theta
    with pytest.raises(ValueError, match="objective is NaN at theta"):
        est.maximize(_rows(lambda t: (math.nan, 0.0)), [[0, 1]], method,
                     grid_points=5)


def test_nelder_mead_ends_a_restart_whose_simplex_failed():
    # a restart whose initial simplex (d + 1 evaluations) all failed ends
    # there, with those evaluations kept, instead of running to maxiter
    with pytest.raises(EstimationFailedError) as info:
        est.maximize(_rows(lambda t: (-math.inf, 0.0)), [[0, 1], [0, 1]],
                     "nelder_mead", restarts=3)
    assert info.value.diagnostics == {"n_evaluations": 9, "n_failures": 9}


def test_nelder_mead_collapsed_start_does_not_wander():
    # the first restart starts where every particle evaluation collapses;
    # scipy would otherwise take inf - inf in its convergence test and run
    # to maxiter (1262 evaluations, 1209 failed)
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.7], 40, seed=6, with_hidden=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = est.abc_mle(model, data, PerturbationSpec(epsilon=0.5),
                          method="nelder_mead", n_particles=96, seed=8,
                          restarts=2)
    assert [v for _, v, _ in res.trace[:3]] == [-math.inf, -math.inf,
                                                pytest.approx(-86.1205720)]
    assert (res.n_evaluations, res.n_failures) == (65, 12)
    assert res.theta_hat.values[0] == pytest.approx(1.08340162, abs=1e-8)
    assert res.value == pytest.approx(-68.4638566, abs=1e-6)


def test_pathological_two_point_collapses_to_zero():
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 100, seed=7, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    res = est.abc_mle(model, data, pert, objective="oracle", method="grid",
                      grid_points=301, seed=7)
    # tolerance straddles both support points: a ball around 0 catches
    # every observation, so 0 beats the truth with likelihood exactly 1
    assert res.theta_hat.values[0] == 0.0
    assert res.value == 0.0
    truth_value = [v for t, v, _ in res.trace
                   if t[0] == pytest.approx(1.0, abs=1e-12)]
    assert truth_value[0] == pytest.approx(100 * math.log(0.5))


def test_noisy_abc_recovers_truth_on_grid():
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 10_000, seed=1, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    res = est.noisy_abc_mle(model, data, pert, objective="oracle",
                            method="grid", grid_points=301, seed=1)
    assert res.theta_hat.values[0] == pytest.approx(1.0, abs=1e-9)
    assert res.settings["noise_epsilon"] == 1.5


def test_abc_mle_refuses_noisified_data():
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 20, seed=1, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    noisy = sampling.noisify(data, pert, seed=3)
    with pytest.raises(ValueError, match="noisy_abc_mle"):
        est.abc_mle(model, noisy, pert, objective="oracle")


def _constant_summary_model():
    """Emits |Y| for the two-point model: the constant theta, whatever the
    hidden state."""
    base = builtin_model("iid_pm_theta")
    return ModelSpec(
        name="iid_abs_theta",
        obs_dim=1,
        theta_box=np.array([[0.0, 3.0]]),
        transition_matrix=base.transition_matrix,
        initial_dist=base.initial_dist,
        obs_sampler=lambda theta, states, noise: np.full(
            states.shape + (1,), theta[:, None, :1]),
        obs_noise=base.obs_noise,
    )


def test_summary_statistic_gives_plateau():
    base = builtin_model("iid_pm_theta")
    data = sampling.simulate(base, [1.0], 50, seed=3, with_hidden=False)
    summarized = sampling.Trajectory(observations=np.abs(data.observations))
    model = _constant_summary_model()
    pert = PerturbationSpec(epsilon=0.6)
    res = est.abc_mle(model, summarized, pert, method="grid",
                      grid_points=301, n_particles=64, seed=5)
    # |Y| = theta matches |y| = 1 whenever |theta - 1| <= eps: the ABC
    # likelihood is exactly 1 on the whole plateau [0.4, 1.6], and the
    # grid argmax resolves to its lower edge
    assert res.value == 0.0
    assert res.theta_hat.values[0] == pytest.approx(1.0 - 0.6, abs=1e-9)
    plateau = [t[0] for t, v, _ in res.trace if v == 0.0]
    assert min(plateau) == pytest.approx(0.4, abs=1e-9)
    assert max(plateau) == pytest.approx(1.6, abs=0.011)  # grid resolution


def test_crn_objective_is_deterministic():
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 40, seed=2, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.2)
    a = est.abc_mle(model, data, pert, method="grid", grid_points=31,
                    n_particles=256, seed=9)
    b = est.abc_mle(model, data, pert, method="grid", grid_points=31,
                    n_particles=256, seed=9)
    assert a.trace == b.trace
    assert a.theta_hat.values[0] == b.theta_hat.values[0]


def test_smc_objective_all_collapsed_raises():
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 30, seed=2, with_hidden=False)
    # tolerance so small no simulated series ever matches anywhere except
    # at the data-generating value... which the coarse grid misses
    pert = PerturbationSpec(epsilon=1e-6)
    with pytest.raises(EstimationFailedError) as info:
        est.abc_mle(model, data, pert, method="grid", grid_points=6,
                    n_particles=64, seed=3)
    assert info.value.diagnostics["n_failures"] == 6


def test_exact_mle_recovers_gaussian_mean():
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.9], 4000, seed=6, with_hidden=False)
    res = est.exact_mle(model, data, seed=0)
    # the state-symmetric mean parameterization cannot tell theta from
    # -theta; the estimate is sign-identified only up to relabeling
    assert abs(res.theta_hat.values[0]) == pytest.approx(0.9, abs=0.1)
    assert res.objective == "oracle"


def test_oracle_objective_matches_smc_scale():
    # the two objectives must sit on the same scale so their values are
    # comparable diagnostics: check on a case where the particle filter
    # is exact (all weights one)
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 25, seed=4, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    r_oracle = est.abc_mle(model, data, pert, objective="oracle",
                           method="grid", grid_points=4, seed=0)
    r_smc = est.abc_mle(model, data, pert, objective="smc", method="grid",
                        grid_points=4, n_particles=128, seed=0)
    # at theta=0 both are exactly log 1
    assert r_oracle.trace[0][1] == 0.0
    assert r_smc.trace[0][1] == 0.0


def test_save_estimate_round_trip(tmp_path):
    model = builtin_model("iid_pm_theta")
    data = sampling.simulate(model, [1.0], 30, seed=2, with_hidden=False)
    pert = PerturbationSpec(epsilon=1.5)
    res = est.abc_mle(model, data, pert, objective="oracle", method="grid",
                      grid_points=11, seed=1)
    out = est.save_estimate(res, tmp_path / "fit.json")
    payload = json.loads(out.read_text())
    assert payload["theta_hat"] == res.theta_hat.to_list()
    assert payload["n_evaluations"] == 11
    trace_csv = (tmp_path / "fit.csv").read_text().strip().splitlines()
    assert len(trace_csv) == 12  # header + one row per evaluation
    # -inf values survive the JSON round trip as strings
    values = [row["value"] for row in payload["trace"]]
    assert all(isinstance(v, (int, float, str)) for v in values)
    assert any(v == "-inf" for v in values)  # this fit has dead grid points


def _reference_golden_refine(rec, theta, j, a, b, tol):
    """The sequential golden-section search, one probe per call, as it was
    before the search looked ahead: the reference that the look-ahead
    search must reproduce bit for bit."""
    lo, hi = a, b
    base = theta.copy()

    def f(x):
        cand = base.copy()
        cand[j] = x
        return rec.record(*rec.evaluate(cand[None])[0])

    c = hi - est.GOLDEN * (hi - lo)
    d = lo + est.GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while (hi - lo) > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - est.GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + est.GOLDEN * (hi - lo)
            fd = f(d)


def _stepped_objective(d, centre, step, dead):
    """A quadratic rounded down to multiples of ``step`` (so probes tie
    exactly), -inf on the interval ``dead`` of the first coordinate.  It
    evaluates every row at once with the same elementwise operations, so
    each row equals its one-row call bit for bit."""
    def batch(thetas):
        t = np.asarray(thetas, dtype=float)
        q = -(t[:, 0] - centre[0]) ** 2
        if d == 2:
            q = q - 2.0 * (t[:, 1] - centre[1]) ** 2
        if step > 0.0:
            q = np.floor(q / step) * step
        q[(dead[0] <= t[:, 0]) & (t[:, 0] <= dead[1])] = -math.inf
        return q, 0.5 * t[:, 0]

    return batch


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_golden_lookahead_matches_sequential_reference(draw):
    d = draw.draw(st.sampled_from([1, 2]), label="d")
    box = [[-1.0, 1.5], [0.0, 2.0]][:d]
    centre = [draw.draw(st.floats(lo - 0.5, hi + 0.5), label="centre")
              for lo, hi in box]
    step = draw.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 10.0]),
                     label="step")
    dead_lo = draw.draw(st.floats(-1.0, 1.5), label="dead_lo")
    dead = (dead_lo, dead_lo + draw.draw(st.floats(0.0, 1.2), label="width"))
    batch = _stepped_objective(d, centre, step, dead)
    opts = {"grid_points": draw.draw(st.integers(1, 9), label="grid_points"),
            "sweeps": draw.draw(st.integers(1, 2), label="sweeps"),
            "section_tol": draw.draw(st.one_of(
                st.none(), st.floats(1e-9, 3.0)), label="section_tol")}

    widths = []

    def counted(thetas):
        widths.append(len(thetas))
        return batch(thetas)

    def run():
        try:
            return est.maximize(counted, box, "grid_then_golden", **opts)[:4]
        except est.EstimationFailedError as exc:
            return exc.diagnostics

    with mock.patch.object(est, "_golden_refine", _reference_golden_refine):
        want = run()
    # the reference makes every call after the grid's one probe
    assert all(w == 1 for w in widths[1:])
    widths.clear()
    got = run()
    if isinstance(want, dict):
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert repr(got[1:]) == repr(want[1:])   # repr: every bit
    # after the grid's call, each call holds at most three probes, and there
    # are fewer calls than recorded golden-section probes
    golden = len(got[2]) - widths[0] if not isinstance(got, dict) else 0
    assert all(w <= 3 for w in widths[1:])
    assert sum(widths[1:]) >= golden
    assert len(widths) - 1 < golden or golden == 0


def test_smc_fit_looks_ahead_with_the_same_bytes():
    """The particle fit of the smc_fit benchmark: 7 grid points, one sweep,
    section_tol 0.05 -- ten golden-section probes.  One grid pass plus five
    look-ahead calls, against one plus ten one-row calls of the sequential
    reference, and the same estimate, trace and failure count as it.  Every
    evaluation of a fit goes through ``smc._likelihood_batch`` on the fit's
    step-stream table."""
    model = builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 100, seed=1)
    pert = PerturbationSpec(epsilon=0.3)
    opts = {"grid_points": 7, "sweeps": 1, "section_tol": 0.05}
    calls = []
    batch = smc._likelihood_batch

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return batch(*args, **kwargs)

    with mock.patch.object(smc, "_likelihood_batch", counted):
        res = est.abc_mle(model, data, pert, n_particles=2000, seed=11,
                          **opts)
        assert calls == [7, 2, 3, 3, 3, 3]
        calls.clear()
        batch_fn = est._smc_objective(model, data, pert, 2000, seed=11)
        with mock.patch.object(est, "_golden_refine",
                               _reference_golden_refine):
            theta, value, trace, failures, _ = est.maximize(
                batch_fn, model.theta_box, seed=11, **opts)
    assert calls == [7] + [1] * 10
    assert res.trace == trace and len(trace) == 17
    assert res.theta_hat.values.tobytes() == theta.tobytes()
    assert res.value == value and res.n_failures == failures


def test_oracle_fit_looks_ahead_with_the_same_bytes():
    """An exact fit of the oracle_fit kind (finite_gaussian scale, eps 0.05),
    with an entry budget small enough that the series crosses time blocks:
    the grid's 21 points in one call, then golden-section calls of at most
    three rows, fewer than the probes recorded, and the same estimate, trace
    and failure count as the sequential search."""
    model = builtin_model("finite_gaussian", hyper={"param": "scale"})
    data = sampling.simulate(model, [0.2], 200, seed=3, with_hidden=False)
    pert = PerturbationSpec(epsilon=0.05)
    calls = []
    forward = est.oracle.forward_loglik_grid

    def counted(model, thetas, *args):
        calls.append(len(thetas))
        return forward(model, thetas, *args)

    with mock.patch.object(est.oracle, "forward_loglik_grid", counted), \
            mock.patch.object(est.oracle, "_BLOCK_ENTRIES", 256):
        res = est.abc_mle(model, data, pert, objective="oracle", seed=0)
        looked_ahead = calls[:]
        calls.clear()
        with mock.patch.object(est, "_golden_refine",
                               _reference_golden_refine):
            want = est.abc_mle(model, data, pert, objective="oracle", seed=0)
    assert calls[0] == 21 and all(c == 1 for c in calls[1:])
    golden = len(res.trace) - 21
    assert looked_ahead[0] == 21 and all(c <= 3 for c in looked_ahead[1:])
    assert sum(looked_ahead[1:]) >= golden > len(looked_ahead) - 1
    assert res.theta_hat.values.tobytes() == want.theta_hat.values.tobytes()
    assert repr((res.value, res.trace, res.n_failures)) \
        == repr((want.value, want.trace, want.n_failures))


@pytest.mark.parametrize("option, value", [
    ("section_tol", 0.0), ("section_tol", -1.0), ("section_tol", math.nan),
    ("section_tol", math.inf), ("grid_points", 0), ("grid_points", 2.5),
    ("sweeps", -1), ("restarts", 0)])
def test_maximize_rejects_bad_options(option, value):
    method = "nelder_mead" if option == "restarts" else "grid_then_golden"
    with pytest.raises(ValueError, match=option):
        est.maximize(_rows(lambda t: (0.0, 0.0)), [[0, 1]], method,
                     **{option: value})


# ---------------------------------------------------------------------------
# one step-stream table per particle fit


_REPLAY_MODEL = builtin_model("finite_gaussian")
_REPLAY_DATA = sampling.simulate(_REPLAY_MODEL, [0.7], 40, seed=6,
                                 with_hidden=False)


@pytest.mark.parametrize("method, eps, n_particles, opts, one_row_chunks", [
    ("grid_then_golden", 0.3, 96,
     {"grid_points": 5, "sweeps": 1, "section_tol": 0.05}, False),
    # no collapse here: scipy's simplex warns on -inf values
    ("nelder_mead", 1.0, 200, {"restarts": 1}, False),
    # a grid filtered one row per chunk: the first row, at the box's low
    # end, collapses within a few steps, so later passes replay the steps
    # it reached and derive the rest
    ("grid", 0.3, 96, {"grid_points": 5}, True),
])
def test_fit_replays_the_streams_of_a_fresh_call(monkeypatch, method, eps,
                                                 n_particles, opts,
                                                 one_row_chunks):
    # every traced value equals a fresh call at the fit's stream key
    pert = PerturbationSpec(epsilon=eps)
    if one_row_chunks:
        monkeypatch.setattr(smc, "_CHUNK_ELEMENTS", n_particles)
    res = est.abc_mle(_REPLAY_MODEL, _REPLAY_DATA, pert, method=method,
                      n_particles=n_particles, seed=8, **opts)
    crn = rng.derive_seed(8, "crn")
    fresh = [smc.smc_abc_likelihood(_REPLAY_MODEL, theta, _REPLAY_DATA, pert,
                                    n_particles, crn)
             for theta, _, _ in res.trace]
    got = [(value, se) for _, value, se in res.trace]
    want = [(e.log_value, e.se_proxy) for e in fresh]
    assert repr(got) == repr(want)          # repr: every bit, -inf too
    collapsed = [e.collapsed_at for e in fresh]
    if one_row_chunks:
        assert collapsed[0] is not None and collapsed[0] < 10
        assert None in collapsed
    else:
        assert len(got) > 10


def test_one_fit_derives_each_step_stream_once(stream_keys):
    # 2 streams per step, derived by the first evaluation that reaches the
    # step; a second fit with the same seed derives them all again
    pert = PerturbationSpec(epsilon=0.3)
    n = _REPLAY_DATA.n
    fits = []
    for _ in range(2):
        stream_keys.clear()
        fits.append(est.abc_mle(_REPLAY_MODEL, _REPLAY_DATA, pert,
                                n_particles=96, seed=8, grid_points=5,
                                sweeps=1, section_tol=0.05))
        assert fits[-1].n_evaluations > 10
        assert len(stream_keys) == len(set(stream_keys)) == 2 * n
    assert repr(fits[0].trace) == repr(fits[1].trace)
