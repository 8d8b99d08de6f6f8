import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import rng, sampling
from abchmm.models import ModelSpec, PerturbationSpec, builtin_model, \
    draw_noise, sample_observations


@pytest.fixture(scope="module")
def model():
    return builtin_model("finite_gaussian")


def test_simulate_shapes_and_determinism(model):
    a = sampling.simulate(model, [0.5], 40, seed=11)
    b = sampling.simulate(model, [0.5], 40, seed=11)
    assert a.observations.shape == (40, 1)
    assert a.hidden.shape == (40,)
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.hidden, b.hidden)
    c = sampling.simulate(model, [0.5], 40, seed=12)
    assert not np.array_equal(a.observations, c.observations)
    assert a.meta["seed"] == 11
    assert a.meta["model"] == "finite_gaussian"


def test_simulate_names_a_bad_count(model):
    for n in (0, -4, True, 2.0, None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            sampling.simulate(model, [0.5], n, seed=0)


def test_simulate_without_hidden(model):
    t = sampling.simulate(model, [0.5], 10, seed=0, with_hidden=False)
    assert t.hidden is None


def test_hidden_marginals(model):
    # long-run state frequencies match the stationary law
    t = sampling.simulate(model, [0.5], 50_000, seed=3)
    freq = np.bincount(t.hidden, minlength=2) / t.hidden.size
    np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.02)


def test_path_and_obs_streams_are_separate(model):
    # changing theta moves observations but must not reshuffle the path
    a = sampling.simulate(model, [0.2], 200, seed=5)
    b = sampling.simulate(model, [1.4], 200, seed=5)
    np.testing.assert_array_equal(a.hidden, b.hidden)
    assert not np.array_equal(a.observations, b.observations)


def test_noisify(model):
    t = sampling.simulate(model, [0.5], 5000, seed=1)
    pert = PerturbationSpec(epsilon=0.5)
    noisy = sampling.noisify(t, pert, seed=2)
    delta = noisy.observations - t.observations
    assert np.all(np.abs(delta) <= 0.5)
    assert abs(delta.var() - 0.5 ** 2 / 3) < 4e-3
    assert noisy.meta["noise_epsilon"] == 0.5
    with pytest.raises(ValueError, match="already"):
        sampling.noisify(noisy, pert, seed=3)


@pytest.mark.parametrize("summary", [None, "identity", "abs"])
def test_load_refuses_a_summarised_sidecar(model, tmp_path, summary):
    # a summary is emitted by the model, never applied to the data; a
    # sidecar that records one other than identity is refused, by name
    t = sampling.simulate(model, [0.5], 30, seed=1)
    assert "summary" not in t.meta
    path = sampling.save_trajectory(t, tmp_path / "s.csv")
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta["summary"] = summary
    sidecar.write_text(json.dumps(meta))
    if summary == "abs":
        with pytest.raises(ValueError, match="'abs'") as info:
            sampling.load_trajectory(path)
        assert str(info.value).startswith(f"{sidecar}: ")
    else:
        back = sampling.load_trajectory(path)
        assert back.observations.tobytes() == t.observations.tobytes()


def test_csv_round_trip_bit_exact(model, tmp_path):
    t = sampling.simulate(model, [0.5], 64, seed=9)
    path = sampling.save_trajectory(t, tmp_path / "traj.csv")
    back = sampling.load_trajectory(path)
    np.testing.assert_array_equal(back.observations, t.observations)
    np.testing.assert_array_equal(back.hidden, t.hidden)
    assert back.meta == t.meta


def test_csv_round_trip_no_hidden(model, tmp_path):
    t = sampling.simulate(model, [0.5], 16, seed=9, with_hidden=False)
    back = sampling.load_trajectory(sampling.save_trajectory(t, tmp_path / "t.csv"))
    assert back.hidden is None
    np.testing.assert_array_equal(back.observations, t.observations)


def test_missing_sidecar_warns(model, tmp_path):
    t = sampling.simulate(model, [0.5], 8, seed=9)
    path = sampling.save_trajectory(t, tmp_path / "t.csv")
    (tmp_path / "t.json").unlink()
    with pytest.warns(UserWarning, match="sidecar"):
        back = sampling.load_trajectory(path)
    np.testing.assert_array_equal(back.observations, t.observations)
    assert back.meta["seed"] is None and back.meta["model"] is None


@pytest.mark.parametrize("meta", ["[1, 2]", "3", '"seed"', "null"])
def test_sidecar_that_is_not_an_object_is_named(model, tmp_path, meta):
    # valid JSON that is not an object is no metadata: a ValueError naming
    # the sidecar, not an AttributeError from deep inside
    path = sampling.save_trajectory(
        sampling.simulate(model, [0.5], 8, seed=9), tmp_path / "t.csv")
    (tmp_path / "t.json").write_text(meta)
    with pytest.raises(ValueError) as info:
        sampling.load_trajectory(path)
    assert str(info.value) == (f"{tmp_path / 't.json'}: trajectory metadata "
                               "must be a JSON object")


def test_raw_array_trajectory():
    t = sampling.Trajectory(observations=np.arange(6.0).reshape(3, 2))
    assert t.observations.shape == (3, 2)
    assert t.meta.get("seed") is None


def test_first_state_law_is_initial_times_transition():
    # initial_dist is the law before the first observation: from a point
    # mass on state 0 the first observed state is 0 with probability 0.7
    model = builtin_model("finite_gaussian", hyper={"initial": [1.0, 0.0]})
    first = np.array([sampling.simulate(model, [0.5], 1, seed=s).hidden[0]
                      for s in range(2000)])
    assert np.mean(first == 0) == pytest.approx(0.7, abs=0.03)


# ---------------------------------------------------------------------------
# the chain sampler shared by simulate and the Fisher replicates


def _reference_series(model, theta, reps, n, path_rng, obs_rng):
    """One inversion per (step, replicate) by ``searchsorted``, with the
    uniforms read step by step, ``reps`` per step."""
    p = np.asarray(model.transition_matrix(theta), dtype=float)
    k = p.shape[0]
    cum = np.cumsum(p, axis=1)
    cum_first = np.cumsum(np.asarray(model.initial_dist(theta)) @ p)
    u = path_rng.random((n, reps))
    states = np.empty((reps, n), dtype=np.int64)
    for r in range(reps):
        law = cum_first
        for t in range(n):
            s = int(np.searchsorted(law, u[t, r], side="left"))
            states[r, t] = min(s, k - 1)
            law = cum[states[r, t]]
    obs = sample_observations(model, theta[None], states.reshape(1, -1),
                              draw_noise(model, obs_rng, reps * n))[0]
    return states, obs.reshape(reps, n, -1)


def _law_with_zeros(gen, k, size=None):
    """Random laws over k states (a (size, k) stack when size is given)
    with about a third of the entries zero, one entry kept positive."""
    shape = (k,) if size is None else (size, k)
    w = gen.exponential(size=shape) * (gen.random(shape) > 0.35)
    idx = gen.integers(0, k, size=shape[:-1])
    np.put_along_axis(w, np.asarray(idx)[..., None], 1.0, axis=-1)
    return w / w.sum(axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_simulate_series_matches_per_step_inversion(draw):
    k = draw.draw(st.integers(1, 5), label="n_states")
    reps = draw.draw(st.sampled_from([1, 2, 9]), label="reps")
    n = draw.draw(st.integers(1, 40), label="n")
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    hyper = {"mu_coeff": list(range(k)),
             "transition": _law_with_zeros(gen, k, k).tolist(),
             "initial": _law_with_zeros(gen, k).tolist()}
    model = builtin_model("finite_gaussian", hyper=hyper)
    theta = np.array([0.5])
    seed = int(gen.integers(0, 2**31))

    def run(simulator):
        return simulator(model, theta, reps, n, rng.stream(seed, "p"),
                         rng.stream(seed, "o"))

    want = run(_reference_series)
    # a draw table of a few entries makes blocks of one to a few steps
    budget = draw.draw(st.integers(1, 64), label="block_entries")
    with mock.patch.object(sampling, "_BLOCK_ENTRIES", budget):
        blocked = run(sampling._simulate_series)
    for got in (run(sampling._simulate_series), blocked):
        assert got[0].dtype == np.int64
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def _two_dim_model(sizes):
    """A three-state model of 2-D observations whose sampler acts per
    particle, and appends the size of each call to ``sizes``."""
    base = builtin_model("finite_gaussian")
    means = np.array([[-1.0, 0.5], [0.0, 2.0], [3.0, -1.0]])

    def obs_sampler(theta, states, noise):
        sizes.append(states.shape[1])
        y = means[states] * theta[:, None, :1]
        y[..., 1] += np.sin(noise[:, 0]) * noise[:, 1]
        y[..., 0] += noise[:, 0] ** 3
        return y

    return ModelSpec(
        name="two_dim", obs_dim=2, theta_box=base.theta_box,
        transition_matrix=lambda th: np.array([[0.6, 0.3, 0.1],
                                               [0.2, 0.5, 0.3],
                                               [0.3, 0.0, 0.7]]),
        initial_dist=lambda th: np.array([0.2, 0.3, 0.5]),
        obs_sampler=obs_sampler,
        obs_noise=lambda g, size: g.standard_normal((size, 2)))


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_simulate_series_chunks_keep_every_observation(budget):
    # the sampler runs on consecutive chunks of at most _BLOCK_ENTRIES
    # observations of the series laid end to end; entry i of a call reads
    # only the i-th state and noise, so the chunks give the whole call's
    # bytes
    sizes = []
    model = _two_dim_model(sizes)
    theta = np.array([0.7])
    reps, n = 3, 50

    def run():
        return sampling._simulate_series(model, theta, reps, n,
                                         rng.stream(9, "p"),
                                         rng.stream(9, "o"))

    want = run()
    assert sizes == [reps * n]
    sizes.clear()
    with mock.patch.object(sampling, "_BLOCK_ENTRIES", budget):
        got = run()
    assert sizes == [budget] * (reps * n // budget) \
        + ([reps * n % budget] if reps * n % budget else [])
    assert got[1].shape == (reps, n, 2) and got[1].dtype == np.float64
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_PIN_MODELS = {
    "finite_gaussian": ("finite_gaussian", None, [0.8]),
    "three_state_zeros": ("finite_gaussian", {
        "param": "scale", "mu": [-1.0, 0.0, 2.0],
        "transition": [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.6, 0.0, 0.4]]},
        [1.3]),
    "iid_pm_theta": ("iid_pm_theta", None, [1.2]),
    "two_state_alpha_stable": ("two_state_alpha_stable", None, [1.0, 0.3]),
}


# sha256 of the hidden path's and the observations' bytes.  A change here
# moves every simulated data set, so it must be stated, not re-recorded.
@pytest.mark.parametrize("label, n, seed, digest", [
    ("finite_gaussian", 500, 1,
     "7b2999fbd67efea52cbdb504ed637475252c7d17799f48e0e9b7f3f090fd5d36"),
    ("finite_gaussian", 500, 2,
     "417000e7af212c27b86a490e4ee842965cf4a11197f122723ab9f31a2fa83b8c"),
    ("three_state_zeros", 500, 1,
     "8c3cc3c95069cb5cef81141ebe70ce776f2f75d800970e516480a5ca7d6da7fc"),
    ("three_state_zeros", 500, 2,
     "ee268f9facea4e5738b88c533a40fc4d62ce176c462280fbdaba3c02e2ddcee6"),
    ("iid_pm_theta", 500, 1,
     "c38831e5bc6a65473927bf86ce2535507c61fcf9c2ae520b40737019c0d85b82"),
    ("iid_pm_theta", 500, 2,
     "48d75cf988f769806d65598f7b2cb1048475e99d870ae34801a31b1befb62ace"),
    ("two_state_alpha_stable", 500, 1,
     "92000708e919d82a5f6491e814b327044ab5ad7e9848bac195825669e8ed436d"),
    ("two_state_alpha_stable", 500, 2,
     "19c317202ba4cf8b5f2b09a8c6d563d10c8d9b9b87aa269441695a6c451dd5ba"),
    # more steps than one time block holds
    ("finite_gaussian", 30000, 1,
     "272476a66b8e82a9b131303b5450c405ae184231f770428220ee6e1f749d8f66"),
], ids=lambda v: str(v)[:24])
def test_simulate_bytes_are_pinned(label, n, seed, digest):
    name, hyper, theta = _PIN_MODELS[label]
    t = sampling.simulate(builtin_model(name, hyper=hyper), theta, n, seed)
    assert _sha256(t.hidden, t.observations) == digest


def test_json_value_names_every_non_finite_number():
    assert [sampling.json_value(v) for v in
            (-math.inf, math.inf, math.nan, -1.5, 0.0)] \
        == ["-inf", "inf", "nan", -1.5, 0.0]
