import numpy as np
import pytest

from abchmm import rng, sampling
from abchmm.models import PerturbationSpec, builtin_model


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


def test_apply_summary(model):
    t = sampling.simulate(model, [0.5], 30, seed=1)
    s = sampling.apply_summary(t, "abs")
    np.testing.assert_allclose(s.observations, np.abs(t.observations))
    assert s.meta["summary"] == "abs"
    with pytest.raises(ValueError, match="already"):
        sampling.apply_summary(s, "abs")
    with pytest.raises(ValueError, match="identity|abs"):
        sampling.apply_summary(t, "median")


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
