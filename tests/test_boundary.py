"""Malformed input fails at the boundary, with a ValueError that names the
problem, and never comes back as a number."""

import contextlib
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abchmm import cli, estimate, fisher, oracle, sampling, smc
from abchmm.kernels import KERNELS
from abchmm.errors import ConfigError
from abchmm.models import (ParameterVector, PerturbationSpec, builtin_model,
                           load_model_config)

_MODEL = builtin_model("finite_gaussian", hyper={"param": "mean_scale"})
_THETA = [0.7, 1.1]


def _entry_points(pert):
    """Every public route from (theta, series) to a number, by name."""
    return {
        "forward_loglik": lambda th, ys: oracle.forward_loglik(
            _MODEL, th, ys, pert),
        "forward_loglik_grid": lambda th, ys: oracle.forward_loglik_grid(
            _MODEL, [th], ys, pert),
        "forward_filter": lambda th, ys: oracle.forward_filter(
            _MODEL, th, ys, pert),
        "forward_score_batch": lambda th, ys: oracle.forward_score_batch(
            _MODEL, th, np.asarray(ys, dtype=float)[None], pert),
        "smc_abc_likelihood": lambda th, ys: smc.smc_abc_likelihood(
            _MODEL, th, ys, pert, 8, seed=0),
    }


def _is_law(values, k):
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return v.shape == (k,) and bool(np.all(np.isfinite(v))) \
            and bool(np.all(v >= 0.0)) \
            and math.isclose(v.sum(), 1.0, abs_tol=1e-10)


def _bad_theta(draw):
    j = draw.draw(st.integers(0, 1), label="coordinate")
    lo, hi = _MODEL.theta_box[j]
    theta = list(_THETA)
    theta[j] = draw.draw(st.one_of(
        st.just(math.nan),
        st.floats(allow_nan=False).filter(lambda v: not lo <= v <= hi)),
        label="value")
    return theta


def _bad_transition(draw, gen):
    k = draw.draw(st.integers(2, 3), label="n_states")
    p = gen.dirichlet(np.ones(k), size=k)
    how = draw.draw(st.sampled_from(["row_sum", "negative", "nan",
                                     "not_square"]), label="how")
    i = int(gen.integers(0, k))
    if how == "row_sum":
        p[i] *= draw.draw(st.sampled_from([0.5, 1.01, 3.0]), label="factor")
    elif how == "negative":
        p[i, -1] += p[i, 0] + 0.25      # the row still sums to one
        p[i, 0] = -0.25
    elif how == "nan":
        p[i, int(gen.integers(0, k))] = np.nan
    else:
        p = np.hstack([p, np.zeros((k, 1))])
    return k, p


def _bad_option(draw):
    """An optimizer option and a value that ``estimate.maximize`` must
    reject: a section_tol that is not a positive finite number (at or below
    zero the search never ends; NaN ends it after the bracket), and counts
    below their least value or not integers."""
    option = draw.draw(st.sampled_from(["section_tol", "grid_points",
                                        "sweeps", "restarts"]),
                       label="option")
    if option == "section_tol":
        value = draw.draw(st.one_of(
            st.just(math.nan), st.just(math.inf),
            st.floats(max_value=0.0, allow_infinity=True)), label="value")
    else:
        least = 0 if option == "sweeps" else 1
        value = draw.draw(st.one_of(
            st.integers(max_value=least - 1),
            st.floats(allow_nan=True), st.booleans()), label="value")
    return option, value


# least value of each count argument of the fisher entry points
_LEAST = {"n": 1, "n_replicates": 2, "window": 0}


def _count_calls(pert):
    """(count, call) for every count argument of the fisher entry points:
    ``call(value)`` passes ``value`` for that count and valid values for
    the others."""
    eps = pert.epsilon
    entries = [
        (fisher.estimate_fisher, (), {"n": 1, "n_replicates": 2}),
        (fisher.loss_point, (eps,), {"window": 1, "n_replicates": 2}),
        (fisher.missing_information_check, (eps,),
         {"n": 1, "n_replicates": 2}),
    ]
    return [(name, lambda value, fn=fn, args=args, counts=counts, name=name:
             fn(_MODEL, _THETA, *args, seed=0, **{**counts, name: value}))
            for fn, args, counts in entries for name in counts]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_malformed_input_raises_and_returns_no_number(draw):
    kind = draw.draw(st.sampled_from(["theta", "data", "width", "init",
                                      "transition", "count",
                                      "optimizer", "epsilon"]),
                     label="kind")
    n = draw.draw(st.integers(1, 8), label="n")
    ys = np.linspace(-1.5, 1.5, n)
    pert = PerturbationSpec(epsilon=draw.draw(st.floats(0.05, 1.0)),
                            kernel=draw.draw(st.sampled_from(KERNELS)))
    gen = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    calls = _entry_points(pert)
    if kind == "theta":
        theta = _bad_theta(draw)
        for call in calls.values():
            with pytest.raises(ValueError, match=r"theta\[\d\] = .* outside"):
                call(theta, ys)
    elif kind == "data":
        ys[gen.integers(0, n)] = draw.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        for call in calls.values():
            with pytest.raises(ValueError, match="not finite"):
                call(_THETA, ys)
        batch = np.stack([np.zeros(n), ys])
        with pytest.raises(ValueError, match="not finite"):
            oracle.forward_score_batch(_MODEL, _THETA, batch, pert)
    elif kind == "width":
        wide = np.repeat(ys[:, None], draw.draw(st.integers(2, 3)), axis=1)
        for name in ("forward_loglik", "forward_loglik_grid",
                     "forward_filter", "smc_abc_likelihood"):
            with pytest.raises(ValueError, match="1-D"):
                calls[name](_THETA, wide)
        with pytest.raises(ValueError, match="1-D"):
            oracle.forward_score_batch(_MODEL, _THETA, wide[None], pert)
    elif kind == "init":
        init = draw.draw(st.one_of(
            st.integers().filter(lambda i: not 0 <= i < 2), st.booleans(),
            st.floats(allow_nan=True),
            st.lists(st.floats(allow_nan=True, allow_infinity=True),
                     max_size=4).filter(lambda v: not _is_law(v, 2))),
            label="init")
        with pytest.raises(ValueError, match="init must be"):
            oracle.forward_filter(_MODEL, _THETA, ys, pert, init=init)
        with pytest.raises(ValueError, match="init must be"):
            oracle.filter_tv_forgetting(_MODEL, _THETA, ys, init_a=init)
        with pytest.raises(ValueError, match="'initial'"):
            builtin_model("finite_gaussian", hyper={"initial": init})
    elif kind == "transition":
        k, p = _bad_transition(draw, gen)
        hyper = {"transition": p.tolist(), "mu_coeff": [1.0] * k}
        with pytest.raises(ValueError, match="transition"):
            builtin_model("finite_gaussian", hyper=hyper)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main(["fisher", "--model", "finite_gaussian",
                               "--hyper", json.dumps(hyper), "--theta", "0.7",
                               "--n", "5", "--replicates", "2", "--seed", "0"])
        assert status == 2
        assert err.getvalue().startswith("error: ") \
            and "transition" in err.getvalue()
    elif kind == "epsilon":
        # NaN once gave NaN likelihoods and noisy data, and inf a failed
        # fit; a bool was taken for tolerance 1, and a string raised a bare
        # TypeError
        eps = draw.draw(st.one_of(
            st.just(math.nan), st.just(math.inf),
            st.floats(max_value=0.0, exclude_max=True),
            st.sampled_from([True, np.True_, "0.3"])), label="epsilon")
        with pytest.raises(ValueError, match="epsilon must be"):
            PerturbationSpec(epsilon=eps, kernel=pert.kernel)
        if not isinstance(eps, float):
            return              # --epsilon reads a float, or argparse exits
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main(["fisher", "--model", "finite_gaussian",
                               "--theta", "0.7", "--n", "5", "--replicates",
                               "2", "--seed", "0", f"--epsilon={eps!r}"])
        assert status == 2
        assert err.getvalue().startswith("error: epsilon must be")
    elif kind == "optimizer":
        option, value = _bad_option(draw)
        fits = {
            "maximize": lambda **kw: estimate.maximize(
                lambda ths: (np.zeros(len(ths)),) * 2, _MODEL.theta_box,
                **kw),
            "abc_mle": lambda **kw: estimate.abc_mle(
                _MODEL, ys, pert, objective="oracle", **kw),
            "noisy_abc_mle": lambda **kw: estimate.noisy_abc_mle(
                _MODEL, ys, pert, objective="oracle", **kw),
            "exact_mle": lambda **kw: estimate.exact_mle(_MODEL, ys, **kw),
        }
        method = "nelder_mead" if option == "restarts" else \
            draw.draw(st.sampled_from(["grid", "grid_then_golden"]),
                      label="method")
        for fit in fits.values():
            with pytest.raises(ValueError, match=option):
                fit(method=method, **{option: value})
    else:
        # a count below its least value, or one that is not an integer;
        # and a grid of no parameter rows
        shortfall = draw.draw(st.integers(1, 10**6), label="shortfall")
        odd = draw.draw(st.one_of(st.none(), st.floats(allow_nan=True),
                                  st.booleans()), label="not_integer")
        for name, call in _count_calls(pert):
            value = _LEAST[name] - shortfall if odd is None else odd
            with pytest.raises(ValueError,
                               match=rf"\b{name} must be an integer"):
                call(value)
        with pytest.raises(ValueError, match="thetas"):
            oracle.forward_loglik_grid(_MODEL, np.empty((0, 2)), ys, pert)


_EMPTY_MESSAGE = "data must contain at least one observation"


@pytest.mark.parametrize("route", [
    "forward_loglik", "forward_loglik_grid", "forward_filter",
    "exact_smc_target", "abc_mle", "exact_mle"])
def test_empty_series_is_refused_on_the_exact_path(route):
    # the particle estimator refuses an empty series; the exact path once
    # gave log-likelihood 0 and a fit at the box corner
    pert = PerturbationSpec(epsilon=0.3)
    calls = {
        "forward_loglik": lambda ys: oracle.forward_loglik(
            _MODEL, _THETA, ys, pert),
        "forward_loglik_grid": lambda ys: oracle.forward_loglik_grid(
            _MODEL, [_THETA], ys, pert),
        "forward_filter": lambda ys: oracle.forward_filter(_MODEL, _THETA, ys),
        "exact_smc_target": lambda ys: oracle.exact_smc_target(
            _MODEL, _THETA, ys, pert),
        "abc_mle": lambda ys: estimate.abc_mle(_MODEL, ys, pert,
                                               objective="oracle"),
        "exact_mle": lambda ys: estimate.exact_mle(_MODEL, ys),
    }
    with pytest.raises(ValueError, match=_EMPTY_MESSAGE):
        calls[route](np.empty(0))


@pytest.mark.parametrize("thetas, message", [
    (np.full((2, 2, 1), 0.7), r"thetas must be a \(G, d\) array .* \(2, 2, 1\)"),
    (_THETA, r"thetas must be a \(G, d\) array .* \(2,\)"),
    (np.empty((0, 2)), r"thetas must be a \(G, d\) array .* \(0, 2\)"),
    ([[0.7]], "expects 2 parameters, got 1"),
    ([_THETA, [0.7, math.nan]], r"theta\[1\] = nan outside box"),
    ([_THETA, [9.0, 1.1]], r"theta\[0\] = 9.0 outside box"),
], ids=["3-d", "1-d", "no-rows", "wrong-d", "nan", "out-of-box"])
def test_both_batch_entries_refuse_a_bad_batch_alike(thetas, message):
    # the exact and the particle batch share one gate, so one malformed
    # batch gets one message from both
    ys = np.linspace(-1.5, 1.5, 6)
    pert = PerturbationSpec(epsilon=0.3)
    calls = [
        lambda: oracle.forward_loglik_grid(_MODEL, thetas, ys, pert),
        lambda: smc.smc_abc_likelihood_batch(_MODEL, thetas, ys, pert, 8,
                                             seed=0)]
    messages = []
    for call in calls:
        with pytest.raises(ValueError, match=message) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("route", ["forward_score_batch", "boundary_scores"])
def test_empty_replicate_series_are_refused(route):
    # replicate series with no steps once gave log-likelihood 0 and score 0
    model = builtin_model("finite_gaussian")
    pert = PerturbationSpec(epsilon=0.3)
    calls = {
        "forward_score_batch": lambda: oracle.forward_score_batch(
            model, [0.8], np.empty((3, 0))),
        "boundary_scores": lambda: oracle.boundary_scores(
            model, [0.8], pert, np.empty((2, 0)), np.empty((2, 0)), [0]),
    }
    with pytest.raises(ValueError, match=_EMPTY_MESSAGE):
        calls[route]()


@pytest.mark.parametrize("bad", [2.7, 2.0, True, np.True_, "2", None, -1],
                         ids=["fraction", "float", "bool", "numpy-bool",
                              "string", "none", "negative"])
def test_boundary_scores_refuse_a_non_integer_boundary(bad):
    # int() once truncated bad boundaries into plausible scores:
    # boundaries [2.7, True] gave the keys {1, 2}
    model = builtin_model("finite_gaussian")
    pert = PerturbationSpec(epsilon=0.3)
    y = np.linspace(-1.0, 1.0, 10).reshape(2, 5)
    with pytest.raises(ValueError, match="boundary must be an integer >= 0, "
                       f"got {re.escape(repr(bad))}"):
        oracle.boundary_scores(model, [0.8], pert, y, y, [1, bad])
    # NumPy integers stay accepted, as the same boundaries
    got = oracle.boundary_scores(model, [0.8], pert, y, y,
                                 np.array([5, 2, 1]))
    want = oracle.boundary_scores(model, [0.8], pert, y, y, [1, 2, 5])
    assert list(got) == list(want) == [1, 2, 5]
    for b in want:
        assert got[b].tobytes() == want[b].tobytes()


_SEED_MODEL = builtin_model("finite_gaussian")
_SEED_PERT = PerturbationSpec(epsilon=0.3)


def _seeded(entry, seed):
    """The result bytes and the recorded seed of ``entry`` run at
    ``seed``."""
    data = sampling.simulate(_SEED_MODEL, [0.8], 20, seed=4)
    if entry == "simulate":
        traj = sampling.simulate(_SEED_MODEL, [0.8], 20, seed=seed)
        return traj.observations.tobytes() + traj.hidden.tobytes(), \
            traj.meta["seed"]
    if entry == "noisify":
        traj = sampling.noisify(data, _SEED_PERT, seed)
        return traj.observations.tobytes(), traj.meta["noise_seed"]
    if entry == "estimate_fisher":
        fe = fisher.estimate_fisher(_SEED_MODEL, [0.8], n=10, n_replicates=4,
                                    seed=seed)
        return fe.matrix.tobytes(), fe.seed
    if entry == "smc_abc_likelihood":
        est = smc.smc_abc_likelihood(_SEED_MODEL, [0.8], data, _SEED_PERT,
                                     50, seed=seed)
    else:
        est = smc.smc_abc_likelihood_batch(_SEED_MODEL, [[0.8]], data,
                                           _SEED_PERT, 50, seed=seed)[0]
    return est.step_acceptance.tobytes(), est.seed


@pytest.mark.parametrize("entry", ["simulate", "noisify", "smc_abc_likelihood",
                                   "smc_abc_likelihood_batch",
                                   "estimate_fisher"])
def test_a_recorded_seed_reproduces_its_result(entry):
    # the streams come from the seed as given, and the record from
    # int(seed): seed 2.5 once drew other streams than the seed 2 it
    # reported, and True reported seed 1
    for bad in (2.5, True, np.True_):
        with pytest.raises(ValueError, match="seed must be an integer, got "
                           f"{re.escape(repr(bad))}"):
            _seeded(entry, bad)
    got, recorded = _seeded(entry, np.int64(7))
    assert (got, recorded) == _seeded(entry, 7)
    assert recorded == 7 and type(recorded) is int
    assert _seeded(entry, -3)[1] == -3


def _fit(entry, seed):
    data = sampling.simulate(_SEED_MODEL, [0.8], 20, seed=4)
    if entry == "exact_mle":
        return estimate.exact_mle(_SEED_MODEL, data, method="grid",
                                  grid_points=5, seed=seed)
    fit = estimate.noisy_abc_mle if entry == "noisy_abc_mle" \
        else estimate.abc_mle
    return fit(_SEED_MODEL, data, _SEED_PERT,
               objective="oracle" if entry == "abc_mle-oracle" else "smc",
               method="grid", grid_points=5, n_particles=50, seed=seed)


@pytest.mark.parametrize("entry", ["abc_mle-smc", "abc_mle-oracle",
                                   "noisy_abc_mle", "exact_mle"])
def test_every_fit_refuses_a_seed_that_is_not_an_integer(entry):
    # seed 2.5 and True once ran and were recorded in settings as they
    # were given, under both objectives
    for bad in (2.5, True, np.True_, "7"):
        with pytest.raises(ValueError, match="seed must be an integer, got "
                           f"{re.escape(repr(bad))}"):
            _fit(entry, bad)
    got, want = _fit(entry, np.int64(7)), _fit(entry, 7)
    assert got.trace == want.trace
    assert got.settings == want.settings
    assert type(got.settings["seed"]) is int


@pytest.mark.parametrize("name, value", [
    ("seed", 2.5), ("seed", True), ("seed", "7"),
    ("epsilon", True), ("epsilon", np.True_), ("epsilon", "0.3")],
    ids=lambda v: repr(v))
@pytest.mark.parametrize("entry", ["loss_point", "missing_information_check"])
def test_fisher_entries_refuse_a_bad_seed_or_tolerance(entry, name, value):
    # loss_point once ran epsilon True at tolerance 1 and raised a bare
    # TypeError on "0.3", which missing_information_check ran at 0.3; both
    # derived their streams from seed 2.5 as a float
    args = {"epsilon": 0.3, "seed": 0, name: value}
    call = fisher.loss_point if entry == "loss_point" \
        else fisher.missing_information_check
    sizes = {"window": 2} if entry == "loss_point" else {"n": 2}
    message = "seed must be an integer" if name == "seed" \
        else "epsilon must be a finite number >= 0"
    with pytest.raises(ValueError,
                       match=f"{message}, got {re.escape(repr(value))}"):
        call(_MODEL, _THETA, args["epsilon"], n_replicates=4,
             seed=args["seed"], **sizes)


# --method exact takes no --epsilon, which it would ignore
@pytest.mark.parametrize("command", [
    ["likelihood", "--epsilon", "0.3", "--theta", "0.7", "--estimator",
     "oracle"],
    ["estimate", "--epsilon", "0.3", "--seed", "0", "--objective", "oracle"],
    ["estimate", "--seed", "0", "--method", "exact"],
], ids=lambda c: f"{c[0]}-{c[-1]}")
def test_cli_refuses_a_header_only_series_on_the_exact_path(tmp_path,
                                                            command):
    data = tmp_path / "data.csv"
    data.write_text("t,y_1,x\n")
    (tmp_path / "data.json").write_text("{}")
    status, err = _run_cli(command + ["--model", "finite_gaussian", "--data",
                                      str(data)])
    assert status == 2
    assert err == f"error: {_EMPTY_MESSAGE}\n"


def _run_cli(argv):
    """``cli.main(argv)``'s status and what it wrote to stderr, the exit
    status of an argparse refusal too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


def _assert_refused(status, err, flags, message):
    """Exit 2 with the error line ``message``; but the command line has no
    --norm flag (every model it builds is scalar, where the linf and l2
    balls are one interval), so argparse refuses a trailing --norm before
    any handler runs."""
    assert status == 2
    if "--norm" in flags:
        assert err.endswith("abchmm: error: unrecognized arguments: "
                            f"{' '.join(flags[-2:])}\n")
    else:
        assert err == f"error: {message}\n"


_EXACT_FIT = ["estimate", "--model", "finite_gaussian", "--theta-star", "0.8",
              "--n", "60", "--seed", "4", "--method", "exact"]


@pytest.mark.parametrize("flags", [
    ["--epsilon", "0.3"],
    ["--objective", "smc"],
    ["--epsilon", "0.3", "--objective", "oracle"],
    ["--kernel", "gaussian"],
    ["--kernel", "gaussian", "--norm", "l2"],
], ids=lambda f: "-".join(f[::2]))
def test_cli_exact_fit_refuses_the_flags_it_ignores(flags):
    # the exact MLE once returned the same theta_hat with or without these
    status, err = _run_cli(_EXACT_FIT)
    assert (status, err) == (0, "")
    status, err = _run_cli(_EXACT_FIT + flags)
    _assert_refused(status, err, flags, "--method exact cannot be combined "
                    f"with {', '.join(flags[::2])}")


@pytest.mark.parametrize("flags", [
    ["--kernel", "gaussian"], ["--norm", "l2"],
    pytest.param(["--kernel", "uniform"], id="--kernel-uniform"),
    ["--kernel", "uniform", "--norm", "linf"],
], ids=lambda f: "-".join(f[::2]))
@pytest.mark.parametrize("command", [
    ["likelihood", "--theta", "0.8", "--estimator", "oracle"],
    ["simulate", "--theta", "0.8", "--n", "5", "--seed", "0"],
    ["fisher", "--theta", "0.8", "--n", "5", "--replicates", "2", "--seed",
     "0"],
], ids=lambda c: c[0])
def test_cli_perturbation_flags_need_epsilon(tmp_path, command, flags):
    # without --epsilon there is no perturbation, and a --kernel beside it
    # once went unread; naming the default is refused too
    data = tmp_path / "data.csv"
    assert _run_cli(["simulate", "--model", "finite_gaussian", "--theta",
                     "0.8", "--n", "20", "--seed", "4", "--out",
                     str(data)]) == (0, "")
    place = ["--out", str(tmp_path / "out.csv")] \
        if command[0] == "simulate" else ["--data", str(data)] \
        if command[0] != "fisher" else []
    status, err = _run_cli(command + ["--model", "finite_gaussian"] + place)
    assert (status, err) == (0, "")
    status, err = _run_cli(command + ["--model", "finite_gaussian"] + place
                           + flags)
    _assert_refused(status, err, flags, f"{', '.join(flags[::2])} cannot be "
                    "used without --epsilon")


@pytest.mark.parametrize("summary", [None, "identity", "abs"])
@pytest.mark.parametrize("command", [
    ["likelihood", "--theta", "0.8", "--estimator", "oracle"],
    ["estimate", "--epsilon", "0.3", "--seed", "0", "--objective", "oracle"],
], ids=lambda c: c[0])
def test_cli_refuses_a_summarised_series(tmp_path, command, summary):
    # no estimator reads a summary of the data: a fit of |y| against raw
    # pseudo-observations once exited 0 with a plausible theta_hat
    data = tmp_path / "data.csv"
    assert _run_cli(["simulate", "--model", "finite_gaussian", "--theta",
                     "0.8", "--n", "20", "--seed", "4", "--out",
                     str(data)]) == (0, "")
    sidecar = tmp_path / "data.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(meta, summary=summary)))
    status, err = _run_cli(command + ["--model", "finite_gaussian", "--data",
                                      str(data)])
    if summary == "abs":
        assert status == 2
        assert err.startswith(f"error: {sidecar}: ") and "'abs'" in err
    else:
        assert (status, err) == (0, "")


def test_cli_simulate_has_no_summary_flag(tmp_path):
    with pytest.raises(SystemExit) as info, \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
                  "--n", "5", "--seed", "0", "--out", str(tmp_path / "s.csv"),
                  "--summary", "abs"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag, value, name", [("--replicates", "1",
                                                "n_replicates"),
                                               ("--n", "0", "n")])
def test_cli_fisher_names_a_bad_count(flag, value, name):
    # the message names the flag, not the library argument ``name``
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["fisher", "--model", "finite_gaussian", "--theta",
                           "0.7", "--n", "5", "--replicates", "2", "--seed",
                           "0", flag, value])
    assert status == 2
    assert err.getvalue().startswith(f"error: {flag} must be an integer")
    assert not err.getvalue().startswith(f"error: {name} ")


@pytest.mark.parametrize("hyper", ["[1]", "0"])
def test_cli_names_a_hyper_that_is_not_an_object(hyper, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["simulate", "--model", "finite_gaussian",
                           "--hyper", hyper, "--theta", "0.7", "--n", "5",
                           "--seed", "0", "--out", str(tmp_path / "data")])
    assert status == 2
    assert err.getvalue().startswith("error: hyper of model 'finite_gaussian'")
    assert not list(tmp_path.iterdir())


def test_cli_simulate_names_a_bad_count(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["simulate", "--model", "finite_gaussian",
                           "--theta", "0.7", "--n", "0", "--seed", "0",
                           "--out", str(tmp_path / "data")])
    assert status == 2
    assert err.getvalue().startswith("error: --n must be an integer >= 1")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("box", [
    [[0.0, math.inf]], [[math.nan, 1.0]], [[1.0, 1.0]], [[2.0, -2.0]],
    [[-3.0, 3.0], [-3.0, 3.0]], [-3.0, 3.0]])
def test_theta_box_checked_at_construction(box):
    # an infinite bound once gave theta = nan inside abc_mle, and a second
    # row failed only at the first theta check.  A model config's box gets
    # the same check and message.
    with pytest.raises(ValueError, match="'finite_gaussian': theta_box"):
        builtin_model("finite_gaussian", theta_box=box)
    with pytest.raises(ValueError, match="'finite_gaussian': theta_box"):
        load_model_config({"model": "finite_gaussian", "theta_box": box})


@pytest.mark.parametrize("box", ["wide", [[0.0, "one"]], [[0.0, 1.0], [2.0]],
                                 {"lo": 0.0}])
def test_theta_box_that_is_not_numeric_is_named(box):
    # from a model config and from the --theta-box flag
    with pytest.raises(ConfigError, match="theta_box must be numeric"):
        load_model_config({"model": "finite_gaussian", "theta_box": box})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["fisher", "--model", "finite_gaussian",
                           "--theta-box", json.dumps(box), "--theta", "0.7",
                           "--seed", "0"])
    assert status == 2
    assert err.getvalue().startswith("error: theta_box must be numeric")


def _custom_model(box):
    """The built-in finite_gaussian mean model under another name, on
    ``box``."""
    return dataclasses.replace(builtin_model("finite_gaussian"),
                               name="custom", theta_box=box)


def _never_called(thetas):
    raise AssertionError("the objective ran on a bad box")


_BOX_GATES = {
    "ModelSpec": (_custom_model, "model 'custom': theta_box"),
    "ParameterVector": (lambda box: ParameterVector([0.5], box),
                        "ParameterVector: box"),
    "maximize": (lambda box: estimate.maximize(_never_called, box),
                 "maximize: box"),
}


@pytest.mark.parametrize("box", [
    [[1.0, 0.0]], [[0.0, 0.0]], [[0.0, math.inf]], [[math.nan, 1.0]],
    [0.0, 1.0], np.empty((0, 2))],
    ids=["reversed", "zero-width", "infinite", "nan", "1-D", "empty"])
@pytest.mark.parametrize("caller", list(_BOX_GATES))
def test_every_box_goes_through_one_gate(caller, box):
    # maximize once returned 0.3 on [[1, 0]], searched [[0, 0]], warned
    # partway through [[0, inf]] and raised a TypeError on a 1-D box
    build, where = _BOX_GATES[caller]
    with pytest.raises(ValueError, match=r"^" + re.escape(
            f"{where} must be d >= 1 finite [lo, hi] rows with lo < hi, "
            "got ")):
        build(box)


def test_a_list_box_is_stored_as_floats_and_fits_end_to_end():
    # a list theta_box once passed construction, then every route that
    # indexed it raised "list indices must be integers or slices, not tuple"
    listed, arrayed = _custom_model([[-3, 3]]), _custom_model(
        np.array([[-3.0, 3.0]]))
    assert listed.theta_box.dtype == float
    assert listed.theta_box.tolist() == [[-3.0, 3.0]]
    pert = PerturbationSpec(epsilon=0.5)
    ys = sampling.simulate(listed, [0.8], 30, seed=1).observations
    assert ys.tobytes() == sampling.simulate(
        arrayed, [0.8], 30, seed=1).observations.tobytes()
    assert oracle.forward_loglik(listed, [0.8], ys, pert) \
        == oracle.forward_loglik(arrayed, [0.8], ys, pert)
    assert smc.smc_abc_likelihood(listed, [0.8], ys, pert, 64, 2).log_value \
        == smc.smc_abc_likelihood(arrayed, [0.8], ys, pert, 64, 2).log_value
    fit, want = (estimate.abc_mle(m, ys, pert, n_particles=64, seed=3,
                                  grid_points=5, sweeps=1, section_tol=0.1)
                 for m in (listed, arrayed))
    assert fit.theta_hat.values.tobytes() == want.theta_hat.values.tobytes()
    assert fit.trace == want.trace and len(fit.trace) > 5


@pytest.mark.parametrize("points", [0, -3])
def test_cli_names_grid_points_below_one(points):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["estimate", "--model", "finite_gaussian",
                           "--theta-star", "0.7", "--n", "5", "--epsilon",
                           "0.3", "--grid-points", str(points), "--seed", "0"])
    assert status == 2
    assert err.getvalue().startswith("error: ") \
        and "--grid-points" in err.getvalue()


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["likelihood", "--estimator", "smc"],
    ["likelihood", "--estimator", "oracle"],
    ["estimate", "--objective", "smc"],
    ["estimate", "--objective", "oracle"],
    ["estimate", "--method", "exact"],
], ids=lambda c: f"{c[0]}-{c[-1]}")
def test_cli_names_a_bad_particle_count(tmp_path, command, value):
    # every subcommand that takes --n-particles checks it under the flag's
    # name, also where the objective never reads it
    data = tmp_path / "data.csv"
    assert cli.main(["simulate", "--model", "finite_gaussian", "--theta",
                     "0.7", "--n", "5", "--seed", "0", "--out",
                     str(data)]) == 0
    if command[0] == "likelihood":
        args = command + ["--theta", "0.7"]
    else:
        args = command + ["--seed", "0"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        status = cli.main(args + ["--model", "finite_gaussian", "--data",
                                  str(data), "--epsilon", "0.3",
                                  "--n-particles", value])
    assert status == 2
    assert err.getvalue() == (
        f"error: --n-particles must be an integer >= 1, got {value}\n")
