import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abchmm import cli, experiments, sampling
from abchmm.errors import ConfigError


def _strict_json(text):
    """``json.loads`` that refuses NaN and infinities, as strict parsers do."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# experiment configuration


def test_config_requires_preset_and_seed():
    with pytest.raises(ConfigError, match="'preset'"):
        experiments.ExperimentConfig.from_dict({"seed": 1})
    with pytest.raises(ConfigError, match="'seed'"):
        experiments.ExperimentConfig.from_dict({"preset": "two_point"})
    with pytest.raises(ConfigError, match="'preset'"):
        experiments.ExperimentConfig.from_dict({"preset": "nope", "seed": 1})


def test_config_rejects_unknown_param():
    with pytest.raises(ConfigError, match="'n_regimes'"):
        experiments.ExperimentConfig.from_dict(
            {"preset": "two_point", "seed": 1, "n_regimes": 3})


def test_config_rejects_bad_seed():
    with pytest.raises(ConfigError, match="'seed'"):
        experiments.ExperimentConfig.from_dict(
            {"preset": "two_point", "seed": -1})
    with pytest.raises(ConfigError, match="'seed'"):
        experiments.ExperimentConfig.from_dict(
            {"preset": "two_point", "seed": 1.5})


def test_config_overrides_merge():
    c = experiments.ExperimentConfig.from_dict(
        {"preset": "two_point", "seed": 4, "n": 40})
    assert c.params["n"] == 40
    assert c.params["epsilon"] == 1.5


def test_load_config_json_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"preset": "two_point", "seed": 2}')
    c = experiments.load_experiment_config(p)
    assert c.preset == "two_point" and c.seed == 2
    with pytest.raises(ConfigError, match="JSON"):
        experiments.load_experiment_config("{broken")


def test_load_config_long_inline_json():
    # text longer than a file name may be is read as JSON, not as a path
    text = '{"preset": "two_point", "seed": 2' + " " * 280 + "}"
    c = experiments.load_experiment_config(text)
    assert (c.preset, c.seed) == ("two_point", 2)
    with pytest.raises(ConfigError, match="JSON"):
        experiments.load_experiment_config("{" + " " * 300)
    with pytest.raises(ConfigError, match="not found"):
        experiments.load_experiment_config(Path("no_such_config.json"))


@pytest.mark.parametrize("preset, key, value", [
    ("bias_curve", "epsilons", 0.3),
    ("bias_curve", "epsilons", []),
    ("bias_curve", "epsilons", [0.3, float("nan")]),
    ("bias_curve", "epsilons", [0.0, 0.3]),
    ("bias_curve", "n_replicates", "two"),
    ("bias_curve", "n_replicates", 1),
    ("bias_curve", "n", 150.7),
    ("bias_curve", "n", True),
    ("bias_curve", "theta_star", float("inf")),
    ("bias_curve", "theta_star", 10 ** 400),
    ("consistency", "lengths", [100, 0]),
    ("consistency", "n_replicates", 0),
    ("consistency", "epsilon", -0.5),
    ("two_point", "grid_points", 0),
    ("info_loss", "theta", [1.0, "1"]),
    ("info_loss", "n_replicates", 1),
    ("info_loss", "window", -1),
    ("info_loss", "fisher_replicates", 1),
    ("info_loss", "huge_epsilon", None),
    ("bias_curve", "epsilons", [0.3]),      # a slope needs two tolerances
    ("info_loss", "epsilons", [0.3]),
])
def test_config_rejects_bad_param(preset, key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        experiments.ExperimentConfig.from_dict(
            {"preset": preset, "seed": 1, key: value})


def test_config_keeps_valid_params_unchanged():
    # the manifest hashes params, so a valid value is never coerced
    for preset in experiments.PRESETS:
        c = experiments.ExperimentConfig.from_dict({"preset": preset,
                                                    "seed": 1})
        assert c.params == experiments._PRESET_DEFAULTS[preset]
    c = experiments.ExperimentConfig.from_dict(
        {"preset": "bias_curve", "seed": 1, "epsilons": [1, 0.5],
         "theta_star": 0, "n_replicates": 2})
    assert c.params["epsilons"] == [1, 0.5]
    assert type(c.params["epsilons"][0]) is int
    assert type(c.params["theta_star"]) is int
    c = experiments.ExperimentConfig.from_dict(
        {"preset": "consistency", "seed": 1, "n_replicates": 1,
         "epsilon": 0})
    assert c.params["n_replicates"] == 1


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv(experiments.THREADS_ENV, raising=False)
    assert experiments.resolve_workers(3) == 3
    assert 1 <= experiments.resolve_workers() <= 4
    monkeypatch.setenv(experiments.THREADS_ENV, "2")
    assert experiments.resolve_workers() == 2
    monkeypatch.setenv(experiments.THREADS_ENV, "zero")
    with pytest.raises(ConfigError, match=experiments.THREADS_ENV):
        experiments.resolve_workers()
    monkeypatch.setenv(experiments.THREADS_ENV, "0")
    with pytest.raises(ConfigError, match=experiments.THREADS_ENV):
        experiments.resolve_workers()
    with pytest.raises(ConfigError):
        experiments.resolve_workers(0)


# ---------------------------------------------------------------------------
# experiment runs


def test_run_dirs_version(tmp_path):
    cfg = {"preset": "two_point", "seed": 3, "n": 40}
    first = experiments.run_experiment(cfg, tmp_path, workers=1)
    second = experiments.run_experiment(cfg, tmp_path, workers=1)
    assert first.name == "run-001"
    assert second.name == "run-002"
    assert (first / "results.csv").read_bytes() \
        == (second / "results.csv").read_bytes()
    assert json.loads((first / "manifest.json").read_text())["results_sha256"] \
        == json.loads((second / "manifest.json").read_text())["results_sha256"]


def test_two_point_headline(tmp_path):
    run = experiments.run_experiment({"preset": "two_point", "seed": 3},
                                     tmp_path, workers=1)
    derived = json.loads((run / "manifest.json").read_text())["derived"]
    assert derived["abc_theta_hat"] == 0.0
    assert abs(derived["noisy_abc_theta_hat"] - 1.0) < 0.15


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = {"preset": "bias_curve", "seed": 5, "n": 200, "n_replicates": 2,
           "epsilons": [0.3, 0.6]}
    serial = experiments.run_experiment(cfg, tmp_path / "a", workers=1)
    pooled = experiments.run_experiment(cfg, tmp_path / "b", workers=2)
    assert (serial / "results.csv").read_bytes() \
        == (pooled / "results.csv").read_bytes()
    assert (serial / "summary.csv").read_bytes() \
        == (pooled / "summary.csv").read_bytes()
    a = json.loads((serial / "manifest.json").read_text())
    b = json.loads((pooled / "manifest.json").read_text())
    assert a == b


def test_results_csv_is_rfc4180(tmp_path):
    run = experiments.run_experiment({"preset": "two_point", "seed": 3},
                                     tmp_path, workers=1)
    raw = (run / "results.csv").read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n")[0].decode()
    assert header == "task,method,theta_hat,log_value"
    assert (run / "plot.gp").exists() is False  # two_point has no curve


# results_sha256 and summary_sha256 of small runs, recorded before the three
# fit presets shared one fit task; every worker count must reproduce them
_PRESET_PINS = [
    ({"preset": "two_point", "seed": 3, "n": 40},
     "807ece4efb106e09669303575da7828479535452733e1687beaa03adb82b1b0b", None),
    ({"preset": "bias_curve", "seed": 5, "n": 150, "n_replicates": 2,
      "epsilons": [0.3, 0.6]},
     "2ca89d4761fe8fbaa6267fa37ba8decddb573cd46a3b5838d9e9f2029bba8645",
     "f287b24446b7e964c0a9d1a6f9d03175b2e5da2373f4a28a0669b33c907c27d4"),
    ({"preset": "consistency", "seed": 7, "lengths": [100, 200],
      "n_replicates": 2},
     "8a7bac58fd5b8da32d7d3deb48874ed40ba93bd2836747eca1585517e02fc013",
     "2cdbf371bd563d6a5b7f4477918fe522a445d31c83c0c7be0b6d0b4fdd82cfcd"),
    ({"preset": "info_loss", "seed": 5, "n_replicates": 300,
      "fisher_replicates": 100, "fisher_n": 50, "window": 8},
     "2a64b5804dfde13ab32a7d48f5cc848ffec71d2ee229b5c3d37f0ff91db04100", None),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg, results_sha, summary_sha", _PRESET_PINS,
                         ids=[c["preset"] for c, _, _ in _PRESET_PINS])
def test_preset_bytes_pinned(tmp_path, cfg, results_sha, summary_sha,
                             workers):
    run = experiments.run_experiment(cfg, tmp_path, workers=workers)
    manifest = _strict_json((run / "manifest.json").read_text())
    assert manifest["results_sha256"] == results_sha
    assert manifest.get("summary_sha256") == summary_sha


def test_bias_curve_outputs(tmp_path):
    cfg = {"preset": "bias_curve", "seed": 5, "n": 150, "n_replicates": 2,
           "epsilons": [0.3, 0.6]}
    run = experiments.run_experiment(cfg, tmp_path, workers=1)
    rows = (run / "results.csv").read_bytes().decode().strip().split("\r\n")
    assert len(rows) == 1 + 4  # header + 2 eps x 2 reps
    plot = (run / "plot.gp").read_text()
    assert plot.startswith("set datafile") and "\nset logscale xy\n" in plot
    manifest = _strict_json((run / "manifest.json").read_text())
    assert "slope" in manifest["derived"]
    assert "timestamp" not in json.dumps(manifest).lower()


def test_bias_curve_slope_needs_two_points():
    # a tolerance whose bias is zero drops out of the fit; one point left
    # gives no slope, written as JSON null, not NaN
    config = experiments.ExperimentConfig.from_dict(
        {"preset": "bias_curve", "seed": 1, "epsilons": [0.1, 0.2]})
    rows = [{"epsilon": eps, "bias": bias}
            for eps, bias in [(0.1, 0.0), (0.1, 0.0), (0.2, 0.5), (0.2, 0.7)]]
    derived = experiments._summarize_bias_curve(config, rows)[2]
    assert derived == {"slope": None}


def test_manifest_is_strict_json(tmp_path, monkeypatch):
    # a NaN in the derived numbers fails the run before any file is written
    expand, summarize = experiments._PRESET_PIPELINE["two_point"]

    def nan_summary(config, rows):
        results, summary, _, plot = summarize(config, rows)
        return results, summary, {"slope": float("nan")}, plot

    monkeypatch.setitem(experiments._PRESET_PIPELINE, "two_point",
                        (expand, nan_summary))
    with pytest.raises(ValueError, match="JSON"):
        experiments.run_experiment({"preset": "two_point", "seed": 3,
                                    "n": 40}, tmp_path, workers=1)
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# command line


def run_cli(argv):
    return cli.main(argv)


def test_cli_simulate_estimate_round_trip(tmp_path, capsys):
    data = tmp_path / "series.csv"
    rc = run_cli(["simulate", "--model", "iid_pm_theta", "--theta", "1.0",
                  "--n", "60", "--seed", "4", "--out", str(data)])
    assert rc == 0
    capsys.readouterr()
    rc = run_cli(["estimate", "--method", "abc", "--model", "iid_pm_theta",
                  "--data", str(data), "--epsilon", "1.5", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta_hat: 0" in out.splitlines()[0]


def test_cli_pathology_example(capsys):
    rc = run_cli(["estimate", "--method", "abc", "--model", "iid_pm_theta",
                  "--theta-star", "1.0", "--epsilon", "1.5", "--n", "100",
                  "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theta_hat: 0"


def test_cli_likelihood_oracle_vs_particle(tmp_path, capsys):
    data = tmp_path / "g.csv"
    run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
             "--n", "30", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    rc = run_cli(["likelihood", "--model", "finite_gaussian", "--theta", "0.8",
                  "--data", str(data), "--epsilon", "0.5", "--estimator",
                  "oracle", "--json"])
    assert rc == 0
    oracle_val = json.loads(capsys.readouterr().out)["log_ball_probability"]
    rc = run_cli(["likelihood", "--model", "finite_gaussian", "--theta", "0.8",
                  "--data", str(data), "--epsilon", "0.5", "--n-particles",
                  "4000", "--seed", "1", "--json"])
    assert rc == 0
    particle = json.loads(capsys.readouterr().out)
    assert particle["estimator"] == "smc"
    assert abs(particle["log_ball_probability"] - oracle_val) < 1.0
    assert particle["collapsed_at"] is None


def test_cli_exit_codes(tmp_path, capsys):
    # unknown model -> configuration error
    assert run_cli(["estimate", "--method", "abc", "--model", "nope",
                    "--theta-star", "1.0", "--epsilon", "1.0", "--n", "10",
                    "--seed", "0"]) == 2
    # broken hyper JSON -> configuration error
    assert run_cli(["simulate", "--model", "finite_gaussian", "--hyper",
                    "{broken", "--theta", "0.5", "--n", "5", "--seed", "0",
                    "--out", str(tmp_path / "x.csv")]) == 2
    # missing data source -> configuration error
    assert run_cli(["estimate", "--method", "abc", "--model", "iid_pm_theta",
                    "--epsilon", "1.0", "--seed", "0"]) == 2
    # collapse everywhere -> estimation failure
    assert run_cli(["estimate", "--method", "abc", "--model", "iid_pm_theta",
                    "--theta-star", "1.0", "--epsilon", "1e-6", "--n", "30",
                    "--seed", "3", "--objective", "smc", "--optimizer",
                    "grid", "--grid-points", "6"]) == 1
    err = capsys.readouterr().err
    assert "estimation failed" in err
    # a ValueError from the library -> an error line and status 2, not a
    # traceback
    data = tmp_path / "g.csv"
    run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
             "--n", "10", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    likelihood = ["likelihood", "--model", "finite_gaussian", "--data",
                  str(data), "--epsilon", "0.5"]
    assert run_cli(likelihood + ["--theta", "9", "--estimator", "oracle"]) == 2
    assert capsys.readouterr().err == (
        "error: theta[0] = 9.0 outside box [-3.0, 3.0] for model "
        "'finite_gaussian'\n")
    assert run_cli(likelihood + ["--theta", "0.8", "--n-particles", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: --n-particles must be an integer >= 1, got 0\n")
    # a flag the chosen path never reads is refused by name: the exact
    # value and the exact objective draw no particles, and --data leaves
    # nothing to simulate
    for flags in (["--n-particles", "500"], ["--seed", "3"],
                  ["--n-particles", "500", "--seed", "0"]):
        assert run_cli(likelihood + ["--theta", "0.8", "--estimator",
                                     "oracle"] + flags) == 2
        assert capsys.readouterr().err == (
            "error: --estimator oracle cannot be combined with "
            f"{', '.join(flags[::2])}\n")
    fit = ["estimate", "--model", "finite_gaussian", "--data", str(data),
           "--seed", "2"]
    for flags, err in [
        (["--epsilon", "0.5", "--n-particles", "500"],
         "the oracle objective (this model's default) cannot be combined "
         "with --n-particles"),
        (["--epsilon", "0.5", "--objective", "oracle", "--n-particles",
          "1000"], "--objective oracle cannot be combined with --n-particles"),
        (["--method", "exact", "--n-particles", "500"],
         "--method exact cannot be combined with --n-particles"),
        (["--epsilon", "0.5", "--objective", "smc", "--n", "7"],
         "--data cannot be combined with --n"),
    ]:
        assert run_cli(fit + flags) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    # the paths that read them still take them, and their defaults
    assert run_cli(likelihood + ["--theta", "0.8", "--estimator",
                                 "oracle"]) == 0
    assert run_cli(fit + ["--epsilon", "0.5", "--objective", "smc",
                          "--n-particles", "50", "--optimizer", "grid",
                          "--grid-points", "3"]) == 0
    assert capsys.readouterr().err == ""
    outs = []
    for flags in ([], ["--n-particles", "1000", "--seed", "0"]):
        assert run_cli(likelihood + ["--theta", "0.8", "--json"] + flags) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["n_particles"] == 1000


# the first bytes of a PNG file: 0x89 is no UTF-8 start byte
_PNG = b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR"


@pytest.mark.parametrize("content, where", [
    (None, "No such file"),                       # missing
    ("dir", "Is a directory"),
    ("", "is empty"),
    ("t,y_1\r\n0,0.5\r\n1,\r\n", "line 3: could not convert"),
    ("t,y_1,x\r\n0,0.5,1\r\n1,0.25\r\n", "line 3: 2 fields"),
    ("t,y_1,x\r\n0,0.5,one\r\n", "line 2: invalid literal"),
    ("y_1\r\n0.5\r\n", "does not look like a trajectory"),
    (_PNG, "series.csv is not UTF-8 text"),
    # a good CSV beside a sidecar that is not UTF-8: the sidecar is named
    (("t,y_1\r\n0,0.5\r\n", _PNG), "series.json: 'utf-8' codec can't"),
])
def test_cli_bad_data_path_exits_2(tmp_path, capsys, content, where):
    # an unreadable or malformed --data file is an error line naming the
    # file and status 2, not a traceback (status 1 is a failed estimation)
    data = named = tmp_path / "series.csv"
    if isinstance(content, tuple):
        data.write_text(content[0], newline="")
        named = data.with_suffix(".json")
        named.write_bytes(content[1])
    elif isinstance(content, bytes):
        data.write_bytes(content)
    elif content == "dir":
        data.mkdir()
    elif content is not None:
        data.write_text(content, newline="")
    rc = run_cli(["likelihood", "--model", "finite_gaussian", "--theta",
                  "0.8", "--data", str(data), "--epsilon", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(named) in err and where in err


def test_cli_estimate_names_a_sidecar_that_is_not_an_object(tmp_path, capsys):
    data = tmp_path / "s.csv"
    data.write_text("t,y_1\r\n0,0.5\r\n1,0.25\r\n", newline="")
    data.with_suffix(".json").write_text("[1, 2]")
    rc = run_cli(["estimate", "--model", "finite_gaussian", "--data",
                  str(data), "--epsilon", "0.5", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 's.json'}: trajectory metadata must be a JSON "
        "object\n")


def test_cli_out_into_missing_dir_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    assert run_cli(["simulate", "--model", "finite_gaussian", "--theta",
                    "0.8", "--n", "5", "--seed", "0", "--out",
                    str(missing / "x.csv")]) == 2
    assert run_cli(["estimate", "--model", "iid_pm_theta", "--theta-star",
                    "1.0", "--n", "20", "--epsilon", "1.5", "--seed", "0",
                    "--objective", "oracle", "--optimizer", "grid",
                    "--grid-points", "5", "--out",
                    str(missing / "fit.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(e.startswith("error: ") and str(missing) in e for e in err)


def test_cli_estimate_out_file(tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc = run_cli(["estimate", "--method", "noisy_abc", "--model",
                  "iid_pm_theta", "--theta-star", "1.0", "--epsilon", "1.5",
                  "--n", "200", "--seed", "2", "--out", str(out), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text())["theta_hat"] == payload["theta_hat"]
    assert abs(payload["theta_hat"][0] - 1.0) < 0.2


def test_cli_estimate_json_is_strict(tmp_path, capsys):
    # a collapsed evaluation's value and se are both written as strings
    data = tmp_path / "series.csv"
    assert run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
                    "--n", "60", "--seed", "4", "--out", str(data)]) == 0
    out = tmp_path / "fit.json"
    rc = run_cli(["estimate", "--model", "finite_gaussian", "--data", str(data),
                  "--epsilon", "0.3", "--objective", "smc", "--n-particles",
                  "500", "--seed", "2", "--out", str(out), "--json"])
    assert rc == 0
    for text in (capsys.readouterr().out.splitlines()[-1], out.read_text()):
        trace = _strict_json(text)["trace"]
        assert trace[0] == {"theta": [-3.0], "value": "-inf", "se": "inf"}
        assert all(isinstance(e["se"], float) for e in trace
                   if e["value"] != "-inf")


def test_cli_likelihood_json_is_strict(tmp_path, capsys):
    # a collapsed particle run and a zero exact ball probability write
    # their non-finite numbers as the strings estimate writes
    data = tmp_path / "series.csv"
    assert run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
                    "--n", "60", "--seed", "4", "--out", str(data)]) == 0
    capsys.readouterr()
    assert run_cli(["likelihood", "--model", "finite_gaussian", "--data",
                    str(data), "--theta", "0.8", "--epsilon", "0.001",
                    "--estimator", "smc", "--n-particles", "50", "--seed",
                    "2", "--json"]) == 0
    particle = _strict_json(capsys.readouterr().out)
    assert particle["collapsed_at"] == 0
    assert (particle["log_ball_probability"], particle["se_proxy"]) \
        == ("-inf", "inf")
    assert run_cli(["likelihood", "--model", "iid_pm_theta", "--data",
                    str(data), "--theta", "0.8", "--epsilon", "0.01",
                    "--estimator", "oracle", "--json"]) == 0
    assert _strict_json(capsys.readouterr().out) \
        == {"estimator": "oracle", "log_ball_probability": "-inf"}


def test_cli_fisher_json(capsys):
    rc = run_cli(["fisher", "--model", "finite_gaussian", "--theta", "0.8",
                  "--n", "40", "--replicates", "200", "--seed", "1",
                  "--epsilon", "0.3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == 0.3
    assert len(payload["matrix"]) == 1


def test_cli_fisher_epsilon_zero_is_the_exact_model(capsys):
    # eps 0 is the exact computation, and its text output says so: the
    # same lines as the run without --epsilon
    fisher = ["fisher", "--model", "finite_gaussian", "--theta", "0.8",
              "--n", "40", "--replicates", "10", "--seed", "1"]
    outputs = []
    for extra in ([], ["--epsilon", "0"]):
        assert run_cli(fisher + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("fisher information (exact model, ")
    assert outputs[1] == outputs[0]


_COLD_START = """
import json, sys
from abchmm import (PerturbationSpec, abc_mle, builtin_model, cli, simulate,
                    smc_abc_likelihood)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {}
model, pert = builtin_model("finite_gaussian"), PerturbationSpec(0.3)
data = simulate(model, [0.8], 40, seed=1, with_hidden=False)
smc_abc_likelihood(model, [0.8], data, pert, 200, seed=2)
stable = builtin_model("two_state_alpha_stable")
smc_abc_likelihood(stable, [1.0, 0.0],
                   simulate(stable, [1.0, 0.0], 20, seed=1, with_hidden=False),
                   pert, 200, seed=2)
abc_mle(model, data, pert, objective="smc", method="grid_then_golden",
        grid_points=5, n_particles=200, seed=3)
cli.main(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
          "--n", "20", "--seed", "4", "--out", sys.argv[1]])
stages["particle"] = loaded()
abc_mle(model, data, pert, objective="oracle", method="grid", grid_points=5)
stages["oracle"] = loaded()
abc_mle(model, data, pert, objective="oracle", method="nelder_mead",
        restarts=1)
stages["nelder_mead"] = loaded()
print(json.dumps(stages))
"""


def test_only_closed_forms_and_nelder_mead_load_scipy(tmp_path, child_env):
    # the particle path is forward simulation alone: importing the package,
    # simulating, particle likelihoods, a particle fit and the simulate
    # command load no scipy module; an exact emission loads scipy.special
    # on its first call, and only Nelder-Mead loads scipy.optimize
    r = subprocess.run([sys.executable, "-c", _COLD_START,
                        str(tmp_path / "series.csv")],
                       capture_output=True, text=True, env=child_env)
    assert r.returncode == 0, r.stderr
    stages = json.loads(r.stdout.splitlines()[-1])
    assert stages["particle"] == []
    assert "scipy.special" in stages["oracle"]
    assert "scipy.optimize" not in stages["oracle"]
    assert "scipy.optimize" in stages["nelder_mead"]


def test_cli_experiment_env_thread_independence(tmp_path, child_env):
    # the environment variable must steer the pool without touching output
    cmd = [sys.executable, "-m", "abchmm.cli", "experiment", "--preset",
           "two_point", "--seed", "6", "--set", "n=40"]
    outs = []
    for threads, sub in (("1", "t1"), ("2", "t2")):
        r = subprocess.run(cmd + ["--out", str(tmp_path / sub)],
                           capture_output=True, text=True,
                           env={**child_env, "ABC_HMM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append((tmp_path / sub / "run-001" / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_experiment_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"preset": "two_point", "seed": 3, "n": 40}')
    rc = run_cli(["experiment", "--config", str(cfg), "--out",
                  str(tmp_path / "runs")])
    assert rc == 0
    assert "abc_theta_hat: 0.0" in capsys.readouterr().out
    # bad override key comes back as a configuration error
    rc = run_cli(["experiment", "--preset", "two_point", "--seed", "1",
                  "--set", "bogus=3", "--out", str(tmp_path / "runs")])
    assert rc == 2


def test_cli_experiment_refuses_config_with_preset_flags(tmp_path, capsys):
    # --config names the whole run, so a --preset, --seed or --set beside
    # it would be ignored: the pair is a configuration error, and nothing runs
    config = '{"preset": "two_point", "seed": 3, "n": 40}'
    assert run_cli(["experiment", "--preset", "info_loss", "--seed", "3",
                    "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: --config cannot be combined with --preset, --seed\n")
    assert run_cli(["experiment", "--config", config, "--set", "n=50",
                    "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: --config cannot be combined with --set\n")
    assert not any(tmp_path.iterdir())


def test_cli_experiment_bad_param_exits_2(tmp_path, capsys):
    rc = run_cli(["experiment", "--preset", "bias_curve", "--seed", "5",
                  "--set", "epsilons=0.3", "--out", str(tmp_path)])
    assert rc == 2
    assert "'epsilons'" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_cli_experiment_long_inline_config(tmp_path, capsys):
    text = '{"preset": "two_point", "seed": 3, "n": 40' + " " * 260 + "}"
    assert len(text) > 300
    assert run_cli(["experiment", "--config", text, "--out",
                    str(tmp_path)]) == 0
    assert "abc_theta_hat: 0.0" in capsys.readouterr().out
    bad = text.replace('"n": 40', '"n": 40.5')
    assert run_cli(["experiment", "--config", bad, "--out",
                    str(tmp_path)]) == 2
    assert "'n'" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["uniform", "gaussian"])
def test_cli_oracle_likelihood_at_eps_zero_is_the_exact_one(tmp_path, capsys,
                                                            kernel):
    # at eps = 0 there is no perturbation: the value is the exact
    # log-likelihood and is labelled so, as without --epsilon (it was once
    # printed as log_ball_probability)
    data = tmp_path / "g.csv"
    run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
             "--n", "30", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    likelihood = ["likelihood", "--model", "finite_gaussian", "--theta",
                  "0.8", "--data", str(data), "--estimator", "oracle",
                  "--json"]
    outs = []
    for flags in ([], ["--epsilon", "0", "--kernel", kernel]):
        assert run_cli(likelihood + flags) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert list(json.loads(outs[0])) == ["estimator", "log_likelihood"]


@pytest.mark.parametrize("estimator", ["oracle", "smc"])
@pytest.mark.parametrize("kernel, key", [
    ("uniform", "log_ball_probability"), ("gaussian", "log_smooth_weight")])
def test_cli_likelihood_key_names_the_kernel_scale(tmp_path, capsys,
                                                   estimator, kernel, key):
    # under the gaussian kernel the value is the log expectation of the
    # smooth weights, not a ball probability, and both estimators say so
    # (it was once printed as log_ball_probability under either kernel)
    data = tmp_path / "g.csv"
    run_cli(["simulate", "--model", "finite_gaussian", "--theta", "0.8",
             "--n", "30", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    assert run_cli(["likelihood", "--model", "finite_gaussian", "--theta",
                    "0.8", "--data", str(data), "--epsilon", "0.3",
                    "--kernel", kernel, "--estimator", estimator,
                    "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    scales = {"log_likelihood", "log_ball_probability", "log_smooth_weight"}
    assert scales & set(payload) == {key}
    assert math.isfinite(payload[key])
    assert run_cli(["likelihood", "--model", "finite_gaussian", "--theta",
                    "0.8", "--data", str(data), "--epsilon", "0.3",
                    "--kernel", kernel, "--estimator", estimator]) == 0
    assert f"\n{key}: " in "\n" + capsys.readouterr().out


def test_cli_nelder_mead_refuses_grid_points(tmp_path, capsys):
    # Nelder-Mead never reads the grid size: the fit with it was once the
    # fit without it, theta_hat and evaluation count alike
    fit = ["estimate", "--model", "finite_gaussian", "--theta-star", "0.8",
           "--n", "20", "--epsilon", "0.5", "--objective", "oracle",
           "--optimizer", "nelder_mead", "--seed", "1"]
    assert run_cli(fit + ["--grid-points", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: --optimizer nelder_mead cannot be combined with "
        "--grid-points\n")
    assert run_cli(fit) == 0
    assert capsys.readouterr().err == ""


def test_cli_model_config_file(tmp_path, capsys):
    mc = tmp_path / "model.json"
    mc.write_text(json.dumps({"model": "finite_gaussian",
                              "hyper": {"param": "scale"}}))
    data = tmp_path / "d.csv"
    run_cli(["simulate", "--model-config", str(mc), "--theta", "0.5",
             "--n", "20", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    rc = run_cli(["likelihood", "--model-config", str(mc), "--theta", "0.5",
                  "--data", str(data), "--estimator", "oracle"])
    assert rc == 0
    assert "log_likelihood" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--model", "iid_pm_theta"], "--model"),
    (["--hyper", '{"sigma": 2.0}'], "--hyper"),
    (["--model", "finite_gaussian", "--theta-box", "[[-1, 1]]"],
     "--model, --theta-box"),
])
def test_cli_refuses_model_config_with_model_flags(tmp_path, capsys, flags,
                                                   named):
    # --model-config names the whole model, so a model flag beside it would
    # be ignored: the pair is a configuration error, raised before the data
    # are read
    rc = run_cli(["likelihood", "--model-config", '{"model": "finite_gaussian"}',
                  *flags, "--theta", "0.5", "--data", str(tmp_path / "no.csv"),
                  "--estimator", "oracle"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --model-config cannot be combined with {named}\n")
