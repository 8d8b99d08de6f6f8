"""The four benchmark workloads.

Each workload turns the seed into inputs (``setup``), lists the operations
whose time is measured (``ops``), and judges each operation's result
against a reference that is computed outside the timed region (``check``).
Every call into the package goes through a module attribute, so a traced
run sees it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from abchmm import estimate, experiments, models, oracle, rng, sampling
from abchmm.estimate import EstimateResult
from abchmm.models import PerturbationSpec


# The particle workloads fit one fixed data set, simulated from the README
# tour's seed, and take only their particle streams from the workload seed.
# With data drawn from the workload seed, the share of evaluations that
# collapse (and so end early) is set by the data: on five seeds a 300-step
# alpha-stable fit took 2 to 9 s, and on one of them 84% of the evaluations
# collapsed on heavy-tailed outliers and the fit missed the truth.
DATA_SEED = 1


class FitWorkload:
    """Workloads whose operations are ``abc_mle`` fits.

    ``units`` names the functions whose calls are timed one by one in the
    untraced run (see ``work_time`` in ``run.py``): the objective evaluations.
    """

    name = ""
    why = ""
    units = ("smc.smc_abc_likelihood",)

    def evaluations(self, state, result: EstimateResult) -> int:
        return result.n_evaluations

    def collapsed(self, result: EstimateResult) -> int:
        return result.n_failures

    def fingerprint(self, result: EstimateResult) -> str:
        return repr((result.theta_hat.to_list(), result.value, result.trace))


class SmcFit(FitWorkload):
    """The README tour's particle fit, on the first steps of its data."""

    name = "smc_fit"
    why = ("particle abc_mle on the README tour's finite_gaussian data (first "
           "100 steps, eps=0.3, N=2000): the headline estimator, all time on the "
           "particle path")
    theta, n, epsilon, n_particles = 0.8, 100, 0.3, 2000
    # A short grid_then_golden schedule: 7 grid points, one golden sweep.
    opts = {"grid_points": 7, "sweeps": 1, "section_tol": 0.05}
    # |theta_hat| of the particle fit against the exact (oracle) fit on the
    # same data.  The model is label-symmetric, hence absolute values.
    tolerance = 0.25

    def setup(self, seed: int) -> dict:
        model = models.builtin_model("finite_gaussian")
        data = sampling.simulate(model, [self.theta], self.n, seed=DATA_SEED)
        return {"model": model, "data": data,
                "pert": PerturbationSpec(epsilon=self.epsilon),
                "fit_seed": rng.derive_seed(seed, self.name, "fit")}

    def ops(self, s: dict) -> list:
        return [lambda: estimate.abc_mle(
            s["model"], s["data"], s["pert"], n_particles=self.n_particles,
            seed=s["fit_seed"], **self.opts)]

    def check(self, s: dict, index: int, result: EstimateResult):
        if "reference" not in s:
            s["reference"] = estimate.abc_mle(
                s["model"], s["data"], s["pert"], objective="oracle",
                seed=s["fit_seed"]).theta_hat.values[0]
        got = abs(result.theta_hat.values[0])
        want = abs(s["reference"])
        return abs(got - want) <= self.tolerance, (
            f"|theta_hat| {got:.4f} vs oracle {want:.4f} "
            f"(tolerance {self.tolerance})")


class OracleFit(FitWorkload):
    """A fit of the ``bias_curve`` preset at its smallest tolerance, called
    directly."""

    name = "oracle_fit"
    why = ("exact-objective abc_mle of the finite_gaussian scale, n=2000, eps=0.05 "
           "(a bias_curve task): long narrow forward recursions, the particle "
           "path idle")
    theta, n = 0.2, 2000
    epsilons = (0.05,)
    units = ("oracle.forward_loglik", "oracle.forward_loglik_grid")
    # The grid batch and the single-theta recursion may round differently.
    rel_tol = 1e-12

    def setup(self, seed: int) -> dict:
        model = models.builtin_model("finite_gaussian",
                                     hyper={"param": "scale"})
        data = [sampling.simulate(
            model, [self.theta], self.n,
            seed=rng.derive_seed(seed, self.name, "data", i),
            with_hidden=False) for i in range(len(self.epsilons))]
        return {"model": model, "data": data,
                "perts": [PerturbationSpec(epsilon=e) for e in self.epsilons],
                "fit_seeds": [rng.derive_seed(seed, self.name, "fit", i)
                              for i in range(len(self.epsilons))]}

    def ops(self, s: dict) -> list:
        return [lambda d=d, p=p, f=f: estimate.abc_mle(
            s["model"], d, p, objective="oracle", seed=f)
            for d, p, f in zip(s["data"], s["perts"], s["fit_seeds"])]

    def check(self, s: dict, index: int, result: EstimateResult):
        model, pert = s["model"], s["perts"][index]
        exact = oracle.forward_loglik(model, result.theta_hat.values,
                                      s["data"][index], pert) \
            + self.n * oracle.log_weight_scale(model, pert)
        ok = math.isclose(result.value, exact, rel_tol=self.rel_tol, abs_tol=0)
        return ok, (f"eps={pert.epsilon}: reported {result.value!r}, exact "
                    f"objective at theta_hat {exact!r}")


class InfoLoss:
    """The ``info_loss`` preset through ``run_experiment``, one worker."""

    name = "info_loss"
    why = ("info_loss preset, one worker: wide batches of short series "
           "through the sensitivity recursion; the only fisher workload")
    units = ("experiments.run_task",)
    slope_window = (1.5, 2.5)
    max_huge_ratio = 0.05

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self, seed: int) -> dict:
        return {"config": experiments.load_experiment_config(
            {"preset": "info_loss", "seed": rng.derive_seed(seed, self.name)})}

    def ops(self, s: dict) -> list:
        return [lambda: experiments.run_experiment(s["config"], self.out_root,
                                                   workers=1)]

    def evaluations(self, s: dict, run_dir: Path) -> int:
        """Replicate series scored: two boundaries per loss point, one per
        Fisher replicate."""
        p = s["config"].params
        return 2 * len(p["epsilons"]) * p["n_replicates"] \
            + 2 * p["fisher_replicates"]

    def collapsed(self, run_dir: Path) -> int:
        return 0

    def fingerprint(self, run_dir: Path) -> str:
        return json.loads((run_dir / "manifest.json").read_text())[
            "results_sha256"]

    def check(self, s: dict, index: int, run_dir: Path):
        derived = json.loads((run_dir / "manifest.json").read_text())["derived"]
        with open(run_dir / "results.csv", newline="", encoding="utf8") as fh:
            losses = [float(row["loss_frobenius"])
                      for row in csv.DictReader(fh)]
        lo, hi = self.slope_window
        increasing = all(a < b for a, b in zip(losses, losses[1:]))
        ok = lo <= derived["slope"] <= hi \
            and derived["huge_epsilon_ratio"] < self.max_huge_ratio \
            and increasing
        return ok, (f"slope {derived['slope']:.3f} in [{lo}, {hi}], "
                    f"huge_epsilon_ratio {derived['huge_epsilon_ratio']:.4f} "
                    f"< {self.max_huge_ratio}, loss increasing in eps: "
                    f"{increasing}")


class StableFit(FitWorkload):
    """The particle objective on the alpha-stable regime model."""

    name = "stable_fit"
    why = ("particle abc_mle on fixed two_state_alpha_stable data, 7x7 grid over "
           "(sigma, delta), n=100, N=2000: no density exists; the only "
           "stable-sampler workload")
    theta, n, epsilon, n_particles, grid_points = (1.0, 0.0), 100, 0.5, 2000, 7

    def setup(self, seed: int) -> dict:
        model = models.builtin_model("two_state_alpha_stable")
        data = sampling.simulate(model, list(self.theta), self.n,
                                 seed=DATA_SEED)
        return {"model": model, "data": data,
                "pert": PerturbationSpec(epsilon=self.epsilon),
                "fit_seed": rng.derive_seed(seed, self.name, "fit")}

    def ops(self, s: dict) -> list:
        return [lambda: estimate.abc_mle(
            s["model"], s["data"], s["pert"], n_particles=self.n_particles,
            method="grid", grid_points=self.grid_points, seed=s["fit_seed"])]

    def check(self, s: dict, index: int, result: EstimateResult):
        box = s["model"].theta_box
        steps = (box[:, 1] - box[:, 0]) / (self.grid_points - 1)
        err = [abs(a - b) for a, b in zip(result.theta_hat.values, self.theta)]
        ok = all(e <= step * (1 + 1e-9) for e, step in zip(err, steps))
        return ok, (f"theta_hat {result.theta_hat.to_list()} vs truth "
                    f"{list(self.theta)}, grid steps {steps.tolist()}")


def get(name: str, out_root: Path):
    """The workload called ``name``; ``out_root`` receives experiment runs."""
    return {w.name: w for w in (SmcFit(), OracleFit(), InfoLoss(out_root),
                                StableFit())}[name]
