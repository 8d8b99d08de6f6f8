"""Command-line front end.

Subcommands: ``simulate``, ``likelihood``, ``estimate``, ``fisher``,
``experiment``.  Configuration errors, bad input files and paths that
cannot be read or written exit with status 2, failed estimations with
status 1; both report to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import estimate as est, experiments, fisher as fishermod, \
    sampling, smc as smcmod
from .errors import ConfigError, EstimationFailedError
from .models import PerturbationSpec, builtin_model, check_count, \
    load_model_config
from .oracle import exact_smc_target, has_closed_form
from .rng import derive_seed


def _add_model_args(sub):
    sub.add_argument("--model", help="builtin model name")
    sub.add_argument("--hyper", help="JSON dict of model hyperparameters")
    sub.add_argument("--theta-box", help="JSON list of [lo, hi] rows")
    sub.add_argument("--model-config",
                     help="JSON file or text with keys model/hyper/theta_box "
                          "(instead of the flags above)")


def _parse_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} is not valid JSON: {exc}") from exc


def _given(args, dests) -> list:
    """The flags of ``dests`` given on the command line (those not None)."""
    return ["--" + d.replace("_", "-") for d in dests
            if getattr(args, d) is not None]


def _refuse_with(args, flag: str, dests) -> None:
    """A ``ConfigError`` naming each flag of ``dests`` given beside ``flag``."""
    given = _given(args, dests)
    if given:
        raise ConfigError(f"{flag} cannot be combined with {', '.join(given)}")


def _model_from_args(args):
    if args.model_config:
        _refuse_with(args, "--model-config", ("model", "hyper", "theta_box"))
        return load_model_config(args.model_config)
    if not args.model:
        raise ConfigError("either --model or --model-config is required")
    hyper = _parse_json(args.hyper, "--hyper") if args.hyper else None
    box = _parse_json(args.theta_box, "--theta-box") if args.theta_box else None
    return builtin_model(args.model, hyper=hyper, theta_box=box)


def _add_pert_args(sub):
    sub.add_argument("--epsilon", type=float, help="perturbation tolerance")
    sub.add_argument("--kernel", choices=("uniform", "gaussian"),
                     help="default: uniform")


def _pert_from_args(args) -> PerturbationSpec | None:
    """The perturbation of ``--epsilon``, or None without it; then
    ``--kernel``, which nothing would read, is refused.  Every model the
    command line builds is scalar, where the linf and l2 balls coincide."""
    if args.epsilon is None:
        if args.kernel is not None:
            raise ConfigError("--kernel cannot be used without --epsilon")
        return None
    return PerturbationSpec(epsilon=args.epsilon,
                            kernel=args.kernel or "uniform")


# particles of the particle estimator when --n-particles is not given
_DEFAULT_PARTICLES = 1000


def _parse_theta(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--theta must be comma-separated numbers, "
                          f"got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args) -> int:
    check_count("--n", args.n, 1)
    model = _model_from_args(args)
    traj = sampling.simulate(model, _parse_theta(args.theta), args.n,
                             seed=args.seed, with_hidden=not args.no_hidden)
    pert = _pert_from_args(args)
    if pert is not None:
        traj = sampling.noisify(traj, pert, derive_seed(args.seed, "noise"))
    path = sampling.save_trajectory(traj, args.out)
    print(f"wrote {traj.observations.shape[0]} observations to {path}")
    return 0


def _particles(args) -> int:
    """``--n-particles``, checked, or its default when it is not given."""
    if args.n_particles is None:
        return _DEFAULT_PARTICLES
    check_count("--n-particles", args.n_particles, 1)
    return args.n_particles


def _cmd_likelihood(args) -> int:
    n_particles = _particles(args)
    if args.estimator == "oracle":
        # the exact value draws nothing
        _refuse_with(args, "--estimator oracle", ("n_particles", "seed"))
    model = _model_from_args(args)
    data = sampling.load_trajectory(args.data)
    theta = _parse_theta(args.theta)
    pert = _pert_from_args(args)
    # the key names the value: at eps = 0 there is no perturbation and the
    # value is the exact one; under the gaussian kernel it is the log
    # expectation of the accumulated smooth weights, not a ball probability
    if pert is None or pert.is_exact:
        key = "log_likelihood"
    elif pert.kernel == "uniform":
        key = "log_ball_probability"
    else:
        key = "log_smooth_weight"
    if args.estimator == "oracle":
        value = exact_smc_target(model, theta, data, pert)
        payload = {"estimator": "oracle", key: sampling.json_value(value)}
    else:
        if pert is None:
            raise ConfigError("--epsilon is required for the smc estimator")
        res = smcmod.smc_abc_likelihood(
            model, theta, data, pert, n_particles,
            0 if args.seed is None else args.seed)
        payload = {
            "estimator": "smc",
            key: sampling.json_value(res.log_value),
            "se_proxy": sampling.json_value(res.se_proxy),
            "n_particles": res.n_particles,
            "collapsed_at": res.collapsed_at,
            "min_step_acceptance": (float(np.min(res.step_acceptance))
                                    if res.step_acceptance.size else None),
        }
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_estimate(args) -> int:
    n_particles = _particles(args)
    opts = {}
    if args.grid_points is not None:
        check_count("--grid-points", args.grid_points, 1)
        opts["grid_points"] = args.grid_points
    if args.method == "exact":
        # the exact likelihood has no perturbation and one objective
        _refuse_with(args, "--method exact",
                     ("epsilon", "kernel", "objective", "n_particles"))
    if args.optimizer == "nelder_mead":
        # Nelder-Mead starts from a Latin hypercube, not a grid
        _refuse_with(args, "--optimizer nelder_mead", ("grid_points",))
    model = _model_from_args(args)
    if (args.data is None) == (args.theta_star is None):
        raise ConfigError("exactly one of --data or --theta-star is required")
    if args.data is not None:
        _refuse_with(args, "--data", ("n",))
        data = sampling.load_trajectory(args.data)
    else:
        if args.n is None:
            raise ConfigError("--n is required with --theta-star")
        check_count("--n", args.n, 1)
        data = sampling.simulate(model, _parse_theta(args.theta_star), args.n,
                                 seed=derive_seed(args.seed, "data"),
                                 with_hidden=False)
    pert = _pert_from_args(args)
    if args.method == "exact":
        result = est.exact_mle(model, data, method=args.optimizer,
                               seed=args.seed, **opts)
    else:
        if pert is None:
            raise ConfigError(f"--epsilon is required for --method "
                              f"{args.method}")
        objective = args.objective
        if objective is None:
            objective = "oracle" if has_closed_form(model, pert) else "smc"
        if objective == "oracle":
            # the exact objective draws no particles
            _refuse_with(args, "--objective oracle" if args.objective else
                         "the oracle objective (this model's default)",
                         ("n_particles",))
        fit = est.abc_mle if args.method == "abc" else est.noisy_abc_mle
        result = fit(model, data, pert, objective=objective,
                     method=args.optimizer, seed=args.seed,
                     n_particles=n_particles, **opts)
    if args.out:
        est.save_estimate(result, args.out)
    if args.json:
        print(json.dumps(est.result_to_dict(result), sort_keys=True,
                         allow_nan=False))
    else:
        theta_hat = map(sampling.format_value, result.theta_hat.values)
        print(f"theta_hat: {' '.join(theta_hat)}")
        print(f"log_value: {sampling.format_value(result.value)}")
        print(f"evaluations: {result.n_evaluations} "
              f"(failed: {result.n_failures})")
    return 0


def _cmd_fisher(args) -> int:
    check_count("--n", args.n, 1)
    check_count("--replicates", args.replicates, 2)
    model = _model_from_args(args)
    pert = _pert_from_args(args)
    fe = fishermod.estimate_fisher(model, _parse_theta(args.theta),
                                   n=args.n, n_replicates=args.replicates,
                                   seed=args.seed, pert=pert)
    payload = {
        "matrix": [list(map(sampling.json_value, r))
                   for r in fe.matrix.tolist()],
        "se": [list(map(sampling.json_value, r)) for r in fe.se.tolist()],
        "frobenius": sampling.json_value(fe.frobenius),
        "epsilon": fe.epsilon,
        "n": fe.n,
        "n_replicates": fe.n_replicates,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        exact = pert is None or pert.is_exact
        print(f"fisher information ({'exact' if exact else 'perturbed'}"
              f" model, per observation):")
        for row, se_row in zip(fe.matrix, fe.se):
            print("  " + "  ".join(f"{v:.6g} (se {s:.2g})"
                                   for v, s in zip(row, se_row)))
        print(f"frobenius: {fe.frobenius:.6g}")
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        _refuse_with(args, "--config", ("preset", "seed", "set"))
        config = experiments.load_experiment_config(args.config)
    else:
        if not args.preset or args.seed is None:
            raise ConfigError("--preset and --seed are required "
                              "(or pass --config)")
        raw = {"preset": args.preset, "seed": args.seed}
        for item in args.set or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=JSONvalue, got {item!r}")
            key, _, value = item.partition("=")
            raw[key] = _parse_json(value, f"--set {key}")
        config = experiments.ExperimentConfig.from_dict(raw)
    run_dir = experiments.run_experiment(config, args.out, workers=args.workers)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    print(f"wrote {run_dir}")
    for key, value in sorted(manifest.get("derived", {}).items()):
        print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abchmm",
        description="ABC maximum-likelihood estimation for hidden Markov "
                    "models with intractable observation densities")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="simulate a trajectory to CSV")
    _add_model_args(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_pert_args(p)
    p.add_argument("--no-hidden", action="store_true",
                   help="do not record the hidden path")
    p.set_defaults(handler=_cmd_simulate)

    p = subs.add_parser("likelihood",
                        help="evaluate the (ball-probability) likelihood")
    _add_model_args(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--data", required=True)
    _add_pert_args(p)
    p.add_argument("--estimator", default="smc", choices=("smc", "oracle"))
    p.add_argument("--n-particles", type=int,
                   help=f"default: {_DEFAULT_PARTICLES}")
    p.add_argument("--seed", type=int, help="default: 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_likelihood)

    p = subs.add_parser("estimate", help="point-estimate parameters")
    _add_model_args(p)
    p.add_argument("--method", default="abc",
                   choices=("abc", "noisy_abc", "exact"))
    p.add_argument("--data", help="trajectory CSV to fit")
    p.add_argument("--theta-star",
                   help="simulate the data at this parameter instead")
    p.add_argument("--n", type=int, help="series length with --theta-star")
    _add_pert_args(p)
    p.add_argument("--objective", choices=("smc", "oracle"))
    p.add_argument("--optimizer",
                   choices=("grid", "grid_then_golden", "nelder_mead"))
    p.add_argument("--grid-points", type=int)
    p.add_argument("--n-particles", type=int,
                   help=f"default: {_DEFAULT_PARTICLES}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write result JSON (+trace CSV) here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = subs.add_parser("fisher", help="estimate Fisher information")
    _add_model_args(p)
    p.add_argument("--theta", required=True)
    _add_pert_args(p)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fisher)

    p = subs.add_parser("experiment", help="run a preset experiment")
    p.add_argument("--preset", choices=experiments.PRESETS)
    p.add_argument("--seed", type=int)
    p.add_argument("--config",
                   help="JSON config file or text (alternative to flags)")
    p.add_argument("--set", action="append", metavar="KEY=JSON",
                   help="override a preset parameter")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--workers", type=int,
                   help=f"process count (default: ${experiments.THREADS_ENV} "
                        "or min(4, cpus))")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # ConfigError, bad input the library rejects, unusable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationFailedError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        for key, value in sorted(exc.diagnostics.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
