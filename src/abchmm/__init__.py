"""ABC maximum-likelihood estimation for hidden Markov models whose
observation densities can only be sampled, not evaluated.

The package centres on the tolerance-``epsilon`` approximate likelihood --
the probability that simulated observations fall within ``epsilon`` of the
data -- which equals the likelihood of a kernel-perturbed model.  It
provides exact finite-state oracles for that perturbed likelihood and its
score, a particle (SMC) estimator for the intractable case, plain and
noise-calibrated maximum-likelihood drivers, Fisher-information tooling
that measures what the perturbation destroys, and preset experiments
exercising the asymptotics at desk scale.
"""

from .errors import ConfigError, EstimationFailedError
from .estimate import (EstimateResult, abc_mle, exact_mle, maximize,
                       noisy_abc_mle, result_to_dict, save_estimate)
from .experiments import (PRESETS, ExperimentConfig, load_experiment_config,
                          resolve_workers, run_experiment)
from .fisher import (FisherEstimate, LossPoint, MissingInfoCheck,
                     estimate_fisher, loss_point, missing_information_check)
from .models import (ModelSpec, ParameterVector, PerturbationSpec,
                     builtin_model, load_model_config, stationary_dist)
from .oracle import (brute_force_loglik, exact_smc_target, filter_tv_forgetting,
                     forward_filter, forward_loglik, forward_loglik_grid,
                     forward_score)
from .rng import derive_seed, stream
from .sampling import (Trajectory, load_trajectory, noisify, save_trajectory,
                       simulate)
from .smc import LikelihoodEstimate, smc_abc_likelihood, smc_abc_likelihood_batch

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EstimationFailedError",
    "EstimateResult", "abc_mle", "exact_mle", "maximize", "noisy_abc_mle",
    "result_to_dict", "save_estimate",
    "PRESETS", "ExperimentConfig", "load_experiment_config",
    "resolve_workers", "run_experiment",
    "FisherEstimate", "LossPoint", "MissingInfoCheck",
    "estimate_fisher", "loss_point", "missing_information_check",
    "ModelSpec", "ParameterVector", "PerturbationSpec", "builtin_model",
    "load_model_config", "stationary_dist",
    "brute_force_loglik", "exact_smc_target", "filter_tv_forgetting",
    "forward_filter", "forward_loglik", "forward_loglik_grid",
    "forward_score",
    "derive_seed", "stream",
    "Trajectory", "load_trajectory", "noisify", "save_trajectory",
    "simulate",
    "LikelihoodEstimate", "smc_abc_likelihood", "smc_abc_likelihood_batch",
    "__version__",
]
