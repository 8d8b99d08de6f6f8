"""Fitting a model whose observation density nobody can write down.

Two-state regime-switching chain; each regime shifts a symmetric
alpha-stable draw (alpha=1.8, so the tails are heavy and there is no
closed-form density).  The exact likelihood is unavailable, but the
particle ball-probability estimator only needs to SAMPLE observations,
so smeared maximum likelihood goes through unchanged.

The builtin ``two_state_alpha_stable`` model carries (scale, location);
here we want to profile the scale alone, which is also a chance to show
how little a custom model needs: a transition matrix, an initial law,
the observation noise and the observation sampler that transforms it.
"""

import numpy as np

from abchmm import estimate, sampling, stable
from abchmm.models import ModelSpec, PerturbationSpec, stationary_dist

ALPHA = 1.8
LEVELS = np.array([-1.0, 1.0])
P = np.array([[0.95, 0.05], [0.20, 0.80]])


def draw_noise(rng, size):
    # standard stable draws; they never see theta
    return stable.sample(ALPHA, 0.0, 1.0, 0.0, size, rng)


def draw_obs(theta, states, noise):
    # theta (G, 1) and states (G, N): one set of N stable draws, scaled by
    # each row's sigma, serves the whole batch
    return (theta[:, :1] * noise + LEVELS[states])[:, :, None]


model = ModelSpec(
    name="stable_regimes_scale_only",
    obs_dim=1,
    theta_box=np.array([[0.3, 3.0]]),
    transition_matrix=lambda theta: P,
    initial_dist=lambda theta: stationary_dist(P),
    obs_sampler=draw_obs,
    obs_noise=draw_noise,
)

TRUE_SIGMA = 1.0
data = sampling.simulate(model, [TRUE_SIGMA], 300, seed=5, with_hidden=False)

print("alpha-stable regime chain, alpha=1.8, true scale 1.0, n=300")
fit = estimate.abc_mle(model, data, PerturbationSpec(epsilon=0.5),
                       method="grid", grid_points=28, n_particles=3000,
                       seed=5)
print(f"fitted scale: {fit.theta_hat.values[0]:.3f}   "
      f"({fit.n_evaluations} surface evaluations, "
      f"{fit.n_failures} collapsed)")
print()
print("the surface near the peak:")
for th, val, se in fit.trace:
    if 0.75 <= th[0] <= 1.45:
        v = f"{val:9.3f}" if val > -1e300 else "     -inf"
        print(f"  sigma={th[0]:.3f}   log-value {v}   (se proxy {se:.3f})")
print()
print("An isolated -inf inside an otherwise smooth surface is routine")
print("with heavy tails: one outlying observation starved that run of")
print("particles, loudly.  Tighten the tolerance and more points die;")
print("widen it and the peak drifts low, exactly as in the Gaussian")
print("bias demo.  The mechanics do not care that the emission density")
print("is intractable.")
