"""How the tolerance biases the fitted scale.

Fits the emission scale of a two-state Gaussian chain by smeared maximum
likelihood at several tolerances, a handful of replicates each.  The
smearing inflates the apparent spread of the data, so the fitted scale
shrinks to compensate; the shift grows like the square of the tolerance
until the box edge saturates it.

Scaled-down version of the `bias_curve` experiment preset (which uses
n=2000 and 20 replicates); this one runs in a few seconds.
"""

import numpy as np

from abchmm import estimate, fisher, rng, sampling
from abchmm.models import PerturbationSpec, builtin_model

THETA_STAR = 0.2
N = 1000
REPS = 8

model = builtin_model("finite_gaussian", hyper={"param": "scale"})

print(f"true scale {THETA_STAR}, n={N}, {REPS} replicates per tolerance")
print()
print("   eps    mean fitted    mean bias      bias / eps^2")
rows = []
for eps in (0.05, 0.1, 0.2, 0.4):
    pert = PerturbationSpec(epsilon=eps, kernel="uniform")
    hats = []
    for rep in range(REPS):
        s = rng.derive_seed(2024, eps, rep)
        data = sampling.simulate(model, [THETA_STAR], N,
                                 seed=rng.derive_seed(s, "data"),
                                 with_hidden=False)
        fit = estimate.abc_mle(model, data, pert, objective="oracle",
                               seed=rng.derive_seed(s, "fit"))
        hats.append(fit.theta_hat.values[0])
    hats = np.array(hats)
    bias = hats.mean() - THETA_STAR
    rows.append((eps, bias))
    print(f"  {eps:4.2f}   {hats.mean():11.6f}   {bias:+.6f}     "
          f"{bias / eps ** 2:+.3f}")

print()
slope = fisher.loglog_slope([e for e, _ in rows], [abs(b) for _, b in rows])
print(f"log-log slope of |bias| in eps: {slope:.2f}  (quadratic would be 2)")
print("the near-constant bias/eps^2 column says the same thing pointwise")
