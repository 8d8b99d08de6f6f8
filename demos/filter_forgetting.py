"""Filters forget where they started, geometrically fast.

Run the forward filter twice on the same observations, once started
from each extreme point-mass initialization, and watch the total
variation distance between the two runs collapse.  This uniform
forgetting is the engine behind every long-horizon claim in the
package: it is why time-averaged scores, informations, and likelihood
contrasts converge.

The certified envelope rho^k comes from a crude argument: one-step
minorization with constants read off the transition matrix alone, so
no observation, however far out, can move it.  The point of the
envelope is the guarantee at every horizon; the measured contraction
is far faster.
"""

import numpy as np

from abchmm import oracle, sampling
from abchmm.models import builtin_model

model = builtin_model("finite_gaussian")
data = sampling.simulate(model, [0.3], 50, seed=29)
out = oracle.filter_tv_forgetting(model, [0.3], data)

print(f"certified contraction rho_hat = {out.rho_hat:.6f}   "
      f"(c_lo={out.c_lo:.4f}, c_hi={out.c_hi:.4f}; crude but guaranteed)")
print()
print("  k    TV between the two filters   certified envelope")
for k in (0, 1, 2, 4, 8, 16, 32, 49):
    print(f" {k:3d}        {out.tv[k]:.3e}              {out.bound[k]:.6f}")

early = out.tv[:8]
rate = float(np.exp(np.mean(np.diff(np.log(early[early > 0])))))
print()
print(f"measured per-step contraction over the first steps: ~{rate:.1e}")
print(f"versus the certified rate {out.rho_hat:.2f}.  The gap is the usual")
print("worst-case-versus-typical story; what matters is that both are")
print("strictly below one at every horizon, so initialization error,")
print("and with it every filter-dependent average, dies geometrically.")

assert np.all(out.tv <= out.bound + 1e-12)
