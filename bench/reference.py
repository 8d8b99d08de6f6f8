"""A fixed computation that measures how fast the machine runs right now.

It uses numpy the way the package does (narrow recursions of tiny array
operations, particle-sized vectors, wide batches of short rows) but none of
the package's code, so a change to the package cannot change its time.
"""

from __future__ import annotations

import time

import numpy as np

#: a typical median time of :func:`kernel` on the 2-CPU Xeon VM (numpy 2.4)
#: the benchmark was written on; it only sets the scale of scaled times
NOMINAL_S = 0.0055


def kernel() -> float:
    rng = np.random.default_rng(0)
    p = np.array([[0.7, 0.3], [0.3, 0.7]])
    alpha = np.array([0.5, 0.5])
    for e in rng.random((100, 2)) + 0.1:          # narrow forward steps
        b = (alpha @ p) * e
        alpha = b / b.sum()
    states = np.zeros(2000, dtype=np.int64)
    for _ in range(10):                           # particle steps
        u = rng.random(2000)
        states = (np.cumsum(p[states], axis=1) < u[:, None]).sum(axis=1)
        y = np.where(states == 1, 1.0, -1.0) + rng.standard_normal(2000)
        w = (np.abs(y - 0.5) <= 0.3).astype(float) + 1e-3
        cum = np.cumsum(w / w.sum())
        states = states[np.searchsorted(cum, rng.random(2000)).clip(0, 1999)]
    wide = np.full((4000, 2), 0.5)
    for e in rng.random((5, 4000, 2)) + 0.1:      # wide batch steps
        b = (wide @ p) * e
        wide = b / b.sum(axis=1, keepdims=True)
    return float(alpha[0] + wide[0, 0] + states.sum())


def samples(count: int) -> list[float]:
    """Times of ``count`` runs of :func:`kernel`, in seconds."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
