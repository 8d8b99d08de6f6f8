"""Trajectory simulation, observation noise and on-disk format.

Trajectories are stored as a CSV table with header ``t, y_1, ..., y_m`` (plus
``x`` when the hidden path is kept) and a JSON sidecar carrying metadata.
Floats are written with 17 significant digits so a save/load round trip is
bit-exact for float64.

A per-step summary S(Y_t) is fitted with a model whose ``obs_sampler`` emits
it; a sidecar that records a ``summary`` other than ``identity`` is refused.

One chain simulator serves :func:`simulate` (one series) and the Fisher
replicates (a batch of series).  It draws the hidden paths a time block at a
time, then the observations of the paths laid end to end: one ``obs_noise``
draw, and ``obs_sampler`` calls on chunks of at most ``_BLOCK_ENTRIES``
observations written into one output, so that no temporary of the sampler
is as large as the batch.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .models import ModelSpec, PerturbationSpec, check_count, check_seed, \
    check_theta, draw_noise, laws, sample_categorical_rows, sample_observations


@dataclass
class Trajectory:
    """Observations (n, m), optional hidden state path (n,), and metadata.

    ``meta`` keys: ``seed``, ``model``, ``theta``, ``noise_epsilon``
    (None until the trajectory is noisified).
    """

    observations: np.ndarray
    hidden: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.ndim != 2:
            raise ValueError(f"observations must be (n, m), got shape {obs.shape}")
        self.observations = obs
        if self.hidden is not None:
            hidden = np.asarray(self.hidden)
            if hidden.shape[0] != obs.shape[0]:
                raise ValueError("hidden path length does not match observations")
            self.hidden = hidden
        self.meta.setdefault("seed", None)
        self.meta.setdefault("model", None)
        self.meta.setdefault("theta", None)
        self.meta.setdefault("noise_epsilon", None)

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]


def check_finite_obs(obs: np.ndarray) -> np.ndarray:
    """Return ``obs`` (n, ...) unchanged, or raise ``ValueError`` naming the
    first step whose observation is not finite."""
    if np.isfinite(obs).all():
        return obs
    finite = np.isfinite(obs).reshape(obs.shape[0], -1).all(axis=1)
    t = int(np.argmin(finite))
    raise ValueError(f"observation at step {t} is not finite: {obs[t]}")


def as_observations(data, obs_dim: int) -> np.ndarray:
    """The series ``data``, a :class:`Trajectory` or an array ((n,) too when
    ``obs_dim`` is 1), as a finite (n, obs_dim) float array with n >= 1;
    otherwise a ``ValueError`` that names the problem."""
    obs = data.observations if isinstance(data, Trajectory) \
        else np.asarray(data, dtype=float)
    if obs.ndim == 1 and obs_dim == 1:
        obs = obs[:, None]
    if obs.ndim != 2 or obs.shape[1] != obs_dim:
        raise ValueError(f"expected {obs_dim}-D observations, an (n, "
                         f"{obs_dim}) series, got data of shape {obs.shape}")
    if obs.shape[0] < 1:
        raise ValueError("data must contain at least one observation")
    return check_finite_obs(obs)


# Most entries of one time block's draw table in _simulate_series (at least
# one step per block), as in the forward recursion's time blocks, and most
# observations of one obs_sampler call there.
_BLOCK_ENTRIES = 1 << 16


def _draw_paths(p: np.ndarray, init: np.ndarray, reps: int, n: int,
                path_rng: np.random.Generator) -> np.ndarray:
    """``reps`` hidden paths (reps, n) of the chain with transition matrix
    ``p`` whose state before the first step has law ``init``.

    Per time block, one :func:`sample_categorical_rows` call draws the next
    state under every law the chain steps from (the rows of P, and
    ``init @ P`` for the first state) at every (step, replicate); each
    replicate then follows its own previous state through that table.  Step
    t of replicate r inverts the path stream's (t·reps + r)-th uniform.  The
    table and its comparison planes are allocated once and reused by every
    block, the last one in a leading part of the same storage; they are
    released when the paths are drawn.
    """
    k = p.shape[0]
    steps_from = np.vstack([p, init @ p])
    states = np.empty((reps, n), dtype=np.int64)
    prev = np.full(reps, k)     # row k: the first state's law
    block = max(1, _BLOCK_ENTRIES // ((k + 1) * reps))
    width = min(block, n) * reps
    table_store = np.empty((k + 1) * width, dtype=np.int64)
    above_store = np.empty((k - 1) * (k + 1) * width, dtype=bool)
    for s in range(0, n, block):
        b = min(block, n - s)
        m = b * reps
        # entry j·m + t·reps + r: replicate r's state at step s + t when it
        # steps from law j
        table = table_store[:(k + 1) * m]
        sample_categorical_rows(steps_from, path_rng.random(m),
                                out=table.reshape(k + 1, m),
                                above=above_store[:(k - 1) * (k + 1) * m]
                                .reshape(k - 1, k + 1, m))
        cols = np.arange(m).reshape(b, reps)
        for t in range(b):
            prev = states[:, s + t] = table.take(prev * m + cols[t])
    return states


def _simulate_series(model: ModelSpec, theta: np.ndarray, reps: int, n: int,
                     path_rng: np.random.Generator,
                     obs_rng: np.random.Generator):
    """``reps`` series of ``n`` steps at ``theta``: hidden paths (reps, n)
    from :func:`_draw_paths` and observations (reps, n, obs_dim).

    The observations come from the paths laid end to end and one
    ``obs_noise`` draw of size reps·n from ``obs_rng``, through
    ``obs_sampler`` calls on consecutive chunks of at most
    ``_BLOCK_ENTRIES`` of them, each written into one float output.  Entry
    i of a call reads only the i-th state and noise entry (the
    ``ModelSpec`` contract), so the chunks give the bytes of one whole call
    and no temporary of the sampler's is full-size.
    """
    (p,), (init,) = laws(model, theta[None])
    states = _draw_paths(p, init, reps, n, path_rng)
    flat = states.reshape(1, -1)
    noise = draw_noise(model, obs_rng, flat.size)
    obs = np.empty((flat.size, model.obs_dim))
    for s in range(0, flat.size, _BLOCK_ENTRIES):
        obs[s:s + _BLOCK_ENTRIES] = sample_observations(
            model, theta[None], flat[:, s:s + _BLOCK_ENTRIES],
            noise[s:s + _BLOCK_ENTRIES])[0]
    return states, obs.reshape(reps, n, -1)


def simulate(model: ModelSpec, theta, n: int, seed: int,
             with_hidden: bool = True) -> Trajectory:
    """Simulate ``n`` steps of the model at ``theta``.

    The hidden path and the observation channel draw from separate streams
    derived from ``seed``, so e.g. refining the observation model does not
    shuffle the state path.
    """
    theta = check_theta(model, theta)
    check_count("n", n, 1)
    check_seed(seed)
    states, obs = _simulate_series(model, theta, 1, n,
                                   rngmod.stream(seed, "path"),
                                   rngmod.stream(seed, "obs"))
    meta = {
        "seed": int(seed),
        "model": model.name,
        "theta": [float(v) for v in theta],
        "noise_epsilon": None,
    }
    return Trajectory(observations=obs[0],
                      hidden=states[0] if with_hidden else None,
                      meta=meta)


def noisify(traj: Trajectory, pert: PerturbationSpec, seed: int) -> Trajectory:
    """Add ``epsilon``-scaled kernel noise to every observation.

    This is the data-side half of the noisy ABC construction: the returned
    trajectory records ``noise_epsilon`` and refuses to be noisified twice.
    """
    check_seed(seed)
    if traj.meta.get("noise_epsilon") is not None:
        raise ValueError("trajectory is already noisified "
                         f"(noise_epsilon={traj.meta['noise_epsilon']})")
    noise = pert.noise(traj.obs_dim, traj.n, rngmod.stream(seed, "noisify"))
    meta = dict(traj.meta)
    meta["noise_epsilon"] = float(pert.epsilon)
    meta["noise_seed"] = int(seed)
    return Trajectory(observations=traj.observations + noise,
                      hidden=traj.hidden, meta=meta)


# ---------------------------------------------------------------------------
# disk format


def format_value(value) -> str:
    """``value`` as every file and the CLI write it: a float to 17
    significant digits, which read back as the same double; a bool as
    ``true``/``false``; None as an empty field; anything else by ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def json_value(value: float):
    """``value`` as every JSON payload writes a number: a finite one as it
    is, -inf, inf and NaN as the strings "-inf", "inf" and "nan"."""
    return value if np.isfinite(value) else str(float(value))


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def _utf8_lines(fh, path: Path):
    """The lines of the text file ``fh``, or a ``ValueError`` naming
    ``path`` where they are not UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text ({exc})") from None


def save_trajectory(traj: Trajectory, path) -> Path:
    """Write ``<path>.csv`` (observations) and ``<path>.json`` (metadata)."""
    path = Path(path)
    if path.suffix != ".csv":
        path = path.with_suffix(".csv")
    header = ["t"] + [f"y_{j + 1}" for j in range(traj.obs_dim)]
    if traj.hidden is not None:
        header.append("x")
    with open(path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.n):
            row = [str(t)] + [format_value(v) for v in traj.observations[t]]
            if traj.hidden is not None:
                row.append(str(int(traj.hidden[t])))
            writer.writerow(row)
    with open(_sidecar(path), "w", encoding="utf8") as fh:
        json.dump(traj.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`.

    A missing sidecar is tolerated: metadata comes back as unknown (None
    fields) with a warning.  A file that does not parse, is not UTF-8
    text, or (the sidecar) holds JSON other than an object, raises a
    ``ValueError`` that names it, and the line where one applies.  So does
    a sidecar whose ``summary`` is set and not ``identity``: no fit reads it.
    """
    path = Path(path)
    with open(path, "r", newline="", encoding="utf8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty, not a trajectory CSV")
        if not header or header[0] != "t":
            raise ValueError(f"{path} does not look like a trajectory CSV "
                             f"(header {header!r})")
        has_hidden = header[-1] == "x"
        m = len(header) - 1 - (1 if has_hidden else 0)
        obs_rows, hid_rows = [], []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has "
                                     f"{len(header)}")
                obs_rows.append([float(v) for v in row[1:1 + m]])
                if has_hidden:
                    hid_rows.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") \
                    from None
    sidecar = _sidecar(path)
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf8") as fh:
            try:
                meta = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{sidecar}: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(
                f"{sidecar}: trajectory metadata must be a JSON object")
        if meta.get("summary") not in (None, "identity"):
            raise ValueError(f"{sidecar}: summary {meta['summary']!r} is read "
                             "by no estimator; fit a model that emits it")
    else:
        warnings.warn(f"no metadata sidecar next to {path}; "
                      "meta reconstructed as unknown")
        meta = {}
    return Trajectory(observations=np.asarray(obs_rows, dtype=float),
                      hidden=np.asarray(hid_rows, dtype=np.int64) if has_hidden else None,
                      meta=meta)
