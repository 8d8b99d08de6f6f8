"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from a stream derived from a
master seed plus a tuple of string/int tags.  Distinct tag tuples give
independent streams; identical tuples give bit-identical draws, regardless of
the order in which streams are created or which worker process creates them.
That is the whole determinism story: common-random-number optimization,
byte-identical experiment reruns and thread-count independence all reduce to
"derive the stream from the same key".
"""

from __future__ import annotations

import hashlib

import numpy as np

def derive_seed(*keys: object) -> int:
    """Collapse a tuple of tags into a 128-bit integer seed.

    Tags may be strings, ints or floats.  Hashing is SHA-256 over an
    unambiguous byte encoding, so it is stable across processes and
    interpreter restarts (unlike ``hash``).
    """
    h = hashlib.sha256()
    for k in keys:
        if isinstance(k, (str, np.str_)):
            part = "s:" + str(k)
        elif isinstance(k, (bool, np.bool_)):
            part = "b:" + str(bool(k))
        elif isinstance(k, (int, np.integer)):
            part = "i:" + str(int(k))
        elif isinstance(k, (float, np.floating)):
            part = "f:" + repr(float(k))
        else:
            raise TypeError(f"unhashable stream key {k!r} of type {type(k).__name__}")
        h.update(part.encode("utf8"))
        h.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return int.from_bytes(h.digest()[:16], "big")


def stream(*keys: object) -> np.random.Generator:
    """Return a fresh Generator for the given key tuple."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*keys)))
