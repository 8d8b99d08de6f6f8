"""Shared fixtures for the test suite."""

from pathlib import Path

import pytest


@pytest.fixture
def child_env():
    """Minimal environment for a child interpreter that imports ``abchmm``.

    Holds only ``PATH`` and an absolute ``PYTHONPATH`` pointing at the
    directory that contains the ``abchmm`` package this test session
    imported, so a plain checkout, an editable install and a site-packages
    install all hand their child the same copy.  Being an environment
    variable, it also reaches the child's own pool workers under any
    multiprocessing start method.  Tests add only the variable they probe.
    """
    import abchmm

    package_root = Path(abchmm.__file__).resolve().parents[1]
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)}


@pytest.fixture
def stream_keys(monkeypatch):
    """The key of every ``rng.stream`` derivation made during the test, in
    call order."""
    from abchmm import rng

    keys = []
    derive = rng.stream

    def counted(*key):
        keys.append(key)
        return derive(*key)

    monkeypatch.setattr(rng, "stream", counted)
    return keys
