"""Shared fixtures."""

import os
import sys
from pathlib import Path

# the suite runs from a fresh checkout without an install: src/ goes on the
# import path, and on PYTHONPATH for the tests that start python in a child
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

import pytest  # noqa: E402

from stackycoh import cohomline, homology  # noqa: E402


def _no_rank(*args, **kwargs):
    raise AssertionError("boundary rank computed below rank 5")


@pytest.fixture
def no_boundary_ranks(monkeypatch):
    """Make every rank computation of the Delta enumerator raise.

    The Delta cache and the Delta table built on it are emptied on both
    sides, so each fan is enumerated afresh under the guard.
    """
    monkeypatch.setattr(homology, "rat_rank", _no_rank)
    homology.delta_set.cache_clear()
    cohomline._delta_table.cache_clear()
    yield
    homology.delta_set.cache_clear()
    cohomline._delta_table.cache_clear()
