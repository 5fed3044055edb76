"""Shared fixtures."""

import pytest

from stackycoh import homology


def _no_rank(*args, **kwargs):
    raise AssertionError("boundary rank computed below rank 5")


@pytest.fixture
def no_boundary_ranks(monkeypatch):
    """Make every rank computation of the Delta enumerator raise.

    The Delta cache is emptied on both sides, so each fan is enumerated
    afresh under the guard.
    """
    monkeypatch.setattr(homology, "rat_rank", _no_rank)
    homology.delta_set.cache_clear()
    yield
    homology.delta_set.cache_clear()
