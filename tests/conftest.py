"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def own_caches(monkeypatch):
    """Keep the towers and Eilenberg-MacLane equipment a test builds to the
    test, so that they are freed when it ends and do not weigh on the
    garbage collector for the rest of the run."""
    monkeypatch.setattr("effhom.postnikov._tower_cache", {})
    monkeypatch.setattr("effhom.em._em_cache", {})
