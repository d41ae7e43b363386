"""Shared fixtures: catalog groups and endomorphism sweeps are built once
per session because several suites walk the same exhaustive data."""

from __future__ import annotations

import pytest

import oracles
from twistspec.catalog import build, shipped_catalog


@pytest.fixture(scope="session")
def catalog_groups():
    return {defn.name: build(defn) for defn in shipped_catalog()}


@pytest.fixture(scope="session")
def small_groups(catalog_groups):
    """The catalog members of order at most 24."""
    return {name: g for name, g in catalog_groups.items() if g.order <= 24}


class EndoCache:
    def __init__(self, groups):
        self._groups = groups
        self._cache = {}

    def __call__(self, name):
        if name not in self._cache:
            self._cache[name] = oracles.morphisms(self._groups[name])
        return self._cache[name]


@pytest.fixture(scope="session")
def endos_of(catalog_groups):
    return EndoCache(catalog_groups)
