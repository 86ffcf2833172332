"""Tests that the hand-kept export lists name only what exists."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["contestlab", "contestlab.simulate",
                                    "contestlab.golden"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from contestlab import *", namespace)
    import contestlab
    assert set(contestlab.__all__) <= set(namespace)
