import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import hyperradial
from hyperradial import PhysicalParams, states

# the property tests draw the same examples on every run, so a tier-1 result can be reproduced
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def params() -> PhysicalParams:
    return PhysicalParams()


@pytest.fixture(autouse=True)
def _seeded_rng():
    np.random.seed(20240811)
    yield


@pytest.fixture
def gate_calls(monkeypatch) -> list:
    """The radii passed to `_as_positive_radius`, in every module that imports it."""
    original = states._as_positive_radius
    calls = []

    def counting(r):
        calls.append(r)
        return original(r)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hyperradial") and vars(module).get("_as_positive_radius") is original:
            monkeypatch.setattr(module, "_as_positive_radius", counting)
    return calls


@pytest.fixture
def child_env() -> dict:
    """Environment of a child Python process that imports the package under test."""
    return dict(os.environ, PYTHONPATH=str(Path(hyperradial.__file__).parents[1]))
