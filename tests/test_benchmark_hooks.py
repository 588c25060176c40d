"""The traced benchmark run patches package attributes by name; each one
must still be defined where perfbench/tracing.py looks for it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(owner, attr, name, id=f"{owner.__name__}.{attr}")
            for owner, attr, name in module.TARGETS]


@pytest.mark.parametrize("owner, attr, name", _targets())
def test_trace_target_is_defined_on_its_owner(owner, attr, name):
    # tracing reads owner.__dict__[attr], so an attribute a class only
    # inherits does not count
    assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
    target = owner.__dict__[attr]
    assert callable(target) or isinstance(target, property), name
