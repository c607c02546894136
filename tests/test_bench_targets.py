"""The benchmark tracer wraps library functions by name; each name must exist.

``perfbench/tracer.py`` is loaded by path and only read, so a rename or a
deletion in ``tdmilp`` fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_traces_the_replay_and_the_vertex_oracle():
    assert TARGETS["fracbound.replay"] == ("tdmilp.fracbound", "StructuredInverseTrace.replay")
    assert TARGETS["solver.vertex_enumerate"] == ("tdmilp.solver", "vertex_enumerate")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    module_name, attr = TARGETS[name]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
