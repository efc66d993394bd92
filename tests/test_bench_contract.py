"""The benchmark's tracer wraps operon functions by name; every name it
lists must exist in the package, or a traced run fails at install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name", _targets())
def test_target_resolves(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"operon.{module_name}")
    assert callable(getattr(module, attr, None)), f"operon.{name} is missing"
