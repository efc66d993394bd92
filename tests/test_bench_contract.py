"""The benchmark's tracer wraps operon functions by name; every name it
lists must exist in the package, or a traced run fails at install."""

import importlib
import importlib.util
import subprocess
import sys
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


def test_benchmark_smoke_check_passes():
    """perfbench/smoke.py runs every workload at tiny shapes, so a change
    to a function the tracer's figure functions read fails here."""
    smoke = TRACER.parent / "smoke.py"
    result = subprocess.run(
        [sys.executable, str(smoke)], cwd=TRACER.parent.parent, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
