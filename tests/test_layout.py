"""The package's module boundaries, read from its source: no private name
crosses a module, nn loads without the dataset module, artifact alone
owns the on-disk format, and no kernel comes from LAPACK, an FFT or scipy."""

import ast
import re
from pathlib import Path

import operon
from conftest import run_python

PACKAGE = Path(operon.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _crossings(path: Path) -> list[str]:
    """Each private name that the module at path takes from another module
    of the package: `from .x import _name`, or `x._name` on a name bound
    to a package module."""
    tree = ast.parse(path.read_text())
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and (PACKAGE / f"{alias.name}.py").is_file():
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_private_name_crosses_a_module():
    assert [c for path in SOURCES for c in _crossings(path)] == []


def test_crossings_are_seen(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import nn\nfrom .data import _blob, load_dataset\nnn._param_size\n")
    assert _crossings(source) == ["probe.py:2 imports _blob", "probe.py:3 reads nn._param_size"]


def test_nn_loads_without_the_dataset_module():
    proc = run_python(
        ["-c", "import sys, operon.nn; print('operon.data' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


def test_only_artifact_spells_the_dtype_tag():
    assert [p.name for p in SOURCES if "f64le" in p.read_text()] == ["artifact.py"]


def test_dataset_module_leaves_file_handling_to_artifact():
    tree = ast.parse((PACKAGE / "data.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    assert imported.isdisjoint({"csv", "io", "json", "math", "os", "reprlib", "shutil", "uuid"})


FOREIGN_KERNELS = re.compile(
    r"\b(?:np|numpy)\.(?:linalg|fft)\b|\bfrom\s+numpy\s+import\b.*\b(?:linalg|fft)\b|\bscipy\b"
)


def _foreign_kernels(path: Path) -> list[str]:
    """Each line of the file at path that names numpy's linalg or fft
    module, or scipy."""
    lines = path.read_text().splitlines()
    return [f"{path.name}:{n}" for n, line in enumerate(lines, 1) if FOREIGN_KERNELS.search(line)]


def test_kernels_stay_in_house(tmp_path):
    # The probe shows the check can see each spelling, and that names
    # which merely contain one (operon's own linalg module) pass.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy.linalg\nx = np.fft.rfft(y)\nfrom numpy import fft\nimport scipy.sparse\n"
        "from . import linalg\nlinalg.jacobi_svd(a)\nnp.linalg_free = 1\n"
    )
    assert _foreign_kernels(probe) == ["probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4"]
    assert [hit for path in SOURCES for hit in _foreign_kernels(path)] == []
