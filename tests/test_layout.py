"""The package's module boundaries, read from its source: no private name
crosses a module, nn loads without the dataset module, artifact alone
owns the on-disk format, no kernel comes from LAPACK, an FFT or scipy,
every top-level name has a use or a listed reason, and no record has a
field set from outside it."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

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


# Top-level names that no module of the package uses, each kept for the
# reason given. The last three are named by perfbench and go with it.
SURFACE = {
    "__init__.__version__": "the package version, which pyproject.toml reads",
    "deeponet.save_model": "library surface: writes a model directory",
    "deeponet.monolithic_loss": "perfbench's tracer times it; the tests' reference training loss",
    "nn.mlp_copy": "perfbench's train workload copies its networks with it",
    "linalg.best_rank_k_error": "perfbench's tracer times it",
    "train.orthonormalize": "perfbench's certify_eval set-up and tracer call it",
}


def _defined(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loads(tree) -> set[str]:
    """Every name that tree loads: a Name, an attribute or an imported name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _orphans(paths) -> list[str]:
    """Each `module.name` defined at the top of one of the files at paths
    that none of them loads outside the statement that defines it."""
    statements = [(path, s, _loads(s)) for path in paths for s in ast.parse(path.read_text()).body]
    # In how many top-level statements each name is loaded.
    uses = Counter(name for _, _, loads in statements for name in loads)
    return [
        f"{path.stem}.{name}"
        for path, statement, loads in statements
        for name in _defined(statement)
        if uses[name] == (name in loads)
    ]


def _assert_no_orphans(paths) -> None:
    unlisted = [name for name in _orphans(paths) if name not in SURFACE]
    assert not unlisted, f"no use in src/ and not on SURFACE: {unlisted}"


def test_every_top_level_name_has_a_use_or_a_reason():
    _assert_no_orphans(SOURCES)
    # A SURFACE entry that gained a use, or lost its definition, goes.
    assert sorted(_orphans(SOURCES)) == sorted(SURFACE)


def test_orphans_are_seen(tmp_path):
    # A call from inside its own definition is no use; a name that another
    # module loads (nn.forward) passes.
    probe = tmp_path / "probe.py"
    probe.write_text("def planted(n):\n    return planted(n - 1)\n\n\ndef forward():\n    pass\n")
    with pytest.raises(AssertionError, match=r"\['probe\.planted'\]"):
        _assert_no_orphans([*SOURCES, probe])


# The one attribute that the package sets on an object other than self:
# Adam's step count.
FOREIGN_FIELD_WRITES = ["optimize.py state.t"]


def _foreign_field_writes(path: Path) -> list[str]:
    """Each attribute of anything but self that the file at path assigns
    to, by plain, augmented or unpacking assignment, as `file target`."""
    return sorted(
        f"{path.name} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def test_no_field_is_set_from_outside():
    assert [hit for path in SOURCES for hit in _foreign_field_writes(path)] == FOREIGN_FIELD_WRITES


def test_foreign_field_writes_are_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "self.ok = 1\nmodel.t_matrix = t\nreport.wall_seconds += 1.0\n"
        "a, (self.b, *net.c) = x\nw[0] = 1\nnet: int = 2\nself.net.d: int = 3\n"
    )
    assert _foreign_field_writes(probe) == [
        "probe.py model.t_matrix", "probe.py net.c", "probe.py report.wall_seconds", "probe.py self.net.d"
    ]
