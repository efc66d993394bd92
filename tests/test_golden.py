"""Seeded outputs of every command, checked against the sha256 digests in
golden.json, so a change that moves any seeded byte fails here.

The digests hold for one numerical environment: the numpy version, its
OpenBLAS build, the OpenBLAS kernel that OPENBLAS_CORETYPE forces and the
CPU features numpy dispatches on. Under another
fingerprint the test skips and names what differs; that is its only skip.
A change that moves seeded bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --rewrite

which prints each moved name with its old and new digest (or `added`,
`removed`); record those lines, with the reason, in CHANGES.md.
"""

import operon  # noqa: F401  (before numpy: the one BLAS thread of every command)
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from operon.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

_TRAIN_CONFIG = {
    "seed": 1, "trunk_arch": [2, 12, 4], "branch_arch": [1, 12, 5], "activation": "tanh",
    "iters_trunk": 20, "iters_branch": 20, "iters_mono": 20, "lr": 1e-2,
    "schedule_factor": 2.0, "schedule_every": 7, "ls_refit_every": 5,
}
_SWEEP_CONFIG = {
    "seed": 2, "example": "ex1", "k_test": 4, "grid_n": 5, "n_width": 3, "trunk_hidden": [6],
    "branch_hidden": [6], "activation": "tanh", "iters_trunk": 5, "iters_branch": 5,
}


def fingerprint() -> dict:
    """The numpy version, its OpenBLAS configuration, the OpenBLAS kernel
    forced at run time and the CPU features numpy reports: what the seeded
    bytes depend on besides operon."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "openblas": blas.get("openblas configuration"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def differences(golden: dict) -> list[str]:
    """Each entry of this fingerprint that differs from golden's; a key
    that golden lacks reads as None, the value of an unset variable."""
    here = fingerprint()
    return [
        f"{key}: golden {golden.get(key)!r}, here {here[key]!r}"
        for key in here
        if here[key] != golden.get(key)
    ]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        # The wall time is the one field of an artifact that reruns change.
        report = json.loads(data)
        del report["wall_seconds"]
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def outputs(root: Path) -> dict:
    """Run every command at tiny seeded shapes under root; returns
    'output/file' -> sha256 of every file written."""

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv

    for example, grid in (("ex1", 7), ("ex2", 9), ("ex3", 5)):
        run("generate", "--example", example, "--grid-n", grid, "--k", 20, "--seed", 3,
            "--out", root / f"generate_{example}")
    data = root / "generate_ex1"
    config = root / "train.json"
    config.write_text(json.dumps(_TRAIN_CONFIG))
    for method in ("2st", "2st-noqr", "van"):
        run("train", "--method", method, "--config", config, "--data", data,
            "--out", root / f"train_{method}")
    run("eval", "--model", root / "train_2st", "--data", data, "--out", root / "eval",
        "--map-index", 0)
    run("certify", "--data", data, "--N", 4, "--out", root / "certify")
    config = root / "sweep.json"
    config.write_text(json.dumps(_SWEEP_CONFIG))
    for cores in (1, 2):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
            run("sweep", "--axis", "K", "--values", "4,6", "--replicates", 3,
                "--config", config, "--out", root / f"sweep_{cores}_workers")
    return {
        path.relative_to(root).as_posix(): _digest(path)
        for path in sorted(root.glob("*/*"))
    }


def test_seeded_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    differs = differences(golden["fingerprint"])
    if differs:
        pytest.skip("golden.json holds digests of another environment; " + "; ".join(differs))
    digests = outputs(tmp_path)
    moved = sorted(
        name
        for name in golden["digests"].keys() | digests.keys()
        if golden["digests"].get(name) != digests.get(name)
    )
    assert not moved, (
        f"seeded bytes moved in {', '.join(moved)}; if on purpose, rewrite "
        f"with `PYTHONPATH=src python tests/test_golden.py --rewrite`"
    )


def test_forced_openblas_kernel_is_another_environment(monkeypatch):
    # The variable picks the kernel when numpy loads, and the kernel can
    # move seeded bytes, so a set one is compared with golden's.
    golden = json.loads(GOLDEN.read_text())["fingerprint"]
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert not [d for d in differences(golden) if d.startswith("openblas_coretype")]
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert "openblas_coretype: golden None, here 'Haswell'" in differences(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = {"fingerprint": fingerprint(), "digests": outputs(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    new = record["digests"]
    # One line per moved name, ready to paste into the CHANGES.md record.
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            print(f"{name}: added")
        elif name not in new:
            print(f"{name}: removed")
        elif old[name] != new[name]:
            print(f"{name}: {old[name]} → {new[name]}")
    print(f"wrote {len(new)} digests to {GOLDEN}")
