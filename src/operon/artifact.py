"""The on-disk format of every artifact: whole-directory writes, the JSON
and CSV texts, little-endian float64 blobs, and manifest checks."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
import shutil
import uuid
from pathlib import Path

import numpy as np

from .errors import CorruptDatasetError

# The dtype tag of every artifact's blobs: little-endian float64.
DTYPE = "f64le"


def check_replaceable(directory, manifest: str) -> None:
    """Raise FileExistsError unless `directory` is absent, empty or holds
    an artifact of the same kind (its `manifest` file), so a mistyped path
    cannot wipe unrelated files. Commands call it before their work too."""
    directory = Path(directory)
    if (
        directory.exists()
        and any(directory.iterdir())
        and not (directory / manifest).is_file()
    ):
        raise FileExistsError(
            f"{directory} is not empty and holds no {manifest}; not replacing it"
        )


def write_artifact(directory, manifest: str, files: dict) -> None:
    """Write `files` (file name -> str or bytes-like content) as the whole
    content of `directory`.

    The files go into a fresh hidden sibling directory, which is then
    renamed into the place of `directory`: a failure part-way leaves the
    previous artifact whole and no temporary directory behind. An existing
    `directory` is replaced only when check_replaceable allows it."""
    directory = Path(os.path.abspath(directory))
    check_replaceable(directory, manifest)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    tmp.mkdir()
    try:
        for name, content in files.items():
            (tmp / name).write_bytes(content.encode() if isinstance(content, str) else content)
        if directory.exists():
            # POSIX cannot swap two directories in one rename, so the old
            # one steps aside first and comes back if the swap fails.
            old = tmp.with_name(tmp.name + ".old")
            os.rename(directory, old)
            try:
                os.rename(tmp, directory)
            except OSError:
                os.rename(old, directory)
                raise
            shutil.rmtree(old)
        else:
            os.rename(tmp, directory)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def json_text(obj) -> str:
    """The text of every JSON artifact: indented, keys sorted, one final
    newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows) -> str:
    """The text of every CSV artifact (csv.writer defaults, CRLF lines)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def blob(arr: np.ndarray) -> np.ndarray:
    """The bytes-like content of a blob file: arr as little-endian float64,
    row-major; a view when arr already is."""
    return np.ascontiguousarray(arr, dtype="<f8")


def read_blob(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """A little-endian float64 blob of the given shape; its length must
    match and every entry must be finite."""
    expected = math.prod(shape) * 8
    raw = path.read_bytes()
    if len(raw) != expected:
        raise CorruptDatasetError(
            f"{path.name}: expected {expected} bytes for shape {shape}, got {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise CorruptDatasetError(f"{path.name} contains NaN or Inf")
    return arr


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_positive_int(value) -> bool:
    return is_int(value) and value >= 1


def check_fields(manifest, name: str, rules: dict) -> None:
    """Raise CorruptDatasetError unless manifest, the parsed file `name`, is
    a JSON object that holds every key of rules with a value passing its
    rule; rules maps a key to (test, what the value must be)."""
    if not isinstance(manifest, dict):
        raise CorruptDatasetError(f"{name} must hold a JSON object")
    for key, (test, what) in rules.items():
        if key not in manifest:
            raise CorruptDatasetError(f"{name} missing key {key!r}")
        if not test(manifest[key]):
            raise CorruptDatasetError(f"{name} {key} must be {what}, got {reprlib.repr(manifest[key])}")


def read_manifest(directory: Path, name: str, rules: dict) -> dict:
    """The parsed JSON file `name` in an artifact directory, checked by
    check_fields against rules and then the dtype tag. A missing file,
    bytes that are not UTF-8 and JSON that is malformed or nested too
    deeply to parse all raise CorruptDatasetError."""
    path = directory / name
    if not path.exists():
        raise CorruptDatasetError(f"missing {name} in {directory}")
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CorruptDatasetError(f"unreadable {name}: {exc}") from exc
    check_fields(manifest, name, {**rules, "dtype": (lambda value: value == DTYPE, repr(DTYPE))})
    return manifest
