"""Command-line front door: dataset generation, training, evaluation,
zero-loss certification, and generalization sweeps.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or validation
errors. All randomness is funneled through explicit seeds, so rerunning a
command with the same flags reproduces its artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .artifact import check_replaceable, csv_text, is_int, is_positive_int, json_text, write_artifact
from .construct import verify_zero_loss_pipeline
from .data import (
    BETA_RANGE_EX1,
    BETA_RANGE_EX2,
    TRIPLET_LATTICE_SIZE,
    OperatorDataset,
    gen_example1,
    gen_example2,
    gen_example3,
    load_dataset,
    save_dataset,
    split_count,
    split_dataset,
    triplet_grid_sample,
)
from .deeponet import MODEL_MANIFEST, DeepONetModel, ModelSpec, check_width, load_model, model_files
from .errors import OperonError, ShapeError
from .train import METHODS, TrainConfig, report_files, train_monolithic, train_two_step

USAGE_ERROR = 2
RUNTIME_ERROR = 1

# SweepSettings fields whose sweep config key has another name.
_SWEEP_KEYS = {"init_scheme": "init", "base_seed": "seed"}


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


def _config_schema(*classes, skip=(), keys=None) -> dict:
    """Config key -> (field name, type) over the fields of the dataclasses,
    leaving out the fields in skip (those set by flags); keys maps a field
    to its config key where the two differ."""
    hints = {cls: typing.get_type_hints(cls) for cls in classes}
    return {
        (keys or {}).get(f.name, f.name): (f.name, hints[cls][f.name])
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }


# --method sets the training method and only --axis m_y sets m_y.
_TRAIN_SCHEMA = _config_schema(TrainConfig, ModelSpec, skip=("method",))
_SWEEP_SCHEMA = _config_schema(ev.SweepSettings, skip=("m_y",), keys=_SWEEP_KEYS)
_SWEEP_FIELDS = {f.name for f in dataclasses.fields(ev.SweepSettings)}


def _parse_value(key: str, kind, value):
    """A JSON value checked against a field type: ints, finite floats (ints
    widen), strings, Literal choices and tuple[int, ...] from a list of
    positive ints. An optional field is set by a value of its type; leaving
    the key out keeps the default."""
    args = typing.get_args(kind)
    if type(None) in args:
        (kind,) = (arg for arg in args if arg is not type(None))
        args = typing.get_args(kind)
    origin = typing.get_origin(kind)
    if origin is typing.Literal:
        if value in args:
            return value
        raise ConfigError(f"config key {key} must be one of {', '.join(args)}, got {value!r}")
    if origin is tuple:
        if isinstance(value, list) and all(map(is_positive_int, value)):
            return tuple(value)
        raise ConfigError(f"config key {key} must be a list of positive ints, got {value!r}")
    if kind is float and is_int(value):
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"config key {key} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {value}")
    return value


def _load_config(path: str, schema: dict) -> dict:
    """The config file's entries checked against schema, keyed by field name."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {schema[key][0]: _parse_value(key, schema[key][1], value) for key, value in raw.items()}


def _from_config(cls, config: dict, **extra):
    """cls from the config entries that name its fields; the dataclass
    supplies the defaults for absent ones."""
    fields = dataclasses.fields(cls)
    missing = [
        f.name
        for f in fields
        if f.name not in config
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"config must set {' and '.join(missing)}")
    return cls(**{f.name: config[f.name] for f in fields if f.name in config}, **extra)


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error:` line and exit 2; subparsers share the class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="operon",
        description="Operator-network training and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--example", choices=("ex1", "ex2", "ex3"), required=True)
    p.add_argument("--grid-n", type=int, default=33)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.9)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--method", choices=tuple(METHODS.values()), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truncate", type=float, default=None)
    p.add_argument("--map-index", type=int, action="append", default=[])

    p = sub.add_parser("certify", help="run the constructive zero-loss check")
    p.add_argument("--data", required=True)
    p.add_argument("--N", dest="n_width", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="generalization error scaling probe")
    p.add_argument("--axis", choices=ev.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated increasing ints")
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    return parser


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def _cmd_generate(args) -> int:
    if args.grid_n < 3:
        raise ConfigError(f"--grid-n must be >= 3, got {args.grid_n}")
    if args.example == "ex3" and args.k > TRIPLET_LATTICE_SIZE:
        raise ConfigError(f"--k must be <= {TRIPLET_LATTICE_SIZE} for ex3, got {args.k}")
    _check_seed(args.seed)
    try:
        split_count(args.k, args.train_fraction)
    except ValueError as exc:
        raise ConfigError(f"--train-fraction {args.train_fraction} with --k {args.k}: {exc}") from exc
    check_replaceable(args.out, "manifest.json")
    if args.example == "ex1":
        betas = np.linspace(*BETA_RANGE_EX1, args.k)
        data = gen_example1(betas, args.grid_n, seed=args.seed)
    elif args.example == "ex2":
        betas = np.linspace(*BETA_RANGE_EX2, args.k)
        data = gen_example2(betas, args.grid_n, seed=args.seed)
    else:
        trips = triplet_grid_sample(args.k, seed=args.seed)
        data = gen_example3(trips, args.grid_n, seed=args.seed)
    data = split_dataset(data, args.train_fraction, seed=args.seed)
    save_dataset(data, args.out)
    print(
        f"{args.example}: K={data.n_samples} m_x={data.m_x} m_y={data.m_y} "
        f"train={data.train_idx.size} test={data.test_idx.size} -> {args.out}"
    )
    return 0


def _make_model(spec: ModelSpec, seed: int, data: OperatorDataset) -> DeepONetModel:
    """The config's model; init_mlp checks each architecture, the model's
    validate whether they agree, and here whether they fit the data."""
    try:
        model = spec.build(seed)
        model.validate()
    except (ValueError, ShapeError) as exc:
        raise ConfigError(f"config keys trunk_arch, branch_arch: {exc}") from exc
    if spec.trunk_arch[0] != data.d_y:
        raise ConfigError(f"trunk input {spec.trunk_arch[0]} != sensor dimension {data.d_y}")
    if spec.branch_arch[0] != data.m_x:
        raise ConfigError(f"branch input {spec.branch_arch[0]} != m_x {data.m_x}")
    return model


def _check_width(n_width: int, data: OperatorDataset, name: str) -> None:
    """The two-step methods and the certificate need width + 1 <= m_y;
    breaking the rule is a usage error, named after the option that set
    the width."""
    try:
        check_width(n_width, data.m_y)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _cmd_train(args) -> int:
    config = _load_config(args.config, _TRAIN_SCHEMA)
    method = {name: m for m, name in METHODS.items()}[args.method]
    try:
        cfg = _from_config(TrainConfig, config, method=method)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = _from_config(ModelSpec, config)
    check_replaceable(args.out, MODEL_MANIFEST)
    data = load_dataset(args.data)
    model = _make_model(spec, cfg.seed, data)
    if method == "van":
        model, report = train_monolithic(data, model, cfg)
    else:
        _check_width(model.width, data, "config key trunk_arch")
        model, report = train_two_step(data, model, cfg)
    write_artifact(args.out, MODEL_MANIFEST, {**model_files(model), **report_files(report)})
    print(
        f"{report.method}: final monolithic loss {report.final_monolithic_loss:.6e} "
        f"({report.wall_seconds:.1f}s) -> {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    if args.truncate is not None and not args.truncate > 0.0:
        raise ConfigError(f"--truncate must be > 0, got {args.truncate}")
    check_replaceable(args.out, "eval.json")
    model = load_model(args.model)
    data = load_dataset(args.data)
    for index in args.map_index:
        if not 0 <= index < data.n_samples:
            raise ConfigError(f"--map-index {index} is outside 0..{data.n_samples - 1}")
    report = ev.evaluate_model(model, data, truncate_m=args.truncate)
    edges, counts = ev.log10_histogram(report.rel_errors)
    files = {
        "eval.json": json_text(dataclasses.asdict(report)),
        "histogram.csv": csv_text(
            ["log10_lo", "log10_hi", "count"],
            (
                [repr(float(lo)), repr(float(hi)), int(count)]
                for lo, hi, count in zip(edges[:-1], edges[1:], counts)
            ),
        ),
    }
    for index in args.map_index:
        grid = ev.error_map(model, data, index)
        files[f"error_map_{index}.csv"] = csv_text(
            [f"y{d}" for d in range(grid.shape[1] - 1)] + ["abs_error"],
            ([repr(float(v)) for v in row] for row in grid),
        )
    write_artifact(args.out, "eval.json", files)
    ratio = "n/a" if report.optimal_ratio is None else f"{report.optimal_ratio:.4f}"
    print(
        f"mean rel error {report.mean_rel_error:.6e}, "
        f"mean optimal {report.mean_optimal_error:.6e}, ratio {ratio} -> {args.out}"
    )
    return 0


def _cmd_certify(args) -> int:
    if args.n_width < 1:
        raise ConfigError(f"--N must be >= 1, got {args.n_width}")
    _check_seed(args.seed)
    if args.out:
        check_replaceable(args.out, "certificate.json")
    data = load_dataset(args.data)
    _check_width(args.n_width, data, "--N")
    cert = verify_zero_loss_pipeline(data, args.n_width, seed=args.seed)
    payload = json_text(cert.to_dict())
    sys.stdout.write(payload)
    if args.out:
        write_artifact(args.out, "certificate.json", {"certificate.json": payload})
    return 0 if cert.passed else RUNTIME_ERROR


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, _SWEEP_SCHEMA)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated ints: {exc}") from exc
    # Every run is checked before any starts. No run takes the config's
    # value of the swept field, so the base carries the first swept value.
    # A bad setting's message starts with its field: the swept one is a
    # --values entry, another a config key.
    try:
        settings = _from_config(ev.SweepSettings, {**config, ev.SWEEP_AXES[args.axis]: values[0]})
        ev.sweep_runs(settings, args.axis, values, args.replicates)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if field == ev.SWEEP_AXES[args.axis]:
            raise ConfigError(f"--values: {exc}") from exc
        if field in _SWEEP_FIELDS:
            raise ConfigError(f"config key {_SWEEP_KEYS.get(field, field)} {rest}") from exc
        raise ConfigError(str(exc)) from exc
    check_replaceable(args.out, "sweep.csv")
    table = ev.generalization_sweep(settings, args.axis, values, args.replicates)
    write_artifact(args.out, "sweep.csv", {"sweep.csv": table.to_csv_text()})
    for row in table.rows:
        print(
            f"{args.axis}={row.value}: mean {row.mean_rel_error:.6e} "
            f"std {row.std_rel_error:.6e}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "certify": _cmd_certify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OperonError, ValueError, OSError, MemoryError) as exc:
        # A MemoryError may carry no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
