"""Command-line front door: dataset generation, training, evaluation,
zero-loss certification, and generalization sweeps.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or validation
errors. All randomness is funneled through explicit seeds, so rerunning a
command with the same flags reproduces its artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import nn
from .construct import verify_zero_loss_pipeline
from .data import (
    OperatorDataset,
    gen_example1,
    gen_example2,
    gen_example3,
    load_dataset,
    save_dataset,
    split_dataset,
    triplet_grid_sample,
)
from .deeponet import DeepONetModel, load_model, save_model
from .errors import OperonError
from .train import TrainConfig, save_report, train_monolithic, train_two_step

USAGE_ERROR = 2
RUNTIME_ERROR = 1

TRAIN_CONFIG_KEYS = {
    "seed": int,
    "trunk_arch": list,
    "branch_arch": list,
    "activation": str,
    "init": str,
    "iters_trunk": int,
    "iters_branch": int,
    "iters_mono": int,
    "lr": float,
    "schedule_factor": float,
    "schedule_every": int,
    "a_init_scale": float,
    "ls_refit_every": int,
}

SWEEP_CONFIG_KEYS = {
    "seed": int,
    "example": str,
    "k_train": int,
    "k_test": int,
    "grid_n": int,
    "beta_lo": float,
    "beta_hi": float,
    "n_width": int,
    "trunk_hidden": list,
    "branch_hidden": list,
    "activation": str,
    "init": str,
    "iters_trunk": int,
    "iters_branch": int,
    "lr": float,
    "ls_refit_every": int,
    "a_init_scale": float,
}


# Sweep config keys that name a SweepSettings field differently.
_SWEEP_FIELD_NAMES = {"init": "init_scheme", "seed": "base_seed"}


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


def _dataclass_from_config(cls, config: dict, **extra):
    """Build cls from the config keys that name its fields, lists as
    tuples; the dataclass supplies the defaults for absent keys."""
    names = {f.name for f in dataclasses.fields(cls)}
    present = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in config.items()
        if key in names
    }
    return cls(**present, **extra)


def _load_config(path: str, allowed: dict) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        expected = allowed[key]
        if isinstance(value, bool):
            raise ConfigError(f"config key {key} must be {expected.__name__}")
        if expected is float and isinstance(value, int):
            raw[key] = float(value)
        elif not isinstance(raw[key], expected):
            raise ConfigError(f"config key {key} must be {expected.__name__}")
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--method", choices=("van", "2st", "2st-noqr"), required=True)
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


def _cmd_generate(args) -> int:
    if args.grid_n < 3:
        raise ConfigError(f"--grid-n must be >= 3, got {args.grid_n}")
    if args.k < 2:
        raise ConfigError(f"--k must be >= 2, got {args.k}")
    if not 0.0 < args.train_fraction < 1.0:
        raise ConfigError(f"--train-fraction must lie in (0, 1), got {args.train_fraction}")
    if args.example == "ex1":
        betas = np.linspace(1.0, 1000.0, args.k)
        data = gen_example1(betas, args.grid_n, seed=args.seed)
    elif args.example == "ex2":
        betas = np.linspace(0.01, 10.0, args.k)
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


def _make_model(config: dict, data: OperatorDataset) -> DeepONetModel:
    trunk_arch = config.get("trunk_arch")
    branch_arch = config.get("branch_arch")
    if not trunk_arch or not branch_arch:
        raise ConfigError("config must set trunk_arch and branch_arch")
    if branch_arch[-1] != trunk_arch[-1] + 1:
        raise ConfigError(
            f"branch output {branch_arch[-1]} must equal trunk output + 1 "
            f"({trunk_arch[-1] + 1})"
        )
    if trunk_arch[0] != data.y_sensors.shape[1]:
        raise ConfigError(
            f"trunk input {trunk_arch[0]} != sensor dimension {data.y_sensors.shape[1]}"
        )
    if branch_arch[0] != data.m_x:
        raise ConfigError(f"branch input {branch_arch[0]} != m_x {data.m_x}")
    seed = config.get("seed", 0)
    activation = config.get("activation", "relu")
    scheme = config.get("init", "he")
    trunk = nn.init_mlp(trunk_arch, activation, scheme, seed=seed + 1)
    branch = nn.init_mlp(branch_arch, activation, scheme, seed=seed + 2)
    return DeepONetModel(
        trunk=trunk, branch=branch, t_matrix=None, width=trunk_arch[-1]
    )


def _cmd_train(args) -> int:
    config = _load_config(args.config, TRAIN_CONFIG_KEYS)
    data = load_dataset(args.data)
    model = _make_model(config, data)
    method = {"van": "van", "2st": "two_step", "2st-noqr": "two_step_no_qr"}[args.method]
    cfg = _dataclass_from_config(TrainConfig, config, method=method)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if method == "van":
        model, report = train_monolithic(data, model, cfg)
    else:
        model, report = train_two_step(data, model, cfg)
    out = Path(args.out)
    save_model(model, out)
    save_report(report, out)
    print(
        f"{report.method}: final monolithic loss {report.final_monolithic_loss:.6e} "
        f"({report.wall_seconds:.1f}s) -> {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    if args.truncate is not None and not args.truncate > 0.0:
        raise ConfigError(f"--truncate must be > 0, got {args.truncate}")
    model = load_model(args.model)
    data = load_dataset(args.data)
    for index in args.map_index:
        if not 0 <= index < data.n_samples:
            raise ConfigError(f"--map-index {index} is outside 0..{data.n_samples - 1}")
    report = ev.evaluate_model(model, data, truncate_m=args.truncate)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    edges, counts = ev.log10_histogram(report.rel_errors)
    with (out / "histogram.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["log10_lo", "log10_hi", "count"])
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([repr(float(lo)), repr(float(hi)), int(count)])
    for index in args.map_index:
        grid = ev.error_map(model, data, index)
        with (out / f"error_map_{index}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"y{d}" for d in range(grid.shape[1] - 1)] + ["abs_error"])
            for row in grid:
                writer.writerow([repr(float(v)) for v in row])
    print(
        f"mean rel error {report.mean_rel_error:.6e}, "
        f"mean optimal {report.mean_optimal_error:.6e} -> {args.out}"
    )
    return 0


def _cmd_certify(args) -> int:
    if args.n_width < 1:
        raise ConfigError(f"--N must be >= 1, got {args.n_width}")
    data = load_dataset(args.data)
    cert = verify_zero_loss_pipeline(data, args.n_width, seed=args.seed)
    payload = json.dumps(cert.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n")
    return 0 if cert.passed else RUNTIME_ERROR


def _cmd_sweep(args) -> int:
    threads = os.environ.get("OPERON_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError as exc:
        raise ConfigError(f"OPERON_THREADS must be an int, got {threads!r}") from exc
    config = _load_config(args.config, SWEEP_CONFIG_KEYS)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated ints: {exc}") from exc
    renamed = {_SWEEP_FIELD_NAMES.get(key, key): value for key, value in config.items()}
    settings = _dataclass_from_config(ev.SweepSettings, renamed)
    try:
        table = ev.generalization_sweep(
            settings, args.axis, values, args.replicates, max_workers=max(1, workers)
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "sweep.csv")
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
    except (OperonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
