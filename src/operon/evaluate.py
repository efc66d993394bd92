"""Test-time metrics and the generalization scaling probe.

Includes the conditional-optimal reference (the least-squares fit
achievable with the frozen trunk if the true test output were known),
prediction truncation, and sweeps of the test error against dataset and
model sizes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _NUMPY_LOADED_FIRST, linalg, nn
from .data import (
    TRIPLET_RANGE_EX3,
    OperatorDataset,
    csv_text,
    gen_example1,
    gen_example3,
    subsample_output_sensors,
)
from .deeponet import DeepONetModel, ModelSpec, assemble_c, check_width, model_basis, predict
from .train import TrainConfig, train_two_step


# Bins of the log10 error histogram that `operon eval` writes.
HISTOGRAM_BINS = 20


def _column_errors(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """||prediction - target||_2 / ||target||_2 per column of two m x n
    matrices."""
    scale = _column_scale(prediction, target)
    prediction, target = prediction * scale, target * scale
    t_norms = np.sqrt(np.sum(target * target, axis=0))
    if np.any(t_norms == 0.0):
        raise ValueError("target has zero norm")
    return np.sqrt(np.sum((prediction - target) ** 2, axis=0)) / t_norms


def _column_scale(*matrices: np.ndarray) -> np.ndarray:
    """Per column, the power of two that brings the largest entry of the
    matrices into [0.5, 1). Scaling by it is exact, so scale-free results
    keep their bits, and squares of finite entries near the float64 limit
    no longer overflow."""
    peak = np.max([np.max(np.abs(m), axis=0) for m in matrices], axis=0)
    return np.ldexp(1.0, -np.frexp(peak)[1])


def conditional_optimal(basis, u_test) -> np.ndarray:
    """Relative error of each column of the true test output, an m_y x n
    matrix, against its least-squares fit in a frozen basis (model_basis
    of the trained model at the test sensors).

    All columns share one QR of the basis. This reference is unattainable
    in deployment (it needs the target), but it always lower-bounds the
    trained model's error.
    """
    u = np.ascontiguousarray(u_test, dtype=np.float64)
    # The fit is linear in u, so it runs on exactly rescaled columns.
    u = u * _column_scale(u)
    return _column_errors(basis @ linalg.least_squares(basis, u), u)


def truncate_prediction(prediction, bound_m: float) -> np.ndarray:
    """Clamp entries to [-M, M]: sign(z) * min(M, |z|)."""
    if not bound_m > 0.0:
        raise ValueError(f"bound must be > 0, got {bound_m}")
    z = np.ascontiguousarray(prediction, dtype=np.float64)
    return np.sign(z) * np.minimum(bound_m, np.abs(z))


@dataclass
class EvalReport:
    sample_indices: list[int]
    rel_errors: list[float]
    optimal_errors: list[float]
    mean_rel_error: float
    std_rel_error: float
    mean_optimal_error: float
    std_optimal_error: float
    # mean_rel_error / mean_optimal_error: how far the model is from the
    # best fit its trunk allows; None when the optimal error is 0.
    optimal_ratio: float | None


def evaluate_model(
    model: DeepONetModel, data: OperatorDataset, truncate_m: float | None = None
) -> EvalReport:
    """Relative and conditional-optimal errors over the test split
    (or over everything when the dataset carries no split), in matrix
    form: one basis, one batched branch pass and one QR serve every
    sample."""
    indices = data.test_idx if data.test_idx is not None else np.arange(data.n_samples)
    targets = data.u_matrix[:, indices]
    basis = model_basis(model, data.y_sensors)
    preds = basis @ assemble_c(model.branch, data.f_matrix[indices])
    if truncate_m is not None:
        preds = truncate_prediction(preds, truncate_m)
    rel = _column_errors(preds, targets)
    opt = conditional_optimal(basis, targets)
    mean_rel, mean_opt = float(rel.mean()), float(opt.mean())
    return EvalReport(
        sample_indices=[int(i) for i in indices],
        rel_errors=rel.tolist(),
        optimal_errors=opt.tolist(),
        mean_rel_error=mean_rel,
        std_rel_error=float(rel.std()),
        mean_optimal_error=mean_opt,
        std_optimal_error=float(opt.std()),
        optimal_ratio=mean_rel / mean_opt if mean_opt > 0.0 else None,
    )


def log10_histogram(errors) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of log10(errors) in HISTOGRAM_BINS bins; returns
    (bin_edges, counts)."""
    logs = np.log10(np.maximum(np.asarray(errors, dtype=np.float64), 1e-300))
    counts, edges = np.histogram(logs, bins=HISTOGRAM_BINS)
    return edges, counts


def error_map(model: DeepONetModel, data: OperatorDataset, sample: int) -> np.ndarray:
    """Columns (y coordinates..., |prediction - target|) for one sample."""
    pred = predict(model, data.f_matrix[sample], data.y_sensors)
    err = np.abs(pred - data.u_matrix[:, sample])
    return np.column_stack([data.y_sensors, err])


# ---------------------------------------------------------------------------
# Generalization sweep
# ---------------------------------------------------------------------------

# The examples a sweep family can generate (_family_dataset).
_FAMILY_EXAMPLES = ("ex1", "ex3")
# Each sweep axis and the SweepSettings field it varies.
SWEEP_AXES = {"K": "k_train", "N": "n_width", "m_y": "m_y"}


@dataclass
class SweepSettings:
    """Base configuration for one family of end-to-end two-step runs. The
    fields it shares with TrainConfig and ModelSpec default as there, but
    for the iteration counts."""

    example: str = "ex1"
    k_train: int = 50
    k_test: int = 25
    grid_n: int = 17
    beta_lo: float = 1.0
    beta_hi: float = 100.0
    n_width: int = 20
    trunk_hidden: tuple[int, ...] = (40, 40, 40)
    branch_hidden: tuple[int, ...] = (48,)
    activation: nn.Activation = ModelSpec.activation
    init_scheme: nn.InitScheme = ModelSpec.init
    iters_trunk: int = 2000
    iters_branch: int = 2000
    lr: float = TrainConfig.lr
    ls_refit_every: int = TrainConfig.ls_refit_every
    a_init_scale: float = TrainConfig.a_init_scale
    m_y: int | None = None
    base_seed: int = 0

    def validate(self) -> None:
        """Raise ValueError for settings no run can train with. Each message
        starts with the name of the offending field."""
        if self.example not in _FAMILY_EXAMPLES:
            raise ValueError(f"example must be one of {_FAMILY_EXAMPLES}, got {self.example!r}")
        for name in ("k_train", "k_test", "n_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.grid_n < 3:
            raise ValueError(f"grid_n must be >= 3, got {self.grid_n}")
        if self.example == "ex1":
            for name in ("beta_lo", "beta_hi"):
                value = getattr(self, name)
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("trunk_hidden", "branch_hidden"):
            if not all(w >= 1 for w in getattr(self, name)):
                raise ValueError(f"{name} must list positive widths, got {getattr(self, name)}")
        if self.activation not in nn.ACTIVATIONS:
            raise ValueError(f"activation must be one of {nn.ACTIVATIONS}, got {self.activation!r}")
        if self.init_scheme not in nn.INIT_SCHEMES:
            raise ValueError(f"init_scheme must be one of {nn.INIT_SCHEMES}, got {self.init_scheme!r}")
        if self.m_y is not None and not 1 <= self.m_y <= self.grid_n**2:
            raise ValueError(f"m_y must lie in [1, {self.grid_n**2}], got {self.m_y}")
        try:
            check_width(self.n_width, self.grid_n**2 if self.m_y is None else self.m_y)
        except ValueError as exc:
            raise ValueError(f"n_width {self.n_width}: {exc}") from exc
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        _train_config(self, self.base_seed).validate()


@dataclass
class SweepRow:
    value: int
    mean_rel_error: float
    std_rel_error: float
    replicate_errors: list[float]


@dataclass
class SweepTable:
    axis: str
    rows: list[SweepRow] = field(default_factory=list)

    def to_csv_text(self) -> str:
        """sweep.csv: one row per axis value, then its replicate errors."""
        n_reps = len(self.rows[0].replicate_errors) if self.rows else 0
        return csv_text(
            ["axis", "value", "mean_rel_error", "std_rel_error"]
            + [f"rep{i}" for i in range(n_reps)],
            (
                [self.axis, row.value, repr(row.mean_rel_error), repr(row.std_rel_error)]
                + [repr(e) for e in row.replicate_errors]
                for row in self.rows
            ),
        )


def _train_config(settings: SweepSettings, seed: int) -> TrainConfig:
    """The two-step training config of a run; its fields that SweepSettings
    also has take the same name there."""
    return TrainConfig(
        method="two_step",
        iters_trunk=settings.iters_trunk,
        iters_branch=settings.iters_branch,
        lr=settings.lr,
        seed=seed,
        a_init_scale=settings.a_init_scale,
        ls_refit_every=settings.ls_refit_every,
    )


def _family_dataset(settings: SweepSettings, seed: int) -> OperatorDataset:
    """Train/test data with a fixed, disjoint test section so that sweeps
    along K compare against the same held-out samples."""
    if settings.example == "ex1":
        train_inputs = np.linspace(settings.beta_lo, settings.beta_hi, settings.k_train)
        offsets = (np.arange(settings.k_test) + 0.5) / settings.k_test
        test_inputs = settings.beta_lo + (settings.beta_hi - settings.beta_lo) * offsets
        data = gen_example1(
            np.concatenate([train_inputs, test_inputs]), settings.grid_n, seed=seed
        )
    elif settings.example == "ex3":
        # The test section is drawn first, so it does not depend on k_train.
        rng = np.random.default_rng(settings.base_seed)
        test = rng.uniform(*TRIPLET_RANGE_EX3, size=(settings.k_test, 3))
        train = rng.uniform(*TRIPLET_RANGE_EX3, size=(settings.k_train, 3))
        data = gen_example3(np.round(np.concatenate([train, test]), 6), settings.grid_n, seed=seed)
    else:
        raise ValueError(f"no sweep family wired for example {settings.example!r}")
    data.train_idx = np.arange(settings.k_train)
    data.test_idx = np.arange(settings.k_train, settings.k_train + settings.k_test)
    data.validate()
    return data


def run_two_step_once(settings: SweepSettings, seed: int) -> float:
    """One end-to-end two-step run; returns the mean test relative error.

    When settings.m_y is set, training sees only that many randomly chosen
    output sensors, but the error is still measured on the full grid, so
    sensor-count effects show up as generalization error."""
    data = _family_dataset(settings, seed)
    if settings.m_y is not None:
        train_view = subsample_output_sensors(data, settings.m_y, seed=seed)
    else:
        train_view = data
    model = ModelSpec(
        trunk_arch=(data.d_y, *settings.trunk_hidden, settings.n_width),
        branch_arch=(data.m_x, *settings.branch_hidden, settings.n_width + 1),
        activation=settings.activation,
        init=settings.init_scheme,
    ).build(seed)
    model, _ = train_two_step(train_view, model, _train_config(settings, seed + 3))
    return evaluate_model(model, data).mean_rel_error


def sweep_runs(
    settings: SweepSettings, axis: str, values, replicates: int
) -> list[tuple[SweepSettings, int]]:
    """Every run of a sweep as (settings, seed), in table order: for each
    axis value, the settings with that value in the axis's field, then
    replicates fresh seeds. Raises ValueError, before any run, for a bad
    axis, values or replicate count, or for run settings that cannot
    train; the message of a bad setting starts with its field's name."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    values = [int(v) for v in values]
    if not values:
        raise ValueError("values must list at least one value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"values must be strictly increasing, got {values}")
    if replicates < 3:
        raise ValueError(f"need at least 3 replicates, got {replicates}")
    runs = []
    for i, value in enumerate(values):
        run_settings = replace(settings, **{SWEEP_AXES[axis]: value})
        run_settings.validate()
        for rep in range(replicates):
            runs.append((run_settings, settings.base_seed + 1000 * i + 10 * rep))
    return runs


def generalization_sweep(
    settings: SweepSettings,
    axis: str,
    values,
    replicates: int,
    max_workers: int | None = None,
) -> SweepTable:
    """Train two-step models end to end, one per run of sweep_runs, and
    tabulate mean/std test relative errors per axis value.

    The runs go to min(runs, cores) worker processes, or to max_workers
    when that is fewer. They compute with one BLAS thread each, so the
    table is the same at any worker count and on any core count. The
    workers are forked for this sweep and exit with it, so sweeps need the
    fork start method (Linux); Python 3.12 and later warn when a process
    forks while it holds other threads. A process that loaded numpy before operon spawns its workers
    instead, so only such a script needs the `if __name__ == "__main__":`
    guard. A failing sweep raises the error of its first failing run in
    table order."""
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    jobs = sweep_runs(settings, axis, values, replicates)

    # Imported here: at module level they add to every `import operon`.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # Forked workers inherit the one BLAS thread of a process whose numpy
    # operon loaded; one that loaded numpy first has its own BLAS threads,
    # so its workers are spawned and load numpy under operon's pin.
    method = "spawn" if _NUMPY_LOADED_FIRST else "fork"
    # The pool starts every worker at the first submit; more than the cores add nothing.
    width = min(len(jobs), len(os.sched_getaffinity(0)), max_workers or len(jobs))
    with ProcessPoolExecutor(width, mp_context=get_context(method)) as pool:
        # A run costs more the larger its axis value, so the largest start
        # first; results are read in job order.
        futures = [pool.submit(run_two_step_once, *job) for job in jobs[::-1]][::-1]
        try:
            errors = [future.result() for future in futures]
        except BaseException:
            # Runs not yet started are cancelled; running ones finish.
            pool.shutdown(cancel_futures=True)
            raise

    table = SweepTable(axis=axis)
    for start in range(0, len(jobs), replicates):
        row_errors = errors[start : start + replicates]
        arr = np.asarray(row_errors)
        table.rows.append(
            SweepRow(
                value=getattr(jobs[start][0], SWEEP_AXES[axis]),
                mean_rel_error=float(arr.mean()),
                std_rel_error=float(arr.std(ddof=1)),
                replicate_errors=row_errors,
            )
        )
    return table
