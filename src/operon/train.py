"""Training procedures: monolithic joint descent (van), the two-step
method with trunk-basis orthonormalization (two_step), and its ablation
without the QR step (two_step_no_qr).

Step 1 trains the trunk jointly with a free coefficient matrix A on
||Phi(mu) A - U||_F^2 / (K m_y). Step 2 regresses the branch onto the
orthonormalized coefficients R A (or raw A for the ablation) under
||C(theta) - target||_F^2 / K.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg, nn
from .artifact import csv_text, json_text
from .data import OperatorDataset
from .deeponet import (
    DeepONetModel,
    FitWork,
    MonolithicWork,
    assemble_c,
    assemble_phi,
    assembled_loss,
    check_width,
    fit_loss_and_grads,
    monolithic_loss,
    monolithic_loss_and_grads,
)
from .errors import DuplicateSensorError, NonFiniteGradientError, RankDeficientError
from .nn import Mlp
from .optimize import AdamState, adam_step

# Each TrainConfig.method and its name in `operon train --method` and report.json.
METHODS = {"van": "van", "two_step": "2st", "two_step_no_qr": "2st-noqr"}
_TWO_STEP = ("two_step", "two_step_no_qr")
# Standard deviation of the normal draws that start step 1's free matrix A.
A_INIT_SCALE = 0.1


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when made (also by dataclasses.replace)."""

    method: str = "two_step"
    iters_trunk: int = 1000
    iters_branch: int = 1000
    iters_mono: int = 1000
    lr: float = 1e-3
    schedule_factor: float | None = None
    schedule_every: int | None = None
    seed: int = 0
    ls_refit_every: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        for name in ("iters_trunk", "iters_branch", "iters_mono"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if (self.schedule_factor is None) != (self.schedule_every is None):
            raise ValueError("schedule_factor and schedule_every must be set together")
        if self.schedule_factor is not None:
            factor_ok = math.isfinite(self.schedule_factor) and self.schedule_factor > 1.0
            if not factor_ok or self.schedule_every < 1:
                raise ValueError("schedule needs a finite factor > 1 and every >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.ls_refit_every < 0:
            raise ValueError("ls_refit_every must be >= 0")

    def lr_at(self, t: int) -> float:
        """Learning rate after t steps: lr / schedule_factor**floor(t /
        schedule_every), or 0.0, its limit, once that power leaves the
        float range; lr itself without a schedule."""
        if self.schedule_factor is None:
            return self.lr
        try:
            return self.lr / self.schedule_factor ** (t // self.schedule_every)
        except OverflowError:
            return 0.0


@dataclass
class TrainReport:
    method: str
    loss_trace: list[float]
    branch_trace: list[float] | None
    final_trunk_loss: float | None
    final_branch_loss: float | None
    final_monolithic_loss: float
    wall_seconds: float


def report_files(report: TrainReport) -> dict:
    """report.json with the scalar fields, plus one iter,loss CSV per loss
    trace: trace_mono.csv for van, trace_trunk.csv and trace_branch.csv
    for the two-step methods."""
    fields = asdict(report)
    traces = {
        "trace_mono.csv" if report.method == "van" else "trace_trunk.csv": fields.pop("loss_trace"),
        "trace_branch.csv": fields.pop("branch_trace"),
    }
    files = {"report.json": json_text(fields)}
    for name, trace in traces.items():
        if trace is not None:
            files[name] = csv_text(["iter", "loss"], ([i, repr(v)] for i, v in enumerate(trace)))
    return files


def _adam_loop(
    step, params: list[np.ndarray], grads: list[np.ndarray], iters: int, cfg: TrainConfig
) -> list[float]:
    """Full-batch Adam on the arrays in params for iters iterations.
    step(t) writes the gradient at the current parameters into grads, one
    array per parameter array, and returns the loss, for iteration
    t = 1..iters; returns the trace of those losses. A loss or gradient
    that is not finite aborts the run with NonFiniteGradientError, so
    numpy's overflow and invalid-value warnings are silenced inside. The
    optimizer state is freed on return, before the caller's _final_loss."""
    state = AdamState.for_params(params, lr=cfg.lr)
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, iters + 1):
            loss = step(t)
            trace.append(loss)
            state.lr = cfg.lr_at(state.t)
            try:
                if not math.isfinite(loss):
                    raise NonFiniteGradientError(f"loss is {loss}")
                adam_step(params, grads, state)
            except NonFiniteGradientError as exc:
                raise NonFiniteGradientError(f"{exc} (at iteration {t})") from exc
    return trace


def _final_loss(final, iters: int) -> tuple[float, object]:
    """final(), the one evaluation (loss, value) after the last of iters
    updates, with numpy's warnings silenced as in _adam_loop; a loss that
    is not finite aborts the run with NonFiniteGradientError."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss, value = final()
    if not math.isfinite(loss):
        raise NonFiniteGradientError(f"loss is {loss} after the last update (iteration {iters})")
    return loss, value


def _check_start(model: DeepONetModel, cfg: TrainConfig, methods: tuple[str, ...]) -> None:
    """Raise ValueError unless cfg.method is one of methods and the model has no T."""
    if cfg.method not in methods:
        raise ValueError(f"method {cfg.method!r} is not one this trainer runs: {methods}")
    if model.t_matrix is not None:
        raise ValueError("training starts from a model without T")


def train_monolithic(
    data: OperatorDataset, model: DeepONetModel, cfg: TrainConfig
) -> tuple[DeepONetModel, TrainReport]:
    """Full-batch Adam on trunk and branch jointly (method van)."""
    _check_start(model, cfg, ("van",))
    start = time.perf_counter()
    f_train, u_train = data.train_f(), np.ascontiguousarray(data.train_u())
    m_y, k = u_train.shape
    work = MonolithicWork(model, k, m_y)

    def step(t):
        return monolithic_loss_and_grads(model, f_train, u_train, data.y_sensors, work)

    trace = _adam_loop(
        step, [model.trunk.params, model.branch.params],
        [work.fit.trunk.grad, work.branch.grad], cfg.iters_mono, cfg,
    )
    final, _ = _final_loss(lambda: (monolithic_loss(model, data), None), cfg.iters_mono)
    report = TrainReport(
        method=METHODS[cfg.method],
        loss_trace=trace,
        branch_trace=None,
        final_trunk_loss=None,
        final_branch_loss=None,
        final_monolithic_loss=final,
        wall_seconds=time.perf_counter() - start,
    )
    return model, report


def train_trunk_step1(
    data: OperatorDataset, trunk: Mlp, cfg: TrainConfig
) -> tuple[Mlp, np.ndarray, np.ndarray, float, list[float]]:
    """Minimize ||Phi(mu) A - U||_F^2/(K m_y) over trunk parameters and the
    free matrix A. Returns (trunk, a_star, phi, final_loss, trace) with phi
    the trained trunk's value matrix at the sensors (assemble_phi).

    With cfg.ls_refit_every = r > 0, A is replaced by the exact
    least-squares solution every r iterations (and once more after the
    final trunk update)."""
    # train_u() is an F-ordered fancy-index copy; the residual subtraction
    # in every step runs about 3x faster against a C-ordered one.
    u_train = np.ascontiguousarray(data.train_u())
    m_y, k = u_train.shape
    n_width = trunk.arch[-1]
    check_width(n_width, m_y)
    rng = np.random.default_rng(cfg.seed)
    a = rng.normal(0.0, A_INIT_SCALE, size=(n_width + 1, k))
    a_g = np.empty_like(a)
    work = FitWork(trunk, k, m_y)

    def refit(phi):
        # A trunk pushed out of the float range gets no refit; its loss is not finite.
        if np.all(np.isfinite(phi)):
            a[...] = linalg.least_squares(phi, u_train)

    def step(t):
        nn.forward(trunk, data.y_sensors, work.trunk)
        if cfg.ls_refit_every > 0 and (t - 1) % cfg.ls_refit_every == 0:
            refit(work.phi)
        return fit_loss_and_grads(trunk, data.y_sensors, a, u_train, a_g, work)

    def final():
        phi = assemble_phi(trunk, data.y_sensors)
        if cfg.ls_refit_every > 0:
            refit(phi)
        return assembled_loss(phi, a, u_train), phi

    params, grads = [trunk.params, a], [work.trunk.grad, a_g]
    trace = _adam_loop(step, params, grads, cfg.iters_trunk, cfg)
    loss, phi = _final_loss(final, cfg.iters_trunk)
    return trunk, a, phi, loss, trace


def orthonormalize(
    trunk: Mlp, a_star: np.ndarray, y_sensors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """orthonormalize_phi on the trunk's value matrix at the training sensors."""
    return orthonormalize_phi(assemble_phi(trunk, y_sensors), a_star)


def orthonormalize_phi(phi: np.ndarray, a_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR-orthonormalize a trunk value matrix Phi (assemble_phi).

    Returns (t_star, target) where t_star is the inverse of the triangular
    factor (materialized by triangular solves) and target = R A is what
    the branch regresses on."""
    try:
        qr = linalg.householder_qr(phi)
    except RankDeficientError as exc:
        raise RankDeficientError(
            f"{exc}; the trunk basis is numerically dependent on the training "
            f"sensors - reduce the width N or add output sensors"
        ) from exc
    n1 = phi.shape[1]
    t_star = linalg.solve_upper_triangular(qr.r, np.eye(n1))
    target = qr.r @ a_star
    return t_star, target


def train_branch_step2(
    f_inputs: np.ndarray, target: np.ndarray, branch: Mlp, cfg: TrainConfig
) -> tuple[Mlp, float, np.ndarray, list[float]]:
    """Fit the branch to the step-1 coefficients:
    minimize ||C(theta) - target||_F^2 / K by full-batch Adam. Returns
    (branch, final_loss, c, trace) with c the trained branch's coefficient
    matrix at the inputs (assemble_c)."""
    n1, k = target.shape
    if branch.arch[-1] != n1:
        raise ValueError(f"branch output {branch.arch[-1]} != target rows {n1}")

    work = nn.Workspace(branch, k)
    diff, upstream = np.empty((n1, k)), np.empty((k, n1))

    def step(t):
        np.subtract(nn.forward(branch, f_inputs, work).T, target, out=diff)
        np.multiply(diff.T, 2.0 / k, out=upstream)
        nn.backward(branch, f_inputs, upstream, work)
        np.multiply(diff, diff, out=diff)
        return float(np.sum(diff)) / k

    def final():
        c = assemble_c(branch, f_inputs)
        diff = c - target
        return float(np.sum(diff * diff)) / k, c

    trace = _adam_loop(step, [branch.params], [work.grad], cfg.iters_branch, cfg)
    loss, c = _final_loss(final, cfg.iters_branch)
    return branch, loss, c, trace


def train_two_step(
    data: OperatorDataset, model: DeepONetModel, cfg: TrainConfig
) -> tuple[DeepONetModel, TrainReport]:
    """Step 1 on model.trunk, then finish_two_step."""
    _check_start(model, cfg, _TWO_STEP)
    start = time.perf_counter()
    step1 = train_trunk_step1(data, model.trunk, cfg)
    model, report = finish_two_step(data, model, step1, cfg)
    report.wall_seconds = time.perf_counter() - start
    return model, report


def finish_two_step(
    data: OperatorDataset, model: DeepONetModel, step1: tuple, cfg: TrainConfig
) -> tuple[DeepONetModel, TrainReport]:
    """Orthonormalization of step 1's Phi (skipped for the no-QR ablation,
    where target = A and T = I), then step 2 on model.branch; the final
    loss assembles that Phi and step 2's C. step1 is what train_trunk_step1
    returned; its trunk becomes model.trunk and none of it is modified, so
    one step 1 can be finished several ways."""
    _check_start(model, cfg, _TWO_STEP)
    start = time.perf_counter()
    trunk, a_star, phi, trunk_loss, trunk_trace = step1
    if cfg.method == "two_step_no_qr":
        t_star, target = np.eye(model.width + 1), a_star
    else:
        t_star, target = orthonormalize_phi(phi, a_star)
    _, branch_loss, c, branch_trace = train_branch_step2(data.train_f(), target, model.branch, cfg)
    model.trunk, model.t_matrix = trunk, t_star
    final, _ = _final_loss(
        lambda: (assembled_loss(phi @ t_star, c, data.train_u()), None), cfg.iters_branch
    )
    report = TrainReport(
        method=METHODS[cfg.method],
        loss_trace=trunk_trace,
        branch_trace=branch_trace,
        final_trunk_loss=trunk_loss,
        final_branch_loss=branch_loss,
        final_monolithic_loss=final,
        wall_seconds=time.perf_counter() - start,
    )
    return model, report


def fit_interpolating_branch(
    f_inputs: np.ndarray, target: np.ndarray, seed: int = 0
) -> tuple[Mlp, float, np.ndarray]:
    """Construct the deep ReLU branch whose output at training input k is
    column k of the step-2 target (nn.interpolating_relu), so the fit
    interpolates up to rounding. Returns (branch, loss, c) with c the
    branch's coefficient matrix at the inputs (assemble_c).

    Duplicate inputs raise DuplicateSensorError: no function takes two
    different targets at one input."""
    f_inputs = np.ascontiguousarray(f_inputs, dtype=np.float64)
    k = f_inputs.shape[0]
    if target.shape[1] != k:
        raise ValueError(f"target columns {target.shape[1]} != K {k}")
    try:
        branch = nn.interpolating_relu(f_inputs, target.T, seed=seed)
    except DuplicateSensorError as exc:
        raise DuplicateSensorError(
            f"training inputs repeat, and no branch takes two targets at one input: {exc}"
        ) from exc
    c = assemble_c(branch, f_inputs)
    diff = c - target
    return branch, float(np.sum(diff * diff)) / k, c


@dataclass
class EquivalenceCheck:
    """Machine check that the assembled two-step loss reproduces the step-1
    loss once the branch interpolates its target."""

    applicable: bool
    passed: bool
    step1_loss: float
    assembled_loss: float
    gap: float
    tolerance: float


def check_two_step_equivalence(
    data: OperatorDataset,
    assembled: float,
    step1_loss: float,
    step2_loss: float,
    target: np.ndarray,
) -> EquivalenceCheck:
    """The identity Phi T (R A) = Phi A makes the assembled loss (the
    finished model's monolithic_loss on data) equal the step-1 loss
    whenever step 2 interpolates exactly.

    Applicability requires the relative step-2 residual below 1e-14. A
    branch residual E perturbs the assembled residual by Q E with Q
    orthonormal, so the loss gap is rigorously bounded by
    2 sqrt(step1 * e2) + e2 with e2 = ||E||^2/(K m_y); the tolerance is
    that bound plus 1e-9 relative and a float-rounding cushion."""
    u_train = data.train_u()
    m_y, k = u_train.shape
    data_scale = float(np.sum(u_train * u_train)) / (m_y * k)
    target_scale = float(np.sum(target * target))
    step2_resid_sq = step2_loss * k  # undo the 1/K normalization
    applicable = target_scale > 0.0 and step2_resid_sq <= 1e-14 * target_scale
    gap = abs(assembled - step1_loss)
    induced = step2_resid_sq / (m_y * k)
    tolerance = (
        1e-9 * step1_loss
        + 2.0 * np.sqrt(step1_loss * induced)
        + induced
        + 1e-24 * data_scale
    )
    return EquivalenceCheck(
        applicable=bool(applicable),
        passed=bool(gap <= tolerance),
        step1_loss=step1_loss,
        assembled_loss=assembled,
        gap=gap,
        tolerance=float(tolerance),
    )
