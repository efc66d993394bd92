"""Explicit deep ReLU trunks that interpolate an SVD factor at the output
sensors, and the end-to-end zero-loss certificate built on them.

The trunk is nn.interpolating_relu at the sensors: one hat-bump block per
sensor, 2 m_y + 1 layers with hidden widths (4, 4, n~, ..., n~),
n~ = 2 N + 4. Its outputs at sensor i are the i-th row of the left
singular factor Z_r of U (r = min(N, rank U)) followed, for N > rank U, by
columns that complete [1, Z_r] to an orthonormal set at the sensors, so
the trunk basis keeps full column rank at every width N < m_y. The
certificate's branch is the same kind of network at the training inputs
(train.fit_interpolating_branch).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .data import OperatorDataset
from .deeponet import DeepONetModel, assemble_phi
from .errors import RankDeficientError
# SeparatingDirection and find_separating_direction stay importable from here.
from .nn import Mlp, SeparatingDirection, find_separating_direction, interpolating_relu
from .train import check_two_step_equivalence, fit_interpolating_branch, orthonormalize


def build_interpolating_trunk(
    y_sensors, u, n_width: int, seed: int = 0
) -> tuple[Mlp, np.ndarray, linalg.SvdFactors]:
    """Build the deep ReLU trunk whose sensor values reproduce the left
    singular factor of u, along with the matching coefficient matrix and
    the SVD of u it used.

    Returns (trunk, a_star, svd): the trunk outputs at sensor i equal
    (Z_i1, ..., Z_ir, P_i1, ..., P_i(N-r)) with r = min(N, rank(u)) and P
    completing [1, Z_r] to orthonormal columns (drawn from seed), and
    a_star stacks a zero row over diag(sigma) V^T, zero padded, so
    Phi a_star is the best rank-r reconstruction of u.
    """
    if n_width < 1:
        raise ValueError(f"n_width must be >= 1, got {n_width}")
    y = np.ascontiguousarray(y_sensors, dtype=np.float64)
    u = linalg.as_matrix(u)
    m_y = y.shape[0]
    if u.shape[0] != m_y:
        raise ValueError(f"u rows {u.shape[0]} != sensor count {m_y}")
    if n_width + 1 > m_y:
        raise ValueError(
            f"width+1 ({n_width + 1}) must not exceed the number of output "
            f"sensors ({m_y})"
        )

    svd = linalg.jacobi_svd(u)
    r = min(n_width, svd.rank)
    values = svd.u[:, :r]
    # Phi = [1, trunk] has full column rank only if the constant is off
    # span(Z_r); the bound is householder_qr's dependency test on [1, Z_r].
    off_span = linalg.frobenius(1.0 - values @ np.sum(values, axis=0))
    if off_span <= linalg.RANK_TOL * np.sqrt(m_y + r):
        raise RankDeficientError(
            f"the constant function lies in U's leading output space (distance "
            f"{off_span:.3e} from the span of the first {r} left singular "
            f"vectors), so the trunk basis [1, Z] is dependent at width N={n_width}"
        )
    if n_width > r:
        # Zero padding would make Phi's columns dependent; the Q factor of
        # [1, Z_r, G] extends [1, Z_r] by orthonormal columns instead.
        rng = np.random.default_rng(seed)
        stacked = np.hstack([np.ones((m_y, 1)), values, rng.normal(size=(m_y, n_width - r))])
        values = np.hstack([values, linalg.householder_qr(stacked).q[:, r + 1 :]])
    trunk = interpolating_relu(y, values, seed=seed)

    a_star = np.zeros((n_width + 1, u.shape[1]))
    a_star[1 : r + 1] = svd.sigma[:r, None] * svd.v[:, :r].T
    return trunk, a_star, svd


@dataclass
class ZeroLossCertificate:
    """Losses and pass flags for the constructive interpolation pipeline."""

    n_width: int
    rank: int
    trunk_residual_sq: float
    u_norm_sq: float
    eckart_young_bound: float
    step1_loss: float
    branch_loss: float
    assembled_loss: float
    zero_loss_applicable: bool
    zero_loss_passed: bool
    low_rank_applicable: bool
    low_rank_passed: bool
    equivalence_applicable: bool
    equivalence_passed: bool

    @property
    def passed(self) -> bool:
        checks = []
        if self.zero_loss_applicable:
            checks.append(self.zero_loss_passed)
        if self.low_rank_applicable:
            checks.append(self.low_rank_passed)
        if self.equivalence_applicable:
            checks.append(self.equivalence_passed)
        return bool(checks) and all(checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


ZERO_LOSS_TOL = 1e-8  # trunk residual and assembled loss, relative to ||U||^2
LOW_RANK_TOL = 1e-6  # agreement with the best low-rank error, relative


def verify_zero_loss_pipeline(
    data: OperatorDataset, n_width: int, seed: int = 0
) -> ZeroLossCertificate:
    """Run the constructive pipeline end to end: interpolating trunk,
    QR orthonormalization, interpolating branch, assembly.

    With n_width >= rank(U) the assembled loss must vanish (up to
    ZERO_LOSS_TOL relative); below the rank it must match the best
    low-rank approximation error instead.
    """
    u_train = data.train_u()
    f_train = data.train_f()
    # One factorization of U serves the trunk, the rank and the
    # Eckart-Young bound.
    trunk, a_star, svd = build_interpolating_trunk(data.y_sensors, u_train, n_width, seed)
    rank = svd.rank
    m_y, k = u_train.shape

    phi = assemble_phi(trunk, data.y_sensors)
    resid = phi @ a_star - u_train
    resid_sq = float(np.sum(resid * resid))
    u_sq = float(np.sum(u_train * u_train))
    ey = float(np.sum(svd.sigma[n_width:] ** 2))
    step1_loss = resid_sq / (m_y * k)

    t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
    branch, branch_loss = fit_interpolating_branch(f_train, target, seed=seed)
    model = DeepONetModel(trunk=trunk, branch=branch, t_matrix=t_star, width=n_width)
    equivalence = check_two_step_equivalence(
        data, model, step1_loss, branch_loss, target
    )

    zero_applicable = n_width >= rank
    zero_passed = bool(
        resid_sq <= ZERO_LOSS_TOL * u_sq
        and equivalence.assembled_loss <= ZERO_LOSS_TOL * u_sq / (m_y * k)
    )
    low_applicable = n_width < rank
    low_passed = bool(abs(resid_sq - ey) <= LOW_RANK_TOL * ey + 1e-12 * u_sq)

    return ZeroLossCertificate(
        n_width=n_width,
        rank=rank,
        trunk_residual_sq=resid_sq,
        u_norm_sq=u_sq,
        eckart_young_bound=ey,
        step1_loss=step1_loss,
        branch_loss=branch_loss,
        assembled_loss=equivalence.assembled_loss,
        zero_loss_applicable=zero_applicable,
        zero_loss_passed=zero_passed,
        low_rank_applicable=low_applicable,
        low_rank_passed=low_passed,
        equivalence_applicable=equivalence.applicable,
        equivalence_passed=equivalence.passed,
    )
