"""Explicit deep ReLU trunks that interpolate an SVD factor at the output
sensors, and the end-to-end zero-loss certificate built on them.

The trunk is nn.interpolating_relu at the sensors: one hat-bump block per
sensor, 2 m_y + 1 layers with hidden widths (4, 4, n~, ..., n~),
n~ = 2 N + 4. Its outputs at the sensors are an orthonormal basis W of the
leading left singular space Z_r of U (r = min(N, rank U)) with the
constant direction removed, followed by columns that complete [1, W] to
an orthonormal set. So the trunk basis [1, W, P] spans Z_r and keeps full
column rank at every width N < m_y, also when the constant function lies
in U's output space, as it does for the Darcy data. The certificate's
branch is the same kind of network at the training inputs
(train.fit_interpolating_branch). Both are evaluated by
nn.hat_stack_forward, which refuses a network whose params are not the
hat stack they encode and equals nn.forward byte for byte at the
construction points, the only points a certificate evaluates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .data import OperatorDataset
from .deeponet import assembled_loss, check_width, phi_from_values
from .nn import Mlp, hat_stack_forward, interpolating_relu
from .train import check_two_step_equivalence, fit_interpolating_branch, orthonormalize_phi


def build_interpolating_trunk(
    y_sensors, u, n_width: int, seed: int = 0
) -> tuple[Mlp, np.ndarray, linalg.SvdFactors]:
    """Build the deep ReLU trunk whose sensor values span the leading left
    singular space of u, along with the matching coefficient matrix and
    the SVD of u it used.

    Returns (trunk, a_star, svd). With r = min(N, rank(u)) and Z_r the
    first r left singular vectors, the trunk outputs at the sensors are
    (W, P): W an orthonormal basis of span(Z_r) minus its constant
    direction, and P completing [1, W] to N orthonormal columns (drawn
    from seed). a_star = Phi^+ Z_r diag(sigma_r) V_r^T, so Phi a_star is
    the best rank-r reconstruction of u.
    """
    if n_width < 1:
        raise ValueError(f"n_width must be >= 1, got {n_width}")
    y = np.ascontiguousarray(y_sensors, dtype=np.float64)
    u = linalg.as_matrix(u)
    m_y = y.shape[0]
    if u.shape[0] != m_y:
        raise ValueError(f"u rows {u.shape[0]} != sensor count {m_y}")
    check_width(n_width, m_y)

    svd = linalg.jacobi_svd(u)
    r = min(n_width, svd.rank)
    z = svd.u[:, :r]
    # Z_r has orthonormal columns, so the singular values of its centered
    # copy lie in [0, 1] and the cut is absolute. One of them vanishes
    # when the constant function lies in span(Z_r); all do when every
    # output column is constant.
    centered = z - z.mean(axis=0)
    values = np.zeros((m_y, 0))
    if np.any(centered):
        factors = linalg.jacobi_svd(centered)
        values = factors.u[:, factors.sigma > linalg.RANK_TOL]
    kept = values.shape[1]
    if n_width > kept:
        # The Q factor of [1, W, G] extends [1, W] by orthonormal columns.
        rng = np.random.default_rng(seed)
        stacked = np.hstack([np.ones((m_y, 1)), values, rng.normal(size=(m_y, n_width - kept))])
        values = np.hstack([values, linalg.householder_qr(stacked).q[:, kept + 1 :]])
    trunk = interpolating_relu(y, values, seed=seed)

    # Phi = [1, values] has orthogonal columns (norms sqrt(m_y), 1, ...),
    # so Phi^+ Z_r = [mean(Z_r); values^T Z_r].
    a_star = np.vstack([z.mean(axis=0), values.T @ z]) @ (
        svd.sigma[:r, None] * svd.v[:, :r].T
    )
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
    low-rank approximation error instead. The checks compare squared
    norms, so a nonzero U whose ||U||_F^2 is not a normal float64 (it
    overflows or underflows) raises ValueError before any work; an
    all-zero U raises ZeroMatrixError.
    """
    u_train = data.train_u()
    with np.errstate(over="ignore"):
        u_sq = float(np.sum(u_train * u_train))
    if np.any(u_train) and not np.finfo(float).tiny <= u_sq < np.inf:
        raise ValueError(
            f"||U_train||_F^2 is {u_sq:.3e}, outside the normal float64 range; "
            f"the certificate compares squared norms, so rescale U"
        )
    f_train = data.train_f()
    # One factorization of U serves the trunk, the rank and the
    # Eckart-Young bound.
    trunk, a_star, svd = build_interpolating_trunk(data.y_sensors, u_train, n_width, seed)
    rank = svd.rank
    m_y, k = u_train.shape

    # The trunk's values at the sensors and the branch's at the training
    # inputs are formed once each and serve every check below, so neither
    # network is kept once evaluated.
    phi = phi_from_values(hat_stack_forward(trunk, data.y_sensors))
    del trunk
    resid = phi @ a_star - u_train
    resid_sq = float(np.sum(resid * resid))
    ey = float(np.sum(svd.sigma[n_width:] ** 2))
    step1_loss = resid_sq / (m_y * k)

    t_star, target = orthonormalize_phi(phi, a_star)
    branch_loss, c = fit_interpolating_branch(f_train, target, seed=seed)[1:]
    # The finished model's monolithic_loss, from the two passes above.
    assembled = assembled_loss(phi @ t_star, c, u_train)
    equivalence = check_two_step_equivalence(data, assembled, step1_loss, branch_loss, target)

    zero_applicable = n_width >= rank
    zero_passed = bool(
        resid_sq <= ZERO_LOSS_TOL * u_sq
        and assembled <= ZERO_LOSS_TOL * u_sq / (m_y * k)
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
        assembled_loss=assembled,
        zero_loss_applicable=zero_applicable,
        zero_loss_passed=zero_passed,
        low_rank_applicable=low_applicable,
        low_rank_passed=low_passed,
        equivalence_applicable=equivalence.applicable,
        equivalence_passed=equivalence.passed,
    )
