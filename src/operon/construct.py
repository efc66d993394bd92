"""Explicit deep ReLU trunks that interpolate an SVD factor at the output
sensors, and the end-to-end zero-loss certificate built on them.

The construction projects the sensors onto a separating direction, rescales
so the closest projected pair is exactly 2 apart, and stacks one hat-bump
block per sensor. Each block is a 3-layer ReLU unit carrying the running
output vector through paired relu(t) - relu(-t) channels, so composing
m_y blocks (the first one also performs the projection) yields a network
of exactly 2 m_y + 1 layers with hidden widths (4, 4, n~, ..., n~),
n~ = 2 min(N, rank) + 4, whose outputs at sensor i are the i-th row of the
left singular factor padded with zeros.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .data import OperatorDataset, check_distinct_sensors
from .deeponet import DeepONetModel, assemble_phi
from .errors import DuplicateSensorError
from .nn import Mlp
from .train import check_two_step_equivalence, fit_interpolating_branch, orthonormalize

# Hat-bump building blocks: N(t) = A3 relu(A2 relu(A1 t + b1(a,b)) + b2) + b3
# equals 1 on [a, b], 0 outside [a - 1/2, b + 1/2], linear in between.
_A1 = np.array([[-2.0], [2.0]])
_A2 = -np.eye(2)
_B2 = np.ones(2)
_A3 = np.array([[1.0, 1.0]])
_B3 = -1.0
# Paired +/- channels pass a signed value through ReLU: relu(t) - relu(-t) = t.
_P = np.array([1.0, -1.0])


@dataclass
class SeparatingDirection:
    """Unit direction v and scale factor such that the projected sensors
    scale * v.T y are pairwise at least 2 apart."""

    v: np.ndarray
    scale: float


def find_separating_direction(y_sensors, seed: int = 0) -> SeparatingDirection:
    """Search random unit directions for the one with the largest minimum
    projected gap, then rescale that gap to exactly 2."""
    y = np.ascontiguousarray(y_sensors, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"sensors must be m_y x d_y, got shape {y.shape}")
    check_distinct_sensors(y)
    m_y, d_y = y.shape
    if m_y == 1:
        v = np.zeros(d_y)
        v[0] = 1.0
        return SeparatingDirection(v=v, scale=1.0)

    rng = np.random.default_rng(seed)
    n_trials = 1024
    dirs = rng.normal(size=(n_trials, d_y))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    projections = y @ dirs.T  # m_y x n_trials
    projections.sort(axis=0)
    gaps = np.min(np.diff(projections, axis=0), axis=0)
    best = int(np.argmax(gaps))
    if gaps[best] <= 0.0:
        raise DuplicateSensorError(
            "no sampled direction separates the sensors; two of them may "
            "coincide to machine precision"
        )
    return SeparatingDirection(v=dirs[best], scale=2.0 / float(gaps[best]))


def _entry_block(v_scaled: np.ndarray, a: float, b: float):
    """First block: project, start the hat stack, pass the projection on."""
    w1 = np.vstack([_A1 @ v_scaled[None, :], np.outer(_P, v_scaled)])
    b1 = np.array([2.0 * a, -2.0 * b, 0.0, 0.0])
    w2 = np.zeros((4, 4))
    w2[:2, :2] = _A2
    w2[2:, 2:] = np.eye(2)
    b2 = np.concatenate([_B2, np.zeros(2)])
    return (w1, b1), (w2, b2)


def _middle_block(r: int, a: float, b: float):
    """Inner block input map (takes (y, z) in R^{1+r}) and its mixing layer."""
    width = 2 * r + 4
    w_in = np.zeros((width, r + 1))
    w_in[:2, 0] = _A1[:, 0]
    w_in[2:4, 0] = _P
    for k in range(r):
        w_in[4 + 2 * k : 6 + 2 * k, 1 + k] = _P
    b_in = np.zeros(width)
    b_in[0] = 2.0 * a
    b_in[1] = -2.0 * b
    w_mid = np.eye(width)
    w_mid[:2, :2] = _A2
    b_mid = np.zeros(width)
    b_mid[:2] = _B2
    return (w_in, b_in), (w_mid, b_mid)


def _output_map(r: int, width: int, coeff: np.ndarray):
    """Map a block's second hidden layer to (y, z + coeff * hat).

    The entry block (width 4) carries no z channels yet, so its output is
    (y, coeff * hat) and the passthrough columns are absent."""
    w = np.zeros((r + 1, width))
    w[0, 2] = 1.0
    w[0, 3] = -1.0
    w[1:, :2] = np.outer(coeff, _A3)
    if width > 4:
        for k in range(r):
            w[1 + k, 4 + 2 * k] = 1.0
            w[1 + k, 5 + 2 * k] = -1.0
    b = np.concatenate([[0.0], _B3 * coeff])
    return w, b


def build_interpolating_trunk(
    y_sensors, u, n_width: int, seed: int = 0
) -> tuple[Mlp, np.ndarray]:
    """Build the deep ReLU trunk whose sensor values reproduce the left
    singular factor of u, along with the matching coefficient matrix.

    Returns (trunk, a_star): the trunk outputs at sensor i equal
    (Z_i1, ..., Z_ir~, 0, ..., 0) with r~ = min(n_width, rank(u)), and
    a_star stacks a zero row over diag(sigma) V^T (zero padded), so
    Phi a_star is the best rank-r~ reconstruction of u.
    """
    trunk, a_star, _ = _build_trunk(y_sensors, u, n_width, seed)
    return trunk, a_star


def _build_trunk(
    y_sensors, u, n_width: int, seed: int
) -> tuple[Mlp, np.ndarray, linalg.SvdFactors]:
    """build_interpolating_trunk, also returning the SVD of u it used."""
    if n_width < 1:
        raise ValueError(f"n_width must be >= 1, got {n_width}")
    y = np.ascontiguousarray(y_sensors, dtype=np.float64)
    u = linalg.as_matrix(u)
    m_y = y.shape[0]
    if u.shape[0] != m_y:
        raise ValueError(f"u rows {u.shape[0]} != sensor count {m_y}")

    svd = linalg.jacobi_svd(u)
    r = min(n_width, svd.rank)

    direction = find_separating_direction(y, seed=seed)
    v_scaled = direction.scale * direction.v
    projected = y @ v_scaled
    order = np.argsort(projected, kind="stable")
    # Center each hat's plateau on its sensor so evaluation is insensitive
    # to last-ulp differences in the projection.
    centers = projected[order]
    coeffs = svd.u[order, :r]

    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    (w1, b1), (w2, b2) = _entry_block(v_scaled, centers[0] - 0.25, centers[0] + 0.25)
    weights += [w1, w2]
    biases += [b1, b2]
    out_w, out_b = _output_map(r, 4, coeffs[0])

    width = 2 * r + 4
    for j in range(1, m_y):
        (w_in, b_in), (w_mid, b_mid) = _middle_block(
            r, centers[j] - 0.25, centers[j] + 0.25
        )
        # The previous block's affine output fuses with this block's affine
        # input: no activation sits between them.
        weights.append(w_in @ out_w)
        biases.append(w_in @ out_b + b_in)
        weights.append(w_mid)
        biases.append(b_mid)
        out_w, out_b = _output_map(r, width, coeffs[j])

    proj = np.zeros((n_width, r + 1))
    proj[:r, 1:] = np.eye(r)
    weights.append(proj @ out_w)
    biases.append(proj @ out_b)

    arch = tuple(w.shape[1] for w in weights) + (n_width,)
    trunk = Mlp(arch=arch, weights=weights, biases=biases, activation="relu")

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
    QR orthonormalization, least-squares interpolating branch, assembly.

    With n_width >= rank(U) the assembled loss must vanish (up to
    ZERO_LOSS_TOL relative); below the rank it must match the best
    low-rank approximation error instead.
    """
    u_train = data.train_u()
    f_train = data.train_f()
    # One factorization of U serves the trunk, the rank and the
    # Eckart-Young bound.
    trunk, a_star, svd = _build_trunk(data.y_sensors, u_train, n_width, seed)
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
