"""Synthetic Darcy-flow datasets on the square (-1,1)^2.

Output fields are produced by a 5-point finite-difference Poisson solver.
The nonlinear conductivity cases (kappa * p) are reduced to a linear solve
through the substitution w = p^2, which is exact whenever p > 0. The
linear systems go through one preconditioned conjugate gradient that
solves a stack of them in lockstep. ex2 solves its betas as such stacks,
preconditioned by its operator at beta = 1, which fast diagonalization
inverts exactly (Concus & Golub 1973; Lynch, Rice & Thomas 1964), so its
iterations hardly grow with the grid; the Poisson solves of ex1 and ex3,
whose diagonal is the constant 4, keep the iterates of plain CG.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifact import (
    DTYPE,
    blob,
    check_fields,
    is_int,
    is_positive_int,
    json_text,
    read_blob,
    read_manifest,
    write_artifact,
)
from .errors import (
    CorruptDatasetError,
    DuplicateSensorError,
    NegativeSubstitutionError,
    ShapeError,
    SolverError,
)
from .linalg import check_distinct_sensors

BETA_RANGE_EX1 = (1.0, 1000.0)
BETA_RANGE_EX2 = (0.01, 10.0)
TRIPLET_RANGE_EX3 = (0.1, 10.0)


@dataclass(frozen=True)
class OperatorDataset:
    """Sensor locations plus paired input/output samples.

    f_matrix is K x m_x (one input representation per row) and u_matrix is
    m_y x K (one output column per sample). The train/test split is a pair
    of disjoint, non-empty index arrays covering 0..K-1; when absent,
    everything is treated as training data. A dataset checks these rules
    when it is made, also by dataclasses.replace, and raises ShapeError,
    DuplicateSensorError or ValueError for one that breaks them.
    """

    x_sensors: np.ndarray
    y_sensors: np.ndarray
    f_matrix: np.ndarray
    u_matrix: np.ndarray
    train_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def m_x(self) -> int:
        return self.x_sensors.shape[0]

    @property
    def m_y(self) -> int:
        return self.y_sensors.shape[0]

    @property
    def n_samples(self) -> int:
        return self.f_matrix.shape[0]

    @property
    def d_y(self) -> int:
        return self.y_sensors.shape[1]

    def __post_init__(self) -> None:
        k = self.n_samples
        if self.f_matrix.shape != (k, self.m_x):
            raise ShapeError(
                f"f_matrix shape {self.f_matrix.shape} != (K, m_x) ({k}, {self.m_x})"
            )
        if self.u_matrix.shape != (self.m_y, k):
            raise ShapeError(
                f"u_matrix shape {self.u_matrix.shape} != (m_y, K) ({self.m_y}, {k})"
            )
        check_distinct_sensors(self.y_sensors)
        if (self.train_idx is None) != (self.test_idx is None):
            raise ValueError("train/test indices must be set together")
        if self.train_idx is not None:
            combined = np.concatenate([self.train_idx, self.test_idx])
            if combined.size != k or set(combined.tolist()) != set(range(k)):
                raise ValueError("split must partition 0..K-1")
            check_split_sides(self.train_idx.size, self.test_idx.size)

    def _train_indices(self) -> np.ndarray:
        if self.train_idx is None:
            return np.arange(self.n_samples)
        return self.train_idx

    def train_f(self) -> np.ndarray:
        return self.f_matrix[self._train_indices()]

    def train_u(self) -> np.ndarray:
        return self.u_matrix[:, self._train_indices()]


def grid_coordinates(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates of the uniform grid_n x grid_n mesh on [-1,1]^2,
    flattened row-major (y index outer), as (nodes x 2, axis). Every
    generator's finite-difference stencil needs grid_n >= 3."""
    if grid_n < 3:
        raise ValueError(f"grid_n must be >= 3, got {grid_n}")
    axis = np.linspace(-1.0, 1.0, grid_n)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    return nodes, axis


def _as_grid_field(values, axis: np.ndarray) -> np.ndarray:
    """Evaluate f, a callable of (x, y) or a scalar, on the tensor grid."""
    n = axis.size
    if not callable(values):
        return np.full((n, n), float(values))
    # 'xy' meshgrid puts x along columns, so the result is [iy, ix].
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    return np.asarray(values(xx, yy), dtype=np.float64) * np.ones((n, n))


def solve_poisson_fd(grid_n: int, f_values, g_boundary) -> np.ndarray:
    """Solve lap(w) = f on (-1,1)^2 with w = g on the boundary.

    Uses the standard 5-point stencil on a uniform grid_n x grid_n mesh and
    conjugate gradients on the interior unknowns. Returns the full grid
    as an array indexed [iy, ix].
    """
    _, axis = grid_coordinates(grid_n)
    h = axis[1] - axis[0]
    f = _as_grid_field(f_values, axis)
    g = _as_grid_field(g_boundary, axis)

    w = np.zeros((grid_n, grid_n))
    w[0, :] = g[0, :]
    w[-1, :] = g[-1, :]
    w[:, 0] = g[:, 0]
    w[:, -1] = g[:, -1]

    inner = slice(1, -1)
    rhs = -(h * h) * f[inner, inner]
    rhs[0, :] += w[0, 1:-1]
    rhs[-1, :] += w[-1, 1:-1]
    rhs[:, 0] += w[1:-1, 0]
    rhs[:, -1] += w[1:-1, -1]

    def apply_op(u: np.ndarray) -> np.ndarray:
        # 4u - sum of interior neighbours (boundary terms live in rhs).
        out = 4.0 * u
        out[..., 1:, :] -= u[..., :-1, :]
        out[..., :-1, :] -= u[..., 1:, :]
        out[..., :, 1:] -= u[..., :, :-1]
        out[..., :, :-1] -= u[..., :, 1:]
        return out

    # The diagonal is 4 throughout, and its exact inverse 1/4 leaves every
    # iterate that of plain CG.
    w[inner, inner] = _conjugate_gradient(lambda systems: (apply_op, lambda r: r * 0.25), rhs[None])[0]
    return w


def _row_sums(x: np.ndarray) -> np.ndarray:
    # Pairwise sum over each system's contiguous block: the order np.sum
    # takes on one system, so a system's numbers do not depend on its stack.
    return x.reshape(x.shape[0], -1).sum(axis=1)


# CG stops once a system's residual norm is at most CG_RTOL times
# max(1, the norm of its right-hand side).
CG_RTOL = 1e-12


def _conjugate_gradient(operator, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of independent SPD systems A_b u_b = rhs[b] in lockstep
    by preconditioned conjugate gradients (Saad, Iterative Methods for
    Sparse Linear Systems, 2nd ed., SIAM 2003, chapter 9).

    operator(systems) returns (apply_op, precondition) for the listed
    systems (indices into the stack): apply_op applies their operators, and
    precondition the inverses of their SPD preconditioners, to a stack of
    vectors shaped like theirs in rhs. Each system runs the preconditioned
    recurrence on its own numbers and leaves the stack once its
    unpreconditioned residual meets its tolerance; operator is called again
    only then. A precondition that multiplies by one power of two (1/4 for
    the 5-point Laplacian) gives the iterates of plain CG bit for bit. A
    failing system raises SolverError carrying its index.
    """
    per_system = (slice(None),) + (None,) * (rhs.ndim - 1)
    systems = np.arange(rhs.shape[0])
    apply_op, precondition = operator(systems)
    solution = np.zeros_like(rhs)
    u = np.zeros_like(rhs)
    r = rhs - apply_op(u)
    p = precondition(r)
    rr = _row_sums(r * r)
    rz = _row_sums(r * p)
    target = CG_RTOL * np.maximum(1.0, np.sqrt(_row_sums(rhs * rhs)))
    max_iter = 20 * rhs[0].size + 100
    for iteration in range(max_iter + 1):
        done = np.sqrt(rr) <= target
        if done.any():
            solution[systems[done]] = u[done]
            keep = ~done
            if not keep.any():
                return solution
            systems, u, r, p, rr, rz, target = (
                a[keep] for a in (systems, u, r, p, rr, rz, target)
            )
            apply_op, precondition = operator(systems)
        if iteration == max_iter:
            raise SolverError(
                f"conjugate gradient stalled at residual {np.sqrt(rr[0]):.3e}",
                system=int(systems[0]),
            )
        ap = apply_op(p)
        curvature = _row_sums(p * ap)
        if not np.all(curvature > 0.0):
            i = int(np.argmin(curvature > 0.0))
            raise SolverError(
                f"operator is not positive definite (p.Ap = {curvature[i]:.3e})",
                system=int(systems[i]),
            )
        alpha = rz / curvature
        u += alpha[per_system] * p
        r -= alpha[per_system] * ap
        rr = _row_sums(r * r)
        z = precondition(r)
        rz_new = _row_sums(r * z)
        p = z + (rz_new / rz)[per_system] * p
        rz = rz_new


def _sqrt_substitution(w: np.ndarray, context: str) -> np.ndarray:
    if np.min(w) <= 0.0:
        raise NegativeSubstitutionError(
            f"{context}: squared-pressure field has min {np.min(w):.3e} <= 0"
        )
    return np.sqrt(w)


def gen_example1(betas, grid_n: int, seed: int = 0) -> OperatorDataset:
    """Forward problem with conductivity kappa*p: constant inputs beta,
    pressure fields as outputs.

    Solves -div(beta p grad p) = 1 with p = cos(x) on the boundary via
    w = p^2 (lap w = -2/beta, w = cos^2(x) on the boundary). The input
    sensor is the single point (0,0); outputs live on all grid nodes.
    """
    betas = np.asarray(betas, dtype=np.float64).ravel()
    # Positivity is what the substitution needs; the experiment range
    # [1, 1000] is only the default generation window.
    if betas.size == 0 or np.min(betas) <= 0.0:
        raise ValueError("betas must be positive")
    nodes, axis = grid_coordinates(grid_n)

    # lap w is linear in the source, so two solves cover every beta:
    # w_beta = w_h + w_p / beta.
    g_sq = lambda x, y: np.cos(x) ** 2
    w_h = solve_poisson_fd(grid_n, 0.0, g_sq)
    w_p = solve_poisson_fd(grid_n, -2.0, 0.0)

    u = np.empty((nodes.shape[0], betas.size))
    for k, beta in enumerate(betas):
        w = w_h + w_p / beta
        p = _sqrt_substitution(w, f"beta={beta}")
        u[:, k] = p.ravel()

    return OperatorDataset(
        x_sensors=np.array([[0.0, 0.0]]),
        y_sensors=nodes,
        f_matrix=betas[:, None].copy(),
        u_matrix=u,
        meta={"generator": "ex1", "grid_n": grid_n, "seed": seed},
    )


def _disk_kappa(x: np.ndarray, y: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    return np.where(x * x + y * y <= 0.25, beta, 1.0)


# Betas per stacked Darcy solve in gen_example2. For 100 betas on grid 33
# under the beta = 1 preconditioner, blocks of 32 took 39-44 ms, blocks of
# 16 about 3% longer and one stack of all 100 about 17% longer (medians of
# 20-30 alternating rounds on a 2-core x86 host); on grid 65 blocks of 16
# were about 13% faster than 32. A larger stack also holds more memory at
# its peak.
DARCY_BLOCK = 32


def gen_example2(betas, grid_n: int, seed: int = 0) -> OperatorDataset:
    """Inverse problem with a discontinuous conductivity.

    For each beta, solves -div(kappa grad p) = 0 with p = 0 on the top
    edge, inward flux 1 on the bottom edge and no flux on the sides,
    where kappa is beta inside the disk of radius 0.5 and 1 outside.
    Inputs are the pressure fields; outputs are the kappa fields. The
    betas are solved in stacks of DARCY_BLOCK through one conjugate
    gradient run each; every field is byte-identical to its own solve.
    """
    betas = np.asarray(betas, dtype=np.float64).ravel()
    lo, hi = BETA_RANGE_EX2
    if betas.size == 0 or np.min(betas) < lo or np.max(betas) > hi:
        raise ValueError(f"betas must lie in [{lo}, {hi}]")
    nodes, axis = grid_coordinates(grid_n)

    f = np.empty((betas.size, nodes.shape[0]))
    for start in range(0, betas.size, DARCY_BLOCK):
        block = betas[start : start + DARCY_BLOCK]
        try:
            p = _solve_mixed_darcy(grid_n, axis, block)
        except SolverError as exc:
            raise SolverError(f"beta={float(block[exc.system])!r}: {exc.reason}") from exc
        f[start : start + block.size] = p.reshape(block.size, -1)

    return OperatorDataset(
        x_sensors=nodes.copy(),
        y_sensors=nodes,
        f_matrix=f,
        u_matrix=_disk_kappa(nodes[:, :1], nodes[:, 1:], betas),
        meta={"generator": "ex2", "grid_n": grid_n, "seed": seed},
    )


def _beta_one_eigenbases(q: int):
    """Orthonormal eigenvectors (as columns) and eigenvalues of the two
    1-D second differences whose Kronecker sum is _solve_mixed_darcy's
    operator on q x q interior nodes at beta = 1, as ((Q_y, lam_y), (Q_x,
    lam_x)). T_y is Neumann at the bottom and Dirichlet past the top
    (diagonal 1, 2, ..., 2); T_x is Neumann at both sides (diagonal 1, 2,
    ..., 2, 1). Both have the eigenvectors cos(theta_k (j + 1/2)) with
    eigenvalues 2 - 2 cos(theta_k) (Lynch, Rice & Thomas 1964)."""
    k = np.arange(q)
    bases = []
    for theta in (np.pi * (2 * k + 1) / (2 * q + 1), np.pi * k / q):
        basis = np.cos(np.outer(k + 0.5, theta))
        basis /= np.sqrt(np.sum(basis * basis, axis=0))
        bases.append((basis, 2.0 - 2.0 * np.cos(theta)))
    return bases


def _solve_mixed_darcy(n: int, axis: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Mixed-boundary Darcy solves for gen_example2, one per beta, returned
    as a stack of full n x n grids.

    Boundary handling: Dirichlet p=0 on the top row; one-sided flux
    stencils eliminate the bottom (unit inward flux) and side (no-flux)
    boundary nodes, leaving symmetric positive-definite interior systems
    solved together by conjugate gradients, preconditioned by the
    operator at beta = 1.
    """
    h = axis[1] - axis[0]

    def face_kappa(xa, ya, xb, yb, beta):
        xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
        return _disk_kappa(xm, ym, beta)

    xs = axis
    # Interior unknowns p[b, iy, ix], iy/ix in 1..n-2.
    xx, yy = np.meshgrid(xs[1:-1], xs[1:-1], indexing="xy")
    k_e = face_kappa(xx, yy, xx + h, yy, betas[:, None, None])
    k_n = face_kappa(xx, yy, xx, yy + h, betas[:, None, None])
    # Each face is evaluated once and shared by the two nodes it joins, so
    # the operator is symmetric even where a face midpoint rounds onto the
    # disk edge. Faces to an eliminated Neumann boundary node carry nothing:
    # the no-flux sides drop out and the bottom flux goes into the rhs.
    k_e[..., -1] = 0.0
    k_w = np.pad(k_e[..., :-1], ((0, 0), (0, 0), (1, 0)))
    k_s = np.pad(k_n[:, :-1], ((0, 0), (1, 0), (0, 0)))
    diag = k_e + k_w + k_n + k_s
    # At beta = 1 every face carries 1, and the operator is the Kronecker
    # sum M = T_y (x) I + I (x) T_x, so M^-1 r = Q_y [(Q_y^T r Q_x) /
    # (lam_y (+) lam_x)] Q_x^T: four q x q products per system.
    (q_y, lam_y), (q_x, lam_x) = _beta_one_eigenbases(n - 2)
    q_yt, q_xt = q_y.T.copy(), q_x.T.copy()
    inv_lam = 1.0 / (lam_y[:, None] + lam_x)

    def precondition(r: np.ndarray) -> np.ndarray:
        return q_y @ ((q_yt @ r @ q_x) * inv_lam) @ q_xt

    rhs = np.zeros_like(xx)
    rhs[0, :] += 1.0 / h  # inward unit flux across the bottom boundary
    # Top neighbours are Dirichlet zero: no rhs contribution.

    def operator(systems: np.ndarray):
        d, ke, kn = diag[systems], k_e[systems, :, :-1], k_n[systems, :-1]

        def apply_op(p: np.ndarray) -> np.ndarray:
            out = d * p
            out[..., 1:] -= ke * p[..., :-1]
            out[..., :-1] -= ke * p[..., 1:]
            out[..., 1:, :] -= kn * p[..., :-1, :]
            out[..., :-1, :] -= kn * p[..., 1:, :]
            return out

        return apply_op, precondition

    p_int = _conjugate_gradient(operator, np.repeat((rhs * h * h)[None], betas.size, axis=0))

    p = np.zeros((betas.size, n, n))  # the top row stays Dirichlet zero
    p[:, 1:-1, 1:-1] = p_int
    # Side no-flux: copy the adjacent interior column.
    p[:, 1:-1, 0] = p_int[..., 0]
    p[:, 1:-1, -1] = p_int[..., -1]
    # Bottom flux 1: one-sided difference kappa * (p1 - p0) / h = 1.
    xb = xs
    kb = face_kappa(xb, np.full_like(xb, xs[0]), xb, np.full_like(xb, xs[0] + h), betas[:, None])
    p[:, 0] = p[:, 1] - h / kb
    return p


def gen_example3(triplets, grid_n: int, seed: int = 0) -> OperatorDataset:
    """Forward problem with inputs (f, kappa, g), all constants.

    Solves -div(kappa p grad p) = f with p = g on the boundary via
    w = p^2: lap w = -2 f / kappa with w = g^2 on the boundary, hence
    w = g^2 + (f/kappa) * w_p for a single particular solve w_p.
    """
    trips = np.asarray(triplets, dtype=np.float64)
    if trips.ndim != 2 or trips.shape[1] != 3:
        raise ShapeError(f"triplets must be K x 3, got {trips.shape}")
    lo, hi = TRIPLET_RANGE_EX3
    if np.min(trips) < lo or np.max(trips) > hi:
        raise ValueError(f"triplet entries must lie in [{lo}, {hi}]")
    nodes, _ = grid_coordinates(grid_n)

    w_p = solve_poisson_fd(grid_n, -2.0, 0.0)

    u = np.empty((nodes.shape[0], trips.shape[0]))
    for k, (f_val, kappa, g_val) in enumerate(trips):
        w = g_val * g_val + (f_val / kappa) * w_p
        p = _sqrt_substitution(w, f"triplet={tuple(trips[k])}")
        u[:, k] = p.ravel()

    return OperatorDataset(
        x_sensors=np.array([[0.0], [1.0], [2.0]]),
        y_sensors=nodes,
        f_matrix=trips.copy(),
        u_matrix=u,
        meta={"generator": "ex3", "grid_n": grid_n, "seed": seed},
    )


# Points of the ex3 lattice {(i/10, j/10, l/10) : 1 <= i,j,l <= 100}.
TRIPLET_LATTICE_SIZE = 100**3


def triplet_grid_sample(k: int, seed: int = 0) -> np.ndarray:
    """Sample k triplets without replacement from the ex3 lattice."""
    if not 1 <= k <= TRIPLET_LATTICE_SIZE:
        raise ValueError(f"k must lie in [1, {TRIPLET_LATTICE_SIZE}]")
    rng = np.random.default_rng(seed)
    flat = rng.choice(TRIPLET_LATTICE_SIZE, size=k, replace=False)
    i = flat // 10000
    j = (flat // 100) % 100
    l = flat % 100
    return np.column_stack([(i + 1) / 10.0, (j + 1) / 10.0, (l + 1) / 10.0])


def split_count(k: int, train_fraction: float) -> int:
    """The training side's size in a split of k samples, round(k *
    train_fraction). Raise ValueError unless the fraction lies in (0, 1)
    and both sides are non-empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    n_train = int(round(k * train_fraction))
    check_split_sides(n_train, k - n_train)
    return n_train


def check_split_sides(n_train: int, n_test: int) -> None:
    """Raise ValueError unless both sides of a split hold a sample."""
    for side, size in (("train", n_train), ("test", n_test)):
        if size < 1:
            raise ValueError(f"split leaves the {side} side empty")


def split_dataset(data: OperatorDataset, train_fraction: float, seed: int = 0) -> OperatorDataset:
    """Return a copy of the dataset with a seeded random train/test split."""
    n_train = split_count(data.n_samples, train_fraction)
    perm = np.random.default_rng(seed).permutation(data.n_samples)
    return replace(
        data,
        train_idx=np.sort(perm[:n_train]),
        test_idx=np.sort(perm[n_train:]),
        meta={**data.meta, "split_seed": seed, "train_fraction": train_fraction},
    )


def subsample_output_sensors(data: OperatorDataset, m_y: int, seed: int = 0) -> OperatorDataset:
    """Restrict outputs to m_y sensors drawn uniformly without replacement,
    emulating i.i.d. sampling of the output measure."""
    if not 1 <= m_y <= data.m_y:
        raise ValueError(f"m_y must lie in [1, {data.m_y}], got {m_y}")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(data.m_y, size=m_y, replace=False))
    return replace(
        data,
        y_sensors=data.y_sensors[rows],
        u_matrix=data.u_matrix[rows],
        meta={**data.meta, "sensor_subsample": m_y, "sensor_seed": seed},
    )


# The schema of manifest.json: positive int sizes (and the dtype tag that
# read_manifest adds), an optional params object, and a split that is null
# or lists int train and test indices; whether they partition 0..K-1 is
# OperatorDataset's check.
_DATASET_RULES = dict.fromkeys(("m_x", "m_y", "K", "d_x", "d_y"), (is_positive_int, "a positive int"))
_INT_LIST = (lambda value: isinstance(value, list) and all(map(is_int, value)), "a list of ints")


def save_dataset(data: OperatorDataset, directory) -> None:
    """Write manifest.json plus little-endian float64 blobs into a
    directory that is replaced as a whole (see artifact.write_artifact)."""
    manifest = {
        "name": data.meta.get("generator", "dataset"),
        "generator": data.meta.get("generator"),
        "params": {
            k: v for k, v in data.meta.items() if k not in ("generator",)
        },
        "d_x": int(data.x_sensors.shape[1]),
        "d_y": int(data.d_y),
        "m_x": int(data.m_x),
        "m_y": int(data.m_y),
        "K": int(data.n_samples),
        "dtype": DTYPE,
        "split": None
        if data.train_idx is None
        else {
            "train": data.train_idx.tolist(),
            "test": data.test_idx.tolist(),
        },
    }
    write_artifact(
        directory,
        "manifest.json",
        {
            "manifest.json": json_text(manifest),
            "x_sensors.bin": blob(data.x_sensors),
            "y_sensors.bin": blob(data.y_sensors),
            "F.bin": blob(data.f_matrix),
            "U.bin": blob(data.u_matrix),
        },
    )


def load_dataset(directory) -> OperatorDataset:
    directory = Path(directory)
    manifest = read_manifest(directory, "manifest.json", _DATASET_RULES)
    if not isinstance(manifest.get("params", {}), dict):
        raise CorruptDatasetError("manifest.json params must be a JSON object")
    split = manifest.get("split")
    if split is not None:
        check_fields(split, "manifest.json split", dict.fromkeys(("train", "test"), _INT_LIST))
    m_x, m_y, k = manifest["m_x"], manifest["m_y"], manifest["K"]
    d_x, d_y = manifest["d_x"], manifest["d_y"]

    try:
        return OperatorDataset(
            x_sensors=read_blob(directory / "x_sensors.bin", (m_x, d_x)),
            y_sensors=read_blob(directory / "y_sensors.bin", (m_y, d_y)),
            f_matrix=read_blob(directory / "F.bin", (k, m_x)),
            u_matrix=read_blob(directory / "U.bin", (m_y, k)),
            train_idx=None if split is None else np.asarray(split["train"], dtype=np.int64),
            test_idx=None if split is None else np.asarray(split["test"], dtype=np.int64),
            meta={"generator": manifest.get("generator"), **manifest.get("params", {})},
        )
    except (ShapeError, DuplicateSensorError, ValueError, OverflowError) as exc:
        raise CorruptDatasetError(f"dataset fails validation: {exc}") from exc
