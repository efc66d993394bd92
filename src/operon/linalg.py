"""Dense linear algebra kernels: Householder QR, one-sided Jacobi SVD
(a pivoted QR stopped at the sweeps' own negligible-column cut, then
round-robin sweeps of disjoint column-pair rotations on the k rows of R
it keeps: 9 of 180 for the rank-6 replica U), triangular and
least-squares solves, and the exact row-tie check of point sets.

Matrices are plain 2-D float64 numpy arrays (row-major). All routines here
are written out explicitly rather than delegating to LAPACK so that the
test suite can check them against independent references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateSensorError,
    RankDeficientError,
    ShapeError,
    SingularTriangularError,
    ZeroMatrixError,
)

# Relative threshold on |R_jj| below which a column is declared dependent.
RANK_TOL = 1e-10
# Relative threshold on triangular diagonals.
TRIANGULAR_TOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D C-contiguous float64 array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def check_distinct_sensors(points: np.ndarray) -> None:
    """Raise DuplicateSensorError (naming the indices) on exact row ties."""
    order = np.lexsort(points.T)
    sorted_pts = points[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if np.any(same):
        where = int(np.argmax(same))
        i, j = int(order[where]), int(order[where + 1])
        raise DuplicateSensorError(f"sensors {min(i, j)} and {max(i, j)} coincide")


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains NaN or Inf entries")
    return a


@dataclass
class QrFactors:
    """Thin QR factorization with orthonormal q (m x n) and upper-triangular
    r (n x n) whose diagonal is positive."""

    q: np.ndarray
    r: np.ndarray


@dataclass
class SvdFactors:
    """Thin SVD a = u @ diag(sigma) @ v.T truncated to the numerical rank.

    sigma is strictly positive and nonincreasing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int


def _reflect(r: np.ndarray, j: int, alpha: float) -> tuple[np.ndarray, float]:
    """Reflect rows j: of r in place, from column j on, by the Householder
    reflector I - beta v v^T that maps r[j:, j] (of norm alpha > 0) to
    -sign(r[j, j]) alpha e_0. Returns (v, beta)."""
    x = r[j:, j]
    sign0 = 1.0 if x[0] >= 0.0 else -1.0
    v = x.copy()
    v[0] += sign0 * alpha
    beta = 2.0 / float(np.sum(v * v))
    if j + 1 < r.shape[1]:
        w = beta * (v @ r[j:, j + 1 :])
        r[j:, j + 1 :] -= np.outer(v, w)
    r[j, j] = -sign0 * alpha
    r[j + 1 :, j] = 0.0
    return v, beta


def _form_q(reflectors: list[tuple[np.ndarray, float]], m: int) -> np.ndarray:
    """The thin m x k Q of the k reflectors (v, beta) that _reflect returned
    (step j's v has length m - j), applied in reverse order to eye(m, k)."""
    k = len(reflectors)
    q = np.zeros((m, k))
    q[:k, :k] = np.eye(k)
    for v, beta in reversed(reflectors):
        j = m - v.size
        w = beta * (v @ q[j:, :])
        q[j:, :] -= np.outer(v, w)
    return q


def householder_qr(a) -> QrFactors:
    """Thin QR of an m x n matrix (m >= n) by Householder reflections.

    The factorization is normalized so that diag(r) > 0, which makes it
    unique for full-column-rank input. Columns whose pivot falls below
    RANK_TOL times the Frobenius norm raise RankDeficientError.
    """
    a = _require_finite(as_matrix(a), "matrix")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"need rows >= cols for QR, got {a.shape}")
    norm_a = frobenius(a)
    if norm_a == 0.0:
        raise RankDeficientError("matrix is identically zero (column 0)")

    r = a.copy()
    reflectors = []
    for j in range(n):
        x = r[j:, j]
        alpha = float(np.sqrt(np.sum(x * x)))
        if alpha <= RANK_TOL * norm_a:
            raise RankDeficientError(
                f"column {j} is numerically dependent (|R_jj|={alpha:.3e} "
                f"< {RANK_TOL:.0e} * ||a||_F={norm_a:.3e})"
            )
        reflectors.append(_reflect(r, j, alpha))
    q = _form_q(reflectors, m)
    r = r[:n, :n]

    # Flip signs so that diag(r) is strictly positive.
    flip = np.diag(r) < 0.0
    if np.any(flip):
        r[flip, :] *= -1.0
        q[:, flip] *= -1.0

    _require_finite(q, "q factor")
    _require_finite(r, "r factor")
    return QrFactors(q=q, r=r)


def solve_upper_triangular(r, b) -> np.ndarray:
    """Solve r @ x = b by back substitution for the columns of a matrix b."""
    r = _require_finite(as_matrix(r), "triangular matrix")
    n = r.shape[0]
    if r.shape[1] != n:
        raise ShapeError(f"triangular matrix must be square, got {r.shape}")
    b_arr = as_matrix(b)
    if b_arr.shape[0] != n:
        raise ShapeError(f"rhs rows {b_arr.shape[0]} != system size {n}")

    norm_r = frobenius(r)
    diag = np.diag(r)
    bad = np.abs(diag) <= TRIANGULAR_TOL * norm_r
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularTriangularError(
            f"diagonal entry {j} is {diag[j]:.3e}, too small relative to "
            f"||r||_F={norm_r:.3e}"
        )

    x = np.zeros_like(b_arr)
    for i in range(n - 1, -1, -1):
        x[i] = (b_arr[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return _require_finite(x, "triangular solve result")


def least_squares(a, b) -> np.ndarray:
    """Minimize ||a @ x - b||_F over x via the QR route, for the columns
    of a matrix b. Requires full column rank and propagates
    RankDeficientError otherwise.
    """
    a, b = as_matrix(a), as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"rhs rows {b.shape[0]} != matrix rows {a.shape[0]}")
    qr = householder_qr(a)
    return solve_upper_triangular(qr.r, qr.q.T @ b)


def _round_robin(n: int) -> list[np.ndarray]:
    """Brent-Luk (1985) round-robin ordering of the column pairs p < q.

    One sweep is n - 1 steps (n for odd n, where each step leaves one
    column out). Each step is a (k, 2) array of pairs [p, q] with no
    column in two pairs, so their rotations commute and can be applied at
    once; every pair occurs exactly once per sweep.
    """
    # Circle method: column 0 keeps its seat while the others move one
    # seat per step; -1 is the empty seat that makes the count even.
    seats = np.arange(n) if n % 2 == 0 else np.append(np.arange(n), -1)
    half = seats.size // 2
    steps = []
    for _ in range(seats.size - 1):
        pairs = np.sort(np.stack([seats[:half], seats[: half - 1 : -1]], axis=1))
        steps.append(pairs[pairs[:, 0] >= 0])
        seats = np.concatenate([seats[:1], seats[-1:], seats[1:-1]])
    return steps


def _pivoted_qr(w: np.ndarray, cut_sq: float):
    """Householder QR with column pivoting (Businger and Golub 1965) of an
    m x n matrix w (m >= n), stopped at the first step whose largest
    remaining squared column norm is at or below cut_sq.

    Returns (q, r, perm) with w[:, perm] = q @ r to within sqrt(n * cut_sq):
    q is m x k with orthonormal columns and r is k x n upper trapezoidal,
    k being the number of steps taken.
    """
    r = w.copy()
    perm = np.arange(r.shape[1])
    reflectors = []
    for j in range(perm.size):
        # Recomputed, not downdated, so cancellation cannot misplace a pivot.
        norms_sq = np.einsum("ij,ij->j", r[j:, j:], r[j:, j:])
        p = j + int(np.argmax(norms_sq))
        if norms_sq[p - j] <= cut_sq:
            break
        r[:, [j, p]] = r[:, [p, j]]
        perm[[j, p]] = perm[[p, j]]
        reflectors.append(_reflect(r, j, float(np.sqrt(norms_sq[p - j]))))
    q = _form_q(reflectors, r.shape[0])
    return q, r[: q.shape[1]], perm


def jacobi_svd(a, rank_tol: float = RANK_TOL) -> SvdFactors:
    """Thin SVD by the one-sided Jacobi method with round-robin sweeps,
    preconditioned by a truncated pivoted QR (Drmac and Veselic 2008).

    _pivoted_qr factors the tall orientation w of a (a, or a.T when a is
    wide) as w P = q r, stopping at the 1e-15 ||a||_F cut under which
    Jacobi leaves a column alone. The sweeps then orthogonalize the k
    columns of r^T, of length n: k = 9 for the rank-6 289 x 180 replica U,
    not 180 columns of length 289. When the rotations V take r^T to B,
    whose columns are orthogonal, u = q V and v = P B / sigma.

    Each sweep visits every column pair once in the Brent-Luk round-robin
    order (see _round_robin): a step gathers the columns of its k/2
    disjoint pairs and rotates them all with one batched 2 x 2 product.
    Singular values not exceeding rank_tol * sigma_max are dropped; the
    retained count is reported as the numerical rank. Left singular
    vectors of w are sign-normalized so their largest-magnitude entry is
    positive, which makes the factorization deterministic. Scaling a by
    a power of two scales sigma by it and leaves the other bits alone.
    """
    if rank_tol < 0.0:
        raise ValueError(f"rank_tol must be >= 0, got {rank_tol}")
    a = _require_finite(as_matrix(a), "matrix")
    if not np.any(a):
        raise ZeroMatrixError("cannot factor an all-zero matrix")
    # The factorization runs on a * 2**-exponent, whose largest entry lies
    # in [0.5, 1), so squared column norms neither overflow nor underflow;
    # sigma is scaled back. A power-of-two scaling is exact, so an input
    # whose squares stayed in range factors to the same bits as before.
    exponent = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a, -exponent)

    # Columns whose norm has collapsed to rounding noise are left alone:
    # they lie far below any singular value the rank tolerance could retain.
    eps = 1e-15
    negligible_sq = (1e-15 * frobenius(a)) ** 2
    transposed = a.shape[0] < a.shape[1]
    q, bt, perm = _pivoted_qr(a.T if transposed else a, negligible_sq)
    # Row j of bt is column j of r^T, row j of vt column j of its right
    # factor: a step gathers and scatters whole contiguous rows.
    k, n = bt.shape
    vt = np.eye(k)

    # Sweep over column pairs, rotating until every pair is orthogonal
    # relative to machine precision.
    steps = _round_robin(k)
    for _ in range(100):
        off = 0.0
        for pairs in steps:
            x = bt[pairs]  # (k/2, 2, n): columns p and q of each pair
            app = np.einsum("ij,ij->i", x[:, 0], x[:, 0])
            aqq = np.einsum("ij,ij->i", x[:, 1], x[:, 1])
            apq = np.einsum("ij,ij->i", x[:, 0], x[:, 1])
            # sqrt separately: the product can underflow for tiny columns
            norms = np.sqrt(app) * np.sqrt(aqq)
            live = (app > negligible_sq) & (aqq > negligible_sq)
            # |apq| > eps * norms also skips every pair with apq == 0.
            act = live & (np.abs(apq) > eps * norms)
            # count_nonzero: per step it costs less than np.any or np.all.
            active = np.count_nonzero(act)
            if not active:
                continue
            if active < act.size:
                pairs, x = pairs[act], x[act]
                app, aqq, apq, norms = app[act], aqq[act], apq[act], norms[act]
            off = max(off, float(np.max(np.abs(apq) / norms)))
            zeta = (aqq - app) / (2.0 * apq)
            t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            t[zeta == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            # Column p becomes c p - s q and column q becomes s p + c q.
            rot = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
            bt[pairs] = rot @ x
            vt[pairs] = rot @ vt[pairs]
        if off == 0.0:
            break
    else:
        raise RuntimeError("one-sided Jacobi SVD failed to converge")

    sigma = np.sqrt(np.einsum("ij,ij->i", bt, bt))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]

    keep = sigma > rank_tol * sigma[0]
    rank = int(np.count_nonzero(keep))
    sigma = sigma[:rank]
    u = q @ vt[order[:rank]].T
    v = np.empty((n, rank))
    v[perm] = bt[order[:rank]].T / sigma

    # Canonical signs: largest-magnitude entry of each left vector positive.
    for j in range(rank):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]

    if transposed:
        u, v = v, u
    _require_finite(u, "u factor")
    _require_finite(v, "v factor")
    return SvdFactors(u=u, sigma=np.ldexp(sigma, exponent), v=v, rank=rank)


def best_rank_k_error(a, k: int) -> float:
    """Squared Frobenius distance from a to its best rank-k approximation,
    i.e. the tail sum of squared singular values."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    a = as_matrix(a)
    if not np.any(a):
        return 0.0
    sigma = jacobi_svd(a).sigma
    if k >= sigma.size:
        return 0.0
    return float(np.sum(sigma[k:] ** 2))
