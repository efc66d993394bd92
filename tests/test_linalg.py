import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from operon.errors import (
    RankDeficientError,
    ShapeError,
    SingularTriangularError,
    ZeroMatrixError,
)
from operon import linalg
from operon.construct import verify_zero_loss_pipeline
from operon.data import gen_example1, split_dataset
from operon.linalg import (
    RANK_TOL,
    SvdFactors,
    _pivoted_qr,
    _require_finite,
    _round_robin,
    as_matrix,
    best_rank_k_error,
    frobenius,
    householder_qr,
    jacobi_svd,
    least_squares,
    solve_upper_triangular,
)


def _cholesky_upper(g):
    """Independent reference: upper-triangular square root of a symmetric
    positive-definite matrix, computed by the textbook recursion."""
    n = g.shape[0]
    r = np.zeros_like(g, dtype=np.float64)
    for i in range(n):
        s = g[i, i] - np.sum(r[:i, i] ** 2)
        r[i, i] = np.sqrt(s)
        for j in range(i + 1, n):
            r[i, j] = (g[i, j] - np.sum(r[:i, i] * r[:i, j])) / r[i, i]
    return r


class TestHouseholderQr:
    def test_identity(self):
        qr = householder_qr(np.eye(3))
        assert np.allclose(qr.q, np.eye(3))
        assert np.allclose(qr.r, np.eye(3))

    def test_against_cholesky_of_gram(self):
        # R must equal the Cholesky factor of a^T a (both upper, positive diag).
        a = np.array([[3.0, 0.0], [4.0, 5.0]])
        expected_r = _cholesky_upper(a.T @ a)
        qr = householder_qr(a)
        assert np.allclose(qr.r, expected_r, atol=1e-12)
        assert np.allclose(qr.r, np.array([[5.0, 4.0], [0.0, 3.0]]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 301))
        n = int(rng.integers(1, min(m, 60) + 1))
        a = rng.normal(size=(m, n))
        qr = householder_qr(a)
        assert np.linalg.norm(qr.q @ qr.r - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(qr.q.T @ qr.q - np.eye(n)) <= 1e-10
        assert np.all(np.diag(qr.r) > 0)

    def test_r_exactly_upper_triangular(self):
        a = np.random.default_rng(1).normal(size=(8, 5))
        r = householder_qr(a).r
        assert np.array_equal(np.tril(r, -1), np.zeros((5, 5)))

    def test_rank_deficient_reports_column(self):
        a = np.ones((4, 2))
        with pytest.raises(RankDeficientError, match="column 1"):
            householder_qr(a)

    def test_rows_fewer_than_cols(self):
        with pytest.raises(ShapeError):
            householder_qr(np.ones((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        tall=st.booleans(),
        extra=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.integers(-6, 6),
    )
    def test_factorization_property(self, n, tall, extra, seed, log_scale):
        # Tall or square input: Q has orthonormal columns, R is upper
        # triangular with a positive diagonal, and QR reproduces a.
        m = n + extra if tall else n
        rng = np.random.default_rng(seed)
        a = 10.0**log_scale * rng.normal(size=(m, n))
        qr = householder_qr(a)
        assert qr.q.shape == (m, n) and qr.r.shape == (n, n)
        assert np.linalg.norm(qr.q.T @ qr.q - np.eye(n)) <= 1e-12
        assert np.array_equal(np.tril(qr.r, -1), np.zeros((n, n)))
        assert np.all(np.diag(qr.r) > 0)
        assert np.linalg.norm(qr.q @ qr.r - a) <= 1e-12 * np.linalg.norm(a)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 10),
        extra=st.integers(0, 20),
        j=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dependent_column_raises(self, n, extra, j, seed):
        # Column j is a combination of the columns before it.
        j = min(j, n - 1)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n + extra, n))
        a[:, j] = a[:, :j] @ rng.normal(size=j)
        with pytest.raises(RankDeficientError, match=f"column {j} is"):
            householder_qr(a)


class TestSolveUpperTriangular:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [-3.0]])
        assert np.array_equal(solve_upper_triangular(np.eye(3), b), b)

    def test_hand_back_substitution(self):
        r = np.array([[2.0, 1.0], [0.0, 4.0]])
        b = np.array([[5.0], [8.0]])
        assert np.allclose(solve_upper_triangular(r, b), [[1.5], [2.0]])

    def test_near_singular_diagonal(self):
        r = np.diag([1.0, 1e-16])
        with pytest.raises(SingularTriangularError):
            solve_upper_triangular(r, np.ones((2, 1)))

    def test_multiple_rhs(self):
        rng = np.random.default_rng(2)
        r = np.triu(rng.normal(size=(6, 6))) + 5 * np.eye(6)
        b = rng.normal(size=(6, 3))
        x = solve_upper_triangular(r, b)
        assert np.allclose(r @ x, b, atol=1e-12)


class TestLeastSquares:
    def test_mean_via_normal_equations(self):
        a = np.ones((3, 1))
        b = np.array([[1.0], [2.0], [3.0]])
        # Normal equations reference: (a^T a) x = a^T b -> 3 x = 6.
        assert np.allclose(least_squares(a, b), [[2.0]])

    def test_consistent_system_zero_residual(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 4))
        x_true = rng.normal(size=(4, 2))
        b = a @ x_true
        x = least_squares(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_identity(self):
        b = np.random.default_rng(4).normal(size=(5, 2))
        assert np.allclose(least_squares(np.eye(5), b), b)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 7))
        b = rng.normal(size=(40, 3))
        x = least_squares(a, b)
        bound = 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.linalg.norm(a.T @ (a @ x - b)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 8),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.integers(-6, 6),
    )
    def test_several_rhs_property(self, m, n, k, seed, log_scale):
        # Each column of a multi-rhs solve is the single-column solve, and
        # every residual column is orthogonal to the columns of a.
        m = max(m, n)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, n))
        b = 10.0**log_scale * rng.normal(size=(m, k))
        x = least_squares(a, b)
        assert x.shape == (n, k)
        for j in range(k):
            x_j = least_squares(a, b[:, [j]])
            assert np.allclose(x[:, [j]], x_j, rtol=1e-10, atol=1e-10 * np.abs(x_j).max())
        bound = 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.linalg.norm(a.T @ (a @ x - b)) <= bound

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 5))
        b = rng.normal(size=(20, 1))
        gram = a.T @ a
        x_ref = np.linalg.solve(gram, a.T @ b)
        assert np.allclose(least_squares(a, b), x_ref, atol=1e-10)


class TestJacobiSvd:
    def test_diagonal(self):
        svd = jacobi_svd(np.diag([3.0, 1.0]))
        assert np.allclose(svd.sigma, [3.0, 1.0])
        assert svd.rank == 2

    def test_permutation_has_unit_singular_values(self):
        svd = jacobi_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(svd.sigma, [1.0, 1.0])

    def test_sigma_squared_equals_gram_eigenvalues(self):
        a = np.random.default_rng(0).normal(size=(6, 4))
        svd = jacobi_svd(a)
        eigs = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.allclose(svd.sigma**2, eigs, atol=1e-10)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (9, 9), (30, 5)])
    def test_reconstruction_and_orthonormality(self, shape):
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        svd = jacobi_svd(a)
        recon = svd.u @ np.diag(svd.sigma) @ svd.v.T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(svd.u.T @ svd.u - np.eye(svd.rank)) <= 1e-10
        assert np.linalg.norm(svd.v.T @ svd.v - np.eye(svd.rank)) <= 1e-10
        assert np.all(np.diff(svd.sigma) <= 0)
        assert np.all(svd.sigma > 0)

    def test_rank_truncation(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = u @ np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])  # rank 2 in R^3x3
        svd = jacobi_svd(a)
        assert svd.rank == 2

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            jacobi_svd(np.zeros((3, 3)))

    def test_deterministic_signs(self):
        a = np.random.default_rng(5).normal(size=(7, 3))
        s1 = jacobi_svd(a)
        s2 = jacobi_svd(a.copy())
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.v, s2.v)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["tall", "wide", "square", "column", "product"]),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        r=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factorization_property(self, kind, m, n, r, seed):
        # LAPACK is the independent reference for sigma and the rank; the
        # factors themselves are checked through their defining identities.
        m, n = {
            "tall": (max(m, n), min(m, n)),
            "wide": (min(m, n), max(m, n)),
            "square": (m, m),
            "column": (m, 1),
            "product": (m, n),
        }[kind]
        rng = np.random.default_rng(seed)
        if kind == "product":
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        else:
            a = rng.normal(size=(m, n))
        ref = np.linalg.svd(a, compute_uv=False)
        # Keep clear of the rank threshold, where rounding may decide.
        assume(not np.any((ref > 1e-12 * ref[0]) & (ref < 1e-8 * ref[0])))
        svd = jacobi_svd(a)
        assert svd.rank == np.count_nonzero(ref > 1e-10 * ref[0])
        assert np.all(np.abs(svd.sigma - ref[: svd.rank]) <= 1e-12 * ref[0])
        assert np.all(svd.sigma > 0) and np.all(np.diff(svd.sigma) <= 0)
        recon = svd.u @ np.diag(svd.sigma) @ svd.v.T
        assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(svd.u.T @ svd.u - np.eye(svd.rank)) <= 1e-12
        assert np.linalg.norm(svd.v.T @ svd.v - np.eye(svd.rank)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("wide", [False, True])
    def test_graded_columns_high_relative_accuracy(self, seed, wide):
        # A = B diag(10^-k), k spread over 0..13 in shuffled order: one-sided
        # Jacobi resolves every sigma to high relative accuracy (Demmel and
        # Veselic 1992), where bidiagonalization can lose several digits.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(12, 8)) * 10.0 ** -rng.permutation(np.linspace(0, 13, 8))
        if wide:
            a = a.T
        with mpmath.workdps(60):
            ref = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
            ref = np.sort([float(x) for x in ref])[::-1]
        sigma = jacobi_svd(a, rank_tol=0.0).sigma
        assert sigma.size == 8
        assert np.max(np.abs(sigma - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("k", [-540, -300, 520, 1000])
    @pytest.mark.parametrize("wide", [False, True])
    def test_power_of_two_scaling_is_exact(self, k, wide):
        # At 2**520 and beyond the squared column norms overflow, at 2**-540
        # they underflow; the factors must not notice.
        a = np.random.default_rng(9).normal(size=(30, 8))
        if wide:
            a = a.T
        ref, svd = jacobi_svd(a), jacobi_svd(np.ldexp(a, k))
        assert svd.rank == ref.rank == 8
        assert np.array_equal(svd.sigma, np.ldexp(ref.sigma, k))
        assert np.array_equal(svd.u, ref.u) and np.array_equal(svd.v, ref.v)

    def test_replica_sigma_matches_lapack(self):
        u = _replica_train().train_u()
        ref = np.linalg.svd(u, compute_uv=False)
        svd = jacobi_svd(u)
        assert svd.rank == 6
        assert np.max(np.abs(svd.sigma - ref[: svd.rank])) <= 1e-13 * ref[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 180])
    def test_round_robin_schedule(self, n):
        steps = _round_robin(n)
        assert len(steps) == (n if n % 2 else n - 1)
        visited = []
        for pairs in steps:
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert np.unique(pairs).size == pairs.size  # disjoint pairs
            visited += map(tuple, pairs.tolist())
        assert sorted(visited) == list(itertools.combinations(range(n), 2))


# jacobi_svd as it was before it skipped the pairs of dead columns and
# before the pivoted QR ahead of its sweeps, kept verbatim as an independent
# second implementation (it shares the library's helpers and Brent-Luk
# schedule). The QR changes the rounding, so the library must agree with it
# to rounding level, not bit for bit.


def _ref_jacobi_svd(a, rank_tol: float = RANK_TOL) -> SvdFactors:
    """Thin SVD by the one-sided Jacobi method with round-robin sweeps.

    Each sweep visits every column pair once in the Brent-Luk round-robin
    order (see _round_robin): a step gathers the columns of its n/2
    disjoint pairs and rotates them all with one batched 2 x 2 product.
    Singular values not exceeding rank_tol * sigma_max are dropped; the
    retained count is reported as the numerical rank. Left singular
    vectors are sign-normalized so their largest-magnitude entry is
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

    # Row j of bt is column j of the working matrix (a, or a.T when a is
    # wide), row j of vt column j of v: a step gathers and scatters whole
    # contiguous rows.
    transposed = a.shape[0] < a.shape[1]
    bt = (a if transposed else a.T).copy()
    n, m = bt.shape
    vt = np.eye(n)

    # Sweep over column pairs, rotating until every pair is orthogonal
    # relative to machine precision. Columns whose norm has collapsed to
    # rounding noise are left alone: they lie far below any singular value
    # the rank tolerance could retain.
    eps = 1e-15
    negligible_sq = (1e-15 * frobenius(a)) ** 2
    steps = _round_robin(n)
    for _ in range(100):
        off = 0.0
        for pairs in steps:
            x = bt[pairs]  # (k, 2, m): columns p and q of each pair
            app = np.einsum("ij,ij->i", x[:, 0], x[:, 0])
            aqq = np.einsum("ij,ij->i", x[:, 1], x[:, 1])
            apq = np.einsum("ij,ij->i", x[:, 0], x[:, 1])
            # sqrt separately: the product can underflow for tiny columns
            norms = np.sqrt(app) * np.sqrt(aqq)
            # |apq| > eps * norms also skips every pair with apq == 0.
            act = (
                (app > negligible_sq)
                & (aqq > negligible_sq)
                & (np.abs(apq) > eps * norms)
            )
            if not np.any(act):
                continue
            if not np.all(act):
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
    u = np.ascontiguousarray(bt[order[:rank]].T) / sigma
    v = np.ascontiguousarray(vt[order[:rank]].T)

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


def _replica_train():
    """The acceptance replica's training data: ex1 on a 17x17 grid, K=200,
    split 0.9 with seed 1 (U is 289 x 180 of rank 6)."""
    return split_dataset(gen_example1(np.linspace(1, 100, 200), 17), 0.9, seed=1)


def _deficient(m, n, r, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, r)) @ rng.normal(size=(r, n))


def _graded(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(12, 8)) * 10.0 ** -rng.permutation(np.linspace(0, 13, 8))


def _assert_agrees(a, subspaces=True):
    got, ref = jacobi_svd(a), _ref_jacobi_svd(a)
    assert got.rank == ref.rank
    assert np.max(np.abs(got.sigma - ref.sigma)) <= 1e-13 * ref.sigma[0]
    if subspaces:
        # The singular subspaces, which the signs and any rotation within
        # a cluster of close sigma leave alone.
        for name in ("u", "v"):
            x, y = getattr(got, name), getattr(ref, name)
            assert np.linalg.norm(x @ x.T - y @ y.T) <= 1e-12, name


class TestJacobiMatchesReference:
    def test_replica_u(self):
        # Rank and sigma only: the replica's 6th singular pair is determined
        # only to about 1e-7, so its vectors may differ by that much.
        _assert_agrees(_replica_train().train_u(), subspaces=False)

    @pytest.mark.parametrize(
        "a",
        [
            _deficient(120, 70, 5, 40),
            _deficient(70, 120, 5, 41),
            np.random.default_rng(42).normal(size=(60, 40)),
            np.random.default_rng(43).normal(size=(30, 50)),
            _graded(44),
        ],
        ids=["deficient-tall", "deficient-wide", "tall", "wide", "graded"],
    )
    @pytest.mark.parametrize("k", [0, -540, 540])
    def test_matrices(self, a, k):
        _assert_agrees(np.ldexp(a, k))

    def test_rank_deficient_inputs_lose_columns(self):
        # The products above exercise the QR's truncation: columns of theirs
        # end at or below the 1e-15 ||a||_F cut under which Jacobi leaves them.
        for a in (_deficient(120, 70, 5, 40), _deficient(70, 120, 5, 41)):
            sigma = _ref_jacobi_svd(a, rank_tol=0.0).sigma
            assert np.count_nonzero(sigma <= 1e-15 * np.linalg.norm(a)) > 0

    def test_replica_certificates(self, monkeypatch):
        data = _replica_train()
        rank = jacobi_svd(data.train_u()).rank
        widths = (rank - 2, rank, rank + 2)
        got = [verify_zero_loss_pipeline(data, n).to_dict() for n in widths]
        monkeypatch.setattr(linalg, "jacobi_svd", _ref_jacobi_svd)
        ref = [verify_zero_loss_pipeline(data, n).to_dict() for n in widths]
        losses = (
            "trunk_residual_sq",
            "eckart_young_bound",
            "step1_loss",
            "branch_loss",
            "assembled_loss",
        )
        for cert, want in zip(got, ref):
            tol = 1e-16 * want["u_norm_sq"]
            for key, value in want.items():
                if key in losses:
                    assert abs(cert[key] - value) <= tol, key
                else:
                    assert cert[key] == value, key
        assert all(cert["passed"] for cert in got)


def _scaled_replica_u():
    """The replica U as jacobi_svd factors it: scaled by a power of two so
    that its largest entry lies in [0.5, 1)."""
    u = _replica_train().train_u()
    return np.ldexp(u, -int(np.frexp(np.max(np.abs(u)))[1]))


class TestPivotedQr:
    @pytest.mark.parametrize(
        "make",
        [
            _scaled_replica_u,
            lambda: _deficient(120, 70, 5, 40),
            lambda: np.random.default_rng(42).normal(size=(60, 40)),
            lambda: _graded(44),
        ],
        ids=["replica", "deficient", "full-rank", "graded"],
    )
    def test_factorization(self, make):
        w = make()
        cut_sq = (1e-15 * np.linalg.norm(w)) ** 2
        q, r, perm = _pivoted_qr(w, cut_sq)
        k, n = r.shape
        assert q.shape == (w.shape[0], k) and sorted(perm) == list(range(n))
        assert np.linalg.norm(w[:, perm] - q @ r) <= np.sqrt(n * cut_sq)
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-13
        assert not np.any(np.tril(r, -1))
        # Businger-Golub pivoting: each pivot dominates the trailing columns.
        for j in range(k):
            trailing = np.linalg.norm(r[j:, j:], axis=0)
            assert abs(r[j, j]) >= (1.0 - 1e-12) * np.max(trailing)

    def test_full_rank_takes_every_step(self):
        w = np.random.default_rng(42).normal(size=(60, 40))
        _, r, _ = _pivoted_qr(w, (1e-15 * np.linalg.norm(w)) ** 2)
        assert r.shape == (40, 40)

    def test_replica_keeps_few_columns(self):
        # The sweeps run on the short problem: 9 of the replica's 180 columns
        # stay above the cut, against a numerical rank of 6.
        w = _scaled_replica_u()
        _, r, _ = _pivoted_qr(w, (1e-15 * np.linalg.norm(w)) ** 2)
        assert r.shape[1] == 180 and r.shape[0] <= 12


class TestBestRankKError:
    def test_hand_cases(self):
        assert best_rank_k_error(np.diag([3.0, 1.0]), 1) == pytest.approx(1.0)
        assert best_rank_k_error(np.diag([2.0, 2.0, 2.0]), 0) == pytest.approx(12.0)

    def test_k_at_least_rank_is_zero(self):
        a = np.random.default_rng(1).normal(size=(5, 3))
        assert best_rank_k_error(a, 3) == 0.0
        assert best_rank_k_error(a, 10) == 0.0

    def test_nonincreasing_in_k_and_full_norm_at_zero(self):
        a = np.random.default_rng(2).normal(size=(8, 6))
        values = [best_rank_k_error(a, k) for k in range(7)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[0] == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-10)

    def test_zero_matrix_is_zero(self):
        assert best_rank_k_error(np.zeros((4, 2)), 0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            best_rank_k_error(np.eye(2), -1)
