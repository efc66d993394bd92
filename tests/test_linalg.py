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
from operon.linalg import (
    _round_robin,
    best_rank_k_error,
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
