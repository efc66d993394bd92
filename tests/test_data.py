import dataclasses
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from operon import data as data_module
from operon.data import (
    BETA_RANGE_EX2,
    OperatorDataset,
    gen_example1,
    gen_example2,
    gen_example3,
    grid_coordinates,
    load_dataset,
    save_dataset,
    solve_poisson_fd,
    split_dataset,
    subsample_output_sensors,
    triplet_grid_sample,
)
from operon.errors import CorruptDatasetError, DuplicateSensorError, SolverError


class TestPoissonSolver:
    def test_constant_boundary_constant_solution(self):
        w = solve_poisson_fd(17, 0.0, 1.0)
        assert np.max(np.abs(w - 1.0)) <= 1e-11

    def test_affine_data_exact(self):
        # x is discrete-harmonic on the 5-point stencil.
        w = solve_poisson_fd(17, 0.0, lambda x, y: x)
        xs = np.linspace(-1, 1, 17)
        assert np.max(np.abs(w - xs[None, :])) <= 1e-11

    def test_manufactured_quadratic_exact(self):
        # w = x^2 gives lap w = 2; the stencil is exact on quadratics.
        w = solve_poisson_fd(17, 2.0, lambda x, y: x * x)
        xs = np.linspace(-1, 1, 17)
        assert np.max(np.abs(w - xs[None, :] ** 2)) <= 1e-10

    def test_second_order_convergence(self):
        errs = []
        for n in (17, 33, 65):
            w = solve_poisson_fd(
                n,
                lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
                0.0,
            )
            ax = np.linspace(-1, 1, n)
            exact = np.sin(np.pi * ax)[:, None] * np.sin(np.pi * ax)[None, :]
            errs.append(np.max(np.abs(w - exact)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for slope in slopes:
            assert slope == pytest.approx(2.0, abs=0.3)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            solve_poisson_fd(2, 0.0, 1.0)


class TestExample1:
    def test_shapes(self):
        data = gen_example1(np.linspace(1, 100, 10), 9)
        assert data.f_matrix.shape == (10, 1)
        assert data.u_matrix.shape == (81, 10)
        assert data.m_x == 1
        assert data.m_y == 81

    def test_large_beta_limit_matches_harmonic_extension(self):
        data = gen_example1([1e6], 17)
        w_h = solve_poisson_fd(17, 0.0, lambda x, y: np.cos(x) ** 2)
        assert np.max(np.abs(data.u_matrix[:, 0] - np.sqrt(w_h).ravel())) <= 1e-5

    def test_residual_of_original_equation(self):
        # Interior residual of -div(beta p grad p) = 1, discretized as
        # -(beta/2) lap(p^2) = 1 on the 5-point stencil.
        grid_n, beta = 33, 7.0
        data = gen_example1([beta], grid_n)
        p = data.u_matrix[:, 0].reshape(grid_n, grid_n)
        h = 2.0 / (grid_n - 1)
        w = p * p
        lap = (
            w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2] - 4 * w[1:-1, 1:-1]
        ) / h**2
        assert np.max(np.abs(-(beta / 2) * lap - 1.0)) <= 1e-8

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            gen_example1([0.0, 1.0], 9)


class TestExample2:
    def test_kappa_field_values(self):
        data = gen_example2([0.5], 21)
        nodes = data.y_sensors
        at = lambda x, y: np.argmin((nodes[:, 0] - x) ** 2 + (nodes[:, 1] - y) ** 2)
        assert data.u_matrix[at(0.0, 0.0), 0] == 0.5
        assert data.u_matrix[at(0.9, 0.9), 0] == 1.0

    def test_beta_one_uniform(self):
        data = gen_example2([1.0], 13)
        assert np.all(data.u_matrix[:, 0] == 1.0)

    def test_input_output_sensor_counts_match(self):
        data = gen_example2([2.0], 11)
        assert data.m_x == data.m_y == 121

    def test_flux_balance(self):
        # Influx through the bottom (total 2) must exit through the top.
        grid_n = 41
        data = gen_example2([3.0], grid_n)
        p = data.f_matrix[0].reshape(grid_n, grid_n)
        h = 2.0 / (grid_n - 1)
        # One-sided flux at the top edge; kappa = 1 there.
        top_flux = np.sum((p[-2, :] - p[-1, :]) / h) * h
        assert top_flux == pytest.approx(2.0, rel=0.05)

    def test_dirichlet_top(self):
        grid_n = 15
        data = gen_example2([0.1], grid_n)
        p = data.f_matrix[0].reshape(grid_n, grid_n)
        assert np.all(p[-1, :] == 0.0)

    @pytest.mark.parametrize("grid_n", [7, 39])
    def test_face_midpoints_on_disk_edge(self, grid_n):
        # On these grids some face midpoints lie on the disk edge, where a
        # face evaluated from its two sides can round to different kappas.
        data = gen_example2([0.01, 0.5, 2.0, 3.0, 10.0], grid_n)
        assert np.all(np.isfinite(data.f_matrix))

    @pytest.mark.parametrize("grid_n", [7, 11, 39])
    def test_operator_symmetric(self, monkeypatch, grid_n):
        operator, rhs = _captured_darcy(monkeypatch, grid_n, [3.0])
        apply_op, _ = operator(np.arange(1))
        unit = np.zeros(rhs.shape)
        columns = []
        for j in range(unit.size):
            unit.flat[j] = 1.0
            columns.append(apply_op(unit).ravel())
            unit.flat[j] = 0.0
        dense = np.column_stack(columns)
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("grid_n", [7, 33, 39])
    def test_stack_invariance(self, grid_n):
        # 70 betas make two full blocks and a partial one; every column must
        # equal its own one-beta solve byte for byte.
        betas = np.linspace(0.01, 10.0, 70)
        stacked = gen_example2(betas, grid_n)
        for k, beta in enumerate(betas):
            alone = gen_example2([beta], grid_n)
            assert stacked.f_matrix[k].tobytes() == alone.f_matrix[0].tobytes()
            assert stacked.u_matrix[:, k].tobytes() == alone.u_matrix[:, 0].tobytes()

    @pytest.mark.parametrize("q", [1, 2, 31])
    def test_beta_one_eigenbases(self, monkeypatch, q):
        # The operator at beta = 1, applied column by column, is the
        # Kronecker sum of the 1-D second differences D^T D over its faces,
        # every face carrying 1. Grid 3 has one interior node and T_x = [0].
        operator, rhs = _captured_darcy(monkeypatch, q + 2, [1.0])
        apply_op, precondition = operator(np.arange(1))
        eye = np.eye(q * q).reshape(q * q, q, q)
        dense = apply_op(eye).reshape(q * q, q * q)
        d_x = np.diff(np.eye(q), axis=0)  # faces between the columns
        d_y = np.diff(np.vstack([np.eye(q), np.zeros(q)]), axis=0)  # and past the top
        t_y, t_x = d_y.T @ d_y, d_x.T @ d_x
        assert np.array_equal(dense, np.kron(t_y, np.eye(q)) + np.kron(np.eye(q), t_x))
        for t, (basis, lam) in zip((t_y, t_x), data_module._beta_one_eigenbases(q)):
            assert np.max(np.abs(basis.T @ basis - np.eye(q))) <= 1e-13
            assert np.max(np.abs(t @ basis - basis * lam)) <= 1e-13
        # So the preconditioner inverts the operator at beta = 1.
        assert np.max(np.abs(precondition(apply_op(eye)) - eye)) <= 1e-12

    def test_beta_one_preconditioner_cuts_iterations_eightfold(self, monkeypatch):
        # One block across the 100x conductivity contrast: the operator at
        # beta = 1 as preconditioner must take at most 1/8 of the operator
        # applications of plain CG on the same systems, to the same fields.
        betas = np.random.default_rng(0).uniform(*BETA_RANGE_EX2, 32)
        operator, rhs = _captured_darcy(monkeypatch, 33, betas)
        fast, fast_count = _counted_cg(operator, rhs)
        plain, plain_count = _counted_cg(operator, rhs, plain=True)
        assert 8 * fast_count <= plain_count
        scale = np.abs(plain).max(axis=(1, 2))
        assert np.all(np.abs(fast - plain).max(axis=(1, 2)) <= 1e-12 * scale)

    def test_iterations_hardly_grow_with_the_grid(self, monkeypatch):
        # The preconditioned spectrum lies within the conductivity contrast
        # on every grid, where plain and Jacobi CG need about 2x as many
        # applications each time the grid is refined.
        betas = np.random.default_rng(1).uniform(*BETA_RANGE_EX2, 16)
        (_, coarse), (_, fine) = (
            _counted_cg(*_captured_darcy(monkeypatch, grid_n, betas)) for grid_n in (33, 65)
        )
        assert fine <= 1.5 * coarse

    def test_solver_error_names_beta(self, monkeypatch):
        # A failure in the second block names the beta, not its index there.
        betas = np.linspace(0.01, 10.0, data_module.DARCY_BLOCK + 5)

        def fail_second_block(operator, rhs):
            if rhs.shape[0] == 5:
                raise SolverError("stalled", system=3)
            return cg(operator, rhs)

        cg = data_module._conjugate_gradient
        monkeypatch.setattr(data_module, "_conjugate_gradient", fail_second_block)
        with pytest.raises(SolverError, match=f"^beta={float(betas[-2])!r}: stalled$"):
            gen_example2(betas, 7)


def _captured_darcy(monkeypatch, grid_n, betas):
    """The (operator, rhs) that _solve_mixed_darcy hands the CG for betas."""
    captured = []

    def capture(operator, rhs):
        captured.append((operator, rhs))
        return cg(operator, rhs)

    cg = data_module._conjugate_gradient
    monkeypatch.setattr(data_module, "_conjugate_gradient", capture)
    _, axis = grid_coordinates(grid_n)
    data_module._solve_mixed_darcy(grid_n, axis, np.asarray(betas, dtype=np.float64))
    monkeypatch.setattr(data_module, "_conjugate_gradient", cg)
    [(operator, rhs)] = captured
    return operator, rhs


def _counted_cg(operator, rhs, plain=False):
    """The CG solution and its number of operator applications; plain
    swaps the operator's preconditioner for the identity."""
    applications = 0

    def counted(systems):
        apply_op, precondition = operator(systems)

        def apply_counted(p):
            nonlocal applications
            applications += 1
            return apply_op(p)

        return apply_counted, np.copy if plain else precondition

    return data_module._conjugate_gradient(counted, rhs), applications


def _scaled_laplacian(scales: np.ndarray):
    """Operators x -> scales[b] * L x for the 5-point Laplacian L, each
    preconditioned by the inverse 1 / (4 scales[b]) of its diagonal."""

    def operator(systems):
        s = scales[systems][:, None, None]
        inv = 1.0 / (4.0 * s)

        def apply_op(x):
            out = 4.0 * x
            out[:, 1:] -= x[:, :-1]
            out[:, :-1] -= x[:, 1:]
            out[:, :, 1:] -= x[:, :, :-1]
            out[:, :, :-1] -= x[:, :, 1:]
            return s * out

        return apply_op, lambda x: x * inv

    return operator


def _scalar_cg(apply_op, rhs, precondition, rtol=1e-12):
    """Reference: preconditioned CG on one system with Python-float
    scalars; precondition = np.copy is plain CG."""
    u = np.zeros_like(rhs)
    r = rhs - apply_op(u)
    z = precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    target = rtol * max(1.0, float(np.sqrt(np.sum(rhs * rhs))))
    while np.sqrt(float(np.sum(r * r))) > target:
        ap = apply_op(p)
        alpha = rz / float(np.sum(p * ap))
        u += alpha * p
        r -= alpha * ap
        z = precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return u


class TestConjugateGradient:
    def test_indefinite_operator_raises_solver_error(self):
        with pytest.raises(SolverError, match="not positive definite"):
            data_module._conjugate_gradient(lambda systems: (np.zeros_like, np.copy), np.ones((1, 3, 3)))

    def test_failing_system_is_named(self):
        scales = np.array([1.0, 2.0, -1.0, 3.0])
        rhs = np.ones((4, 5, 5))
        with pytest.raises(SolverError, match="^system 2: operator is not positive") as info:
            data_module._conjugate_gradient(_scaled_laplacian(scales), rhs)
        assert info.value.system == 2

    def test_stalled_system_is_named(self):
        # I + 3S with S skew has p.Ap = |p|^2 > 0, but CG does not converge
        # on it; the identity system beside it leaves after one step.
        rng = np.random.default_rng(0)
        skew = rng.normal(size=(6, 6))
        matrices = np.stack([np.eye(6), np.eye(6) + 3.0 * (skew - skew.T)])

        def operator(systems):
            return lambda x: np.einsum("bij,bj->bi", matrices[systems], x), np.copy

        with pytest.raises(SolverError, match="^system 1: conjugate gradient stalled") as info:
            data_module._conjugate_gradient(operator, np.ones((2, 6)))
        assert info.value.system == 1

    def test_stacked_solutions_equal_single_solves(self):
        # System 0 leaves at iteration 0; system 1 needs many iterations.
        # The inverse diagonals 1/2.8 and 1/10 are not powers of two, so the
        # preconditioned recurrence differs from plain CG here.
        rng = np.random.default_rng(0)
        scales = np.array([1.0, 0.7, 2.5])
        rhs = np.stack([np.zeros((15, 15)), rng.normal(size=(15, 15)), np.ones((15, 15))])
        stacked = data_module._conjugate_gradient(_scaled_laplacian(scales), rhs)
        assert np.all(stacked[0] == 0.0)
        for b in range(3):
            operator = _scaled_laplacian(scales[b : b + 1])
            alone = data_module._conjugate_gradient(operator, rhs[b : b + 1])
            assert stacked[b].tobytes() == alone[0].tobytes()
            apply_op, precondition = operator([0])
            reference = _scalar_cg(
                lambda x: apply_op(x[None])[0], rhs[b], lambda x: precondition(x[None])[0]
            )
            assert stacked[b].tobytes() == reference.tobytes()


class TestExample3:
    def test_shapes(self):
        data = gen_example3([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]], 9)
        assert data.f_matrix.shape == (2, 3)
        assert data.m_x == 3

    def test_small_source_limit(self):
        data = gen_example3([[0.1, 10.0, 2.0]], 17)
        # f/kappa = 0.01 keeps p within ~2e-3 of g; exact limit is p = g.
        assert np.max(np.abs(data.u_matrix[:, 0] - 2.0)) <= 2e-3

    def test_scaling_symmetry(self):
        lam = 3.7
        a = gen_example3([[1.1, 0.9, 2.5]], 17)
        b = gen_example3([[1.1 * lam, 0.9 * lam, 2.5]], 17)
        assert np.max(np.abs(a.u_matrix - b.u_matrix)) <= 1e-10

    def test_residual_of_original_equation(self):
        grid_n, (f_val, kappa, g_val) = 33, (2.0, 4.0, 1.5)
        data = gen_example3([[f_val, kappa, g_val]], grid_n)
        p = data.u_matrix[:, 0].reshape(grid_n, grid_n)
        h = 2.0 / (grid_n - 1)
        w = p * p
        lap = (
            w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2] - 4 * w[1:-1, 1:-1]
        ) / h**2
        assert np.max(np.abs(-(kappa / 2) * lap - f_val)) <= 1e-8

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gen_example3([[0.01, 1.0, 1.0]], 9)

    def test_triplet_grid_sample(self):
        trips = triplet_grid_sample(1000, seed=3)
        assert trips.shape == (1000, 3)
        assert np.min(trips) >= 0.1 and np.max(trips) <= 10.0
        # lattice values are multiples of 0.1
        assert np.allclose(np.round(trips * 10) / 10, trips)
        assert np.array_equal(trips, triplet_grid_sample(1000, seed=3))


class TestSplit:
    def test_900_100(self):
        data = gen_example1(np.linspace(1, 1000, 1000), 5)
        out = split_dataset(data, 0.9, seed=0)
        assert out.train_idx.size == 900
        assert out.test_idx.size == 100

    def test_deterministic(self):
        data = gen_example1(np.linspace(1, 10, 10), 5)
        a = split_dataset(data, 0.5, seed=7)
        b = split_dataset(data, 0.5, seed=7)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_disjoint_cover(self):
        data = gen_example1(np.linspace(1, 10, 10), 5)
        out = split_dataset(data, 0.5, seed=1)
        assert out.train_idx.size == 5 and out.test_idx.size == 5
        combined = np.sort(np.concatenate([out.train_idx, out.test_idx]))
        assert np.array_equal(combined, np.arange(10))

    @pytest.mark.parametrize("fraction, side", [(0.95, "test"), (0.04, "train")])
    def test_empty_side_rejected(self, fraction, side):
        data = gen_example1(np.linspace(1, 10, 10), 5)
        with pytest.raises(ValueError, match=f"leaves the {side} side empty"):
            split_dataset(data, fraction)


    def test_empty_side_message_shared(self):
        # A fraction that rounds to all of K and stored indices that leave
        # the test side empty break one rule, reported in one message.
        data = gen_example1(np.linspace(1, 10, 10), 5)
        with pytest.raises(ValueError) as by_fraction:
            split_dataset(data, 0.999)
        with pytest.raises(ValueError) as by_indices:
            replace(data, train_idx=np.arange(10), test_idx=np.arange(0))
        assert str(by_fraction.value) == str(by_indices.value) == "split leaves the test side empty"


class TestSensorSubsampling:
    def test_subset_rows(self):
        data = gen_example1(np.linspace(1, 10, 4), 9)
        sub = subsample_output_sensors(data, 20, seed=0)
        assert sub.m_y == 20
        assert sub.u_matrix.shape == (20, 4)
        # each sampled sensor row exists in the parent
        for row in sub.y_sensors:
            assert np.any(np.all(data.y_sensors == row, axis=1))

    def test_distinct_sensors_preserved(self):
        data = gen_example1(np.linspace(1, 10, 4), 9)
        sub = subsample_output_sensors(data, 30, seed=1)
        assert np.unique(sub.y_sensors, axis=0).shape == (30, 2)


class TestDatasetIo:
    def test_round_trip_byte_identical(self, tmp_path):
        data = split_dataset(gen_example1(np.linspace(1, 50, 12), 9), 0.75, seed=2)
        save_dataset(data, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        for name in ("manifest.json", "x_sensors.bin", "y_sensors.bin", "F.bin", "U.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_write_keeps_previous_directory(self, tmp_path, monkeypatch, existing):
        target = tmp_path / "d"
        if existing:
            save_dataset(gen_example1(np.linspace(1, 50, 5), 9), target)
        before = {p.name: p.read_bytes() for p in target.glob("*")}
        write_bytes = Path.write_bytes

        def fail_on_f(path, data):
            if path.name == "F.bin":
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_f)
        newer = split_dataset(gen_example1(np.linspace(1, 50, 12), 9), 0.75, seed=2)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(newer, target)
        assert {p.name: p.read_bytes() for p in target.glob("*")} == before
        assert [p.name for p in tmp_path.iterdir()] == (["d"] if existing else [])
        monkeypatch.undo()
        save_dataset(newer, target)
        assert load_dataset(target).n_samples == 12
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_foreign_directory_not_replaced(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(FileExistsError, match="manifest.json"):
            save_dataset(gen_example1(np.linspace(1, 50, 5), 9), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_truncated_blob(self, tmp_path):
        data = gen_example1(np.linspace(1, 50, 5), 9)
        save_dataset(data, tmp_path / "d")
        blob = (tmp_path / "d" / "U.bin").read_bytes()
        (tmp_path / "d" / "U.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptDatasetError):
            load_dataset(tmp_path / "d")

    def test_manifest_shape_mismatch(self, tmp_path):
        data = gen_example1(np.linspace(1, 50, 5), 9)
        save_dataset(data, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["K"] = 7
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDatasetError):
            load_dataset(tmp_path / "d")

    def test_split_index_out_of_range(self, tmp_path):
        data = split_dataset(gen_example1(np.linspace(1, 50, 12), 9), 0.75, seed=2)
        save_dataset(data, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["split"]["test"][0] = 42
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDatasetError, match="partition"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_split_side_empty(self, tmp_path, side):
        data = split_dataset(gen_example1(np.linspace(1, 50, 12), 9), 0.75, seed=2)
        save_dataset(data, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        split = manifest["split"]
        other = "test" if side == "train" else "train"
        split[other], split[side] = sorted(split["train"] + split["test"]), []
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDatasetError, match=f"{side} side empty"):
            load_dataset(tmp_path / "d")

    def test_split_index_beyond_int64(self, tmp_path):
        data = split_dataset(gen_example1(np.linspace(1, 50, 12), 9), 0.75, seed=2)
        save_dataset(data, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["split"]["test"][0] = 10**30
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDatasetError):
            load_dataset(tmp_path / "d")

    def test_duplicate_sensor_rejected(self):
        with pytest.raises(DuplicateSensorError, match="0 and 1"):
            OperatorDataset(
                x_sensors=np.zeros((1, 1)),
                y_sensors=np.array([[0.0, 0.0], [0.0, 0.0]]),
                f_matrix=np.zeros((2, 1)),
                u_matrix=np.zeros((2, 2)),
            )

    def test_no_dataset_breaks_a_rule_after_it_is_made(self):
        data = split_dataset(gen_example1(np.linspace(1, 10, 6), 5), 0.5, seed=0)
        with pytest.raises(ValueError, match="^split must partition 0..K-1$"):
            replace(data, test_idx=data.train_idx)
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.u_matrix = np.zeros_like(data.u_matrix)


class TestGridCoordinates:
    def test_row_major_order(self):
        nodes, axis = grid_coordinates(3)
        assert np.array_equal(axis, [-1.0, 0.0, 1.0])
        # y-major: first three nodes share y = -1
        assert np.array_equal(nodes[:3, 1], [-1.0, -1.0, -1.0])
        assert np.array_equal(nodes[:3, 0], [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("grid_n", [0, 1, 2])
    @pytest.mark.parametrize(
        "generate",
        [
            lambda n: gen_example1([1.0, 2.0], n),
            lambda n: gen_example2([0.5, 2.0], n),
            lambda n: gen_example3([[1.0, 1.0, 1.0]], n),
        ],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_every_generator_refuses_a_grid_below_three(self, generate, grid_n):
        with pytest.raises(ValueError, match=f"^grid_n must be >= 3, got {grid_n}$"):
            generate(grid_n)
