from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operon import construct, deeponet, nn, train
from operon.construct import build_interpolating_trunk, verify_zero_loss_pipeline
from operon.data import OperatorDataset, gen_example1, split_dataset
from operon.deeponet import DeepONetModel, assemble_phi, monolithic_loss
from operon.errors import DuplicateSensorError, ShapeError, ZeroMatrixError
from operon.linalg import best_rank_k_error, jacobi_svd
from operon.nn import Mlp, find_separating_direction, forward, interpolating_relu


def _one_shot_search(y, seed):
    """The direction search over all 1024 trials, each trial's projections
    sorted at once: (direction, 2 / its minimum gap)."""
    dirs = np.random.default_rng(seed).normal(size=(1024, y.shape[1]))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    projections = y @ dirs.T
    projections.sort(axis=0)
    gaps = np.min(np.diff(projections, axis=0), axis=0)
    best = int(np.argmax(gaps))
    return dirs[best], 2.0 / float(gaps[best])


def _power_iteration_rank1(u, iters=500):
    """Independent rank-1 SVD via power iteration on u u^T."""
    rng = np.random.default_rng(0)
    z = rng.normal(size=u.shape[0])
    for _ in range(iters):
        z = u @ (u.T @ z)
        z /= np.linalg.norm(z)
    sigma = np.linalg.norm(u.T @ z)
    return z, sigma


class TestSeparatingDirection:
    def test_one_dimensional(self):
        d = find_separating_direction(np.array([[0.0], [1.0], [5.0]]), seed=0)
        assert abs(abs(d.v[0]) - 1.0) <= 1e-12
        assert d.scale == pytest.approx(2.0)

    def test_two_dimensional_min_gap(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-1, 1, (30, 2))
        d = find_separating_direction(y, seed=0)
        proj = d.scale * (y @ d.v)
        gaps = np.abs(proj[:, None] - proj[None, :])[np.triu_indices(30, 1)]
        assert np.min(gaps) >= 2.0 - 1e-9

    def test_unit_norm(self):
        y = np.random.default_rng(1).uniform(-1, 1, (10, 3))
        d = find_separating_direction(y, seed=1)
        assert np.linalg.norm(d.v) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_sensors(self):
        y = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DuplicateSensorError, match="0 and 1"):
            find_separating_direction(y, seed=0)

    @pytest.mark.parametrize("shape", [(289, 2), (180, 1), (50, 1089)])
    def test_blocked_search_equals_one_shot_sort(self, shape):
        # The search sorts its trials in blocks; sorting every trial's
        # projections at once must give the same direction and scale, bit
        # for bit.
        y = np.random.default_rng(2).uniform(-1, 1, shape)
        d = find_separating_direction(y, seed=3)
        v, scale = _one_shot_search(y, seed=3)
        assert d.v.tobytes() == v.tobytes()
        assert d.scale == scale

    @pytest.mark.parametrize("seed", range(5))
    def test_one_dimensional_search_evaluates_trial_zero(self, seed):
        # For d = 1 every trial is +-1 and all gaps tie, so the search that
        # evaluates trial 0 alone gives the full search's direction and scale.
        y = np.random.default_rng(seed).uniform(-1, 1, (20 + 40 * seed, 1))
        d = find_separating_direction(y, seed=seed)
        v, scale = _one_shot_search(y, seed=seed)
        assert d.v.tobytes() == v.tobytes() and d.scale == scale

    def test_one_dimensional_replica_inputs(self, replica_train):
        f_train = replica_train.train_f()
        assert f_train.shape[1] == 1
        d = find_separating_direction(f_train, seed=0)
        v, scale = _one_shot_search(f_train, seed=0)
        assert d.v.tobytes() == v.tobytes() and d.scale == scale

    def test_one_dimensional_repeated_input(self):
        with pytest.raises(DuplicateSensorError, match="0 and 2"):
            find_separating_direction(np.array([[0.5], [0.2], [0.5]]), seed=0)


class TestBuildInterpolatingTrunk:
    def test_zero_loss_when_width_at_least_rank(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-1, 1, (12, 2))
        u = rng.normal(size=(12, 5))
        trunk, a_star, _ = build_interpolating_trunk(y, u, 5)
        phi = assemble_phi(trunk, y)
        resid = np.sum((phi @ a_star - u) ** 2)
        assert resid <= 1e-16 * np.sum(u * u)

    def test_matches_best_low_rank_error_below_rank(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(-1, 1, (10, 2))
        u = rng.normal(size=(10, 6))
        n = 3
        trunk, a_star, _ = build_interpolating_trunk(y, u, n)
        phi = assemble_phi(trunk, y)
        resid = np.sum((phi @ a_star - u) ** 2)
        ey = best_rank_k_error(u, n)
        assert resid <= ey + 1e-8 * np.sum(u * u)
        assert resid >= ey - 1e-8 * np.sum(u * u)

    def test_rank_one_factor_recovered(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 1))
        w = rng.normal(size=(1, 4))
        u = z @ w
        y = rng.uniform(-1, 1, (8, 1))
        z_ref, sigma_ref = _power_iteration_rank1(u)
        trunk, a_star, _ = build_interpolating_trunk(y, u, 1)
        # Phi a_star reproduces z sigma v^T from the independent factor.
        phi = assemble_phi(trunk, y)
        v_ref = u.T @ z_ref / sigma_ref
        assert np.max(np.abs(phi @ a_star - sigma_ref * np.outer(z_ref, v_ref))) <= 1e-10

    def test_architecture_depth_and_widths(self):
        rng = np.random.default_rng(3)
        m_y = 9
        y = rng.uniform(-1, 1, (m_y, 2))
        u = rng.normal(size=(m_y, 4))
        n = 4
        trunk, _, _ = build_interpolating_trunk(y, u, n)
        n_tilde = 2 * n + 4
        expected = (2, 4, 4) + (n_tilde,) * (2 * m_y - 2) + (n,)
        assert trunk.arch == expected
        assert len(trunk.weights) == 2 * m_y + 1

    def test_sensor_values_span_svd_factor(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(-1, 1, (15, 2))
        u = rng.normal(size=(15, 6))
        for width in (3, 6, 9):
            svd = jacobi_svd(u)
            z = svd.u[:, : min(width, svd.rank)]
            trunk, _, _ = build_interpolating_trunk(y, u, width)
            phi = assemble_phi(trunk, y)
            # span([1, P]) contains span(Z_r): projecting Z_r onto it
            # leaves nothing.
            q = np.linalg.qr(phi)[0]
            assert np.max(np.abs(z - q @ (q.T @ z))) <= 1e-10

    def test_padding_columns_orthonormal(self):
        # Every trunk column at the sensors: orthonormal and orthogonal to
        # the constant, including the padding past rank(u).
        rng = np.random.default_rng(5)
        y = rng.uniform(-1, 1, (8, 2))
        base = rng.normal(size=(8, 2))
        u = base @ rng.normal(size=(2, 5))  # rank 2
        trunk, _, _ = build_interpolating_trunk(y, u, 4)
        vals = forward(trunk, y)
        assert np.max(np.abs(vals.T @ vals - np.eye(4))) <= 1e-10
        assert np.max(np.abs(vals.T @ np.ones(8))) <= 1e-10

    def test_constant_in_output_space(self):
        # Ex2-like outputs 1 + (beta - 1) * indicator: rank 2 with the
        # constant in span(U), so Z_r loses one direction when centered.
        rng = np.random.default_rng(12)
        y = rng.uniform(-1, 1, (12, 2))
        disk = (np.sum(y * y, axis=1) <= 0.5).astype(float)
        betas = rng.uniform(0.1, 10.0, 7)
        u = 1.0 + np.outer(disk, betas - 1.0)
        svd = jacobi_svd(u)
        for width in (2, 3, 4):
            trunk, a_star, _ = build_interpolating_trunk(y, u, width)
            vals = forward(trunk, y)
            assert np.max(np.abs(vals.T @ vals - np.eye(width))) <= 1e-10
            assert np.max(np.abs(vals.T @ np.ones(12))) <= 1e-10
            phi = assemble_phi(trunk, y)
            target = svd.u * svd.sigma @ svd.v.T
            assert np.max(np.abs(phi @ a_star - target)) <= 1e-10 * np.max(np.abs(u))

    def test_constant_output_certified(self):
        # Every output column constant: Z_1 is the constant vector itself,
        # so the trunk is padding alone.
        rng = np.random.default_rng(13)
        data = OperatorDataset(
            x_sensors=np.zeros((3, 1)),
            y_sensors=rng.uniform(-1, 1, (10, 2)),
            f_matrix=rng.normal(size=(5, 3)),
            u_matrix=np.ones((10, 1)) @ rng.normal(size=(1, 5)),
        )
        for width in (1, 3):
            cert = verify_zero_loss_pipeline(data, width)
            assert cert.rank == 1 and cert.zero_loss_passed and cert.passed

    def test_width_above_sensor_count_rejected(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(-1, 1, (5, 2))
        with pytest.raises(ValueError, match="width"):
            build_interpolating_trunk(y, rng.normal(size=(5, 3)), 5)

    def test_zero_matrix_rejected(self):
        y = np.random.default_rng(6).uniform(-1, 1, (5, 2))
        with pytest.raises(ZeroMatrixError):
            build_interpolating_trunk(y, np.zeros((5, 3)), 2)


class TestZeroLossPipeline:
    def _dataset(self, seed, m_y=12, k=5):
        rng = np.random.default_rng(seed)
        return OperatorDataset(
            x_sensors=np.zeros((3, 1)),
            y_sensors=rng.uniform(-1, 1, (m_y, 2)),
            f_matrix=rng.normal(size=(k, 3)),
            u_matrix=rng.normal(size=(m_y, k)),
        )

    def test_full_rank_certificate(self):
        data = self._dataset(seed=7)
        rank = jacobi_svd(data.u_matrix).rank
        cert = verify_zero_loss_pipeline(data, rank)
        assert cert.zero_loss_applicable and cert.zero_loss_passed
        assert cert.equivalence_applicable and cert.equivalence_passed
        assert cert.passed
        u_sq = np.sum(data.u_matrix**2)
        assert cert.assembled_loss <= 1e-8 * u_sq / (data.m_y * data.n_samples)

    def test_below_rank_matches_low_rank_bound(self):
        data = self._dataset(seed=8)
        rank = jacobi_svd(data.u_matrix).rank
        cert = verify_zero_loss_pipeline(data, rank - 1)
        assert cert.low_rank_applicable and cert.low_rank_passed
        assert cert.passed
        rel = abs(cert.trunk_residual_sq - cert.eckart_young_bound)
        assert rel <= 1e-6 * cert.eckart_young_bound + 1e-10 * cert.u_norm_sq

    def test_zero_output_matrix_error(self):
        data = self._dataset(seed=9)
        data = replace(data, u_matrix=np.zeros_like(data.u_matrix))
        with pytest.raises(ZeroMatrixError):
            verify_zero_loss_pipeline(data, 2)

    def test_above_rank_certificate(self):
        data = self._dataset(seed=11, m_y=12, k=4)
        rank = jacobi_svd(data.u_matrix).rank
        cert = verify_zero_loss_pipeline(data, rank + 3)
        assert cert.zero_loss_passed and cert.equivalence_applicable
        assert cert.passed

    def test_certificate_serializes(self):
        data = self._dataset(seed=10)
        rank = jacobi_svd(data.u_matrix).rank
        cert = verify_zero_loss_pipeline(data, rank)
        payload = cert.to_dict()
        assert payload["passed"] is True
        assert set(payload) >= {
            "n_width",
            "rank",
            "step1_loss",
            "assembled_loss",
            "zero_loss_passed",
        }


@pytest.fixture(scope="module")
def replica_train():
    """The acceptance replica's data: K=200 conductivities in [1, 100] on
    a 17x17 grid, split 0.9 with seed 1 (180 training samples, rank 6)."""
    return split_dataset(gen_example1(np.linspace(1, 100, 200), 17), 0.9, seed=1)


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_replica_certificate_around_rank(replica_train, offset):
    rank = jacobi_svd(replica_train.train_u()).rank
    cert = verify_zero_loss_pipeline(replica_train, rank + offset)
    k = replica_train.train_idx.size
    assert cert.equivalence_applicable and cert.equivalence_passed
    assert cert.passed
    # branch_loss is ||C - target||^2 / K; the target is R A, whose norm
    # equals ||Phi A|| = the reconstruction's.
    target_sq = cert.u_norm_sq - cert.trunk_residual_sq
    assert cert.branch_loss <= 1e-24 * target_sq / k


def test_certificate_passes_each_network_once(replica_train, monkeypatch):
    # One trunk pass at the sensors and one branch pass at the training
    # inputs serve the whole certificate, and the assembled loss is the
    # finished model's monolithic loss bit for bit.
    width = jacobi_svd(replica_train.train_u()).rank
    f_train = replica_train.train_f()
    phi_calls, branch_passes = 0, 0

    def count_phi(*args):
        nonlocal phi_calls
        phi_calls += 1
        return real_phi(*args)

    def count_forward(net, x, *args):
        nonlocal branch_passes
        branch_passes += np.shape(x) == f_train.shape
        return real_forward(net, x, *args)

    real_phi, real_forward = deeponet.assemble_phi, nn.forward
    for module in (construct, deeponet, train):
        monkeypatch.setattr(module, "assemble_phi", count_phi)
    monkeypatch.setattr(nn, "forward", count_forward)
    cert = verify_zero_loss_pipeline(replica_train, width)
    assert (phi_calls, branch_passes) == (1, 1)
    monkeypatch.undo()

    trunk, a_star, _ = build_interpolating_trunk(replica_train.y_sensors, replica_train.train_u(), width)
    t_star, target = train.orthonormalize(trunk, a_star, replica_train.y_sensors)
    branch, _, _ = train.fit_interpolating_branch(f_train, target)
    model = DeepONetModel(trunk=trunk, branch=branch, t_matrix=t_star, width=width)
    assert cert.assembled_loss == monolithic_loss(model, replica_train)


# interpolating_relu as it was built block by block, kept verbatim as an
# independent second implementation: the library writes the same network
# straight into its parameter vector and must match it byte for byte,
# signed zeros included.

# Hat-bump building blocks: N(t) = A3 relu(A2 relu(A1 t + b1(a,b)) + b2) + b3
# equals 1 on [a, b], 0 outside [a - 1/2, b + 1/2], linear in between.
_A1 = np.array([[-2.0], [2.0]])
_A2 = -np.eye(2)
_B2 = np.ones(2)
_A3 = np.array([[1.0, 1.0]])
_B3 = -1.0
# Paired +/- channels pass a signed value through ReLU: relu(t) - relu(-t) = t.
_P = np.array([1.0, -1.0])


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
    """Inner block input map (takes (t, z) in R^{1+r}) and its mixing layer."""
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
    """Map a block's second hidden layer to (t, z + coeff * hat).

    The entry block (width 4) carries no z channels yet, so its output is
    (t, coeff * hat) and the passthrough columns are absent."""
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


def _ref_interpolating_relu(points, values, seed: int = 0) -> Mlp:
    """The deep ReLU network of hat-bump blocks whose output at points[i]
    is values[i], exact up to rounding (see the module docstring).

    points is n x d with distinct rows (DuplicateSensorError otherwise),
    values is n x r; seed drives the search for the separating direction."""
    y = np.ascontiguousarray(points, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != y.shape[0]:
        raise ShapeError(f"values shape {values.shape} != ({y.shape[0]}, r)")
    direction = find_separating_direction(y, seed=seed)
    v_scaled = direction.scale * direction.v
    projected = y @ v_scaled
    order = np.argsort(projected, kind="stable")
    # Center each hat's plateau on its point so evaluation is insensitive
    # to last-ulp differences in the projection.
    centers = projected[order]
    coeffs = values[order]
    r = values.shape[1]

    (w1, b1), (w2, b2) = _entry_block(v_scaled, centers[0] - 0.25, centers[0] + 0.25)
    weights = [w1, w2]
    biases = [b1, b2]
    out_w, out_b = _output_map(r, 4, coeffs[0])

    width = 2 * r + 4
    for j in range(1, y.shape[0]):
        (w_in, b_in), (w_mid, b_mid) = _middle_block(
            r, centers[j] - 0.25, centers[j] + 0.25
        )
        # The previous block's affine output fuses with this block's affine
        # input: no activation sits between them.
        weights += [w_in @ out_w, w_mid]
        biases += [w_in @ out_b + b_in, b_mid]
        out_w, out_b = _output_map(r, width, coeffs[j])

    # The last block's output drops the carried projection t.
    weights.append(out_w[1:])
    biases.append(out_b[1:])
    arch = tuple(w.shape[1] for w in weights) + (r,)
    return Mlp(arch=arch, weights=weights, biases=biases, activation="relu")


def _values_with_signed_zeros(rng, n, r):
    values = rng.normal(size=(n, r))
    share = rng.uniform(size=values.shape)
    values[share < 0.15] = 0.0
    values[share > 0.85] = -0.0
    return values


def _assert_same_network(got, ref):
    assert got.arch == ref.arch and got.activation == ref.activation
    assert got.params.tobytes() == ref.params.tobytes()


class TestInterpolatingReluMatchesReference:
    @pytest.mark.parametrize(
        "n, d, r",
        [
            (1, 1, 1), (2, 2, 3), (3, 3, 2), (7, 1, 9),
            (40, 2, 5), (50, 3, 4), (180, 1, 8), (289, 2, 8),
        ],
    )
    def test_shapes(self, n, d, r):
        rng = np.random.default_rng(n + d + r)
        y = rng.uniform(-1, 1, (n, d))
        values = _values_with_signed_zeros(rng, n, r)
        got = interpolating_relu(y, values, seed=n)
        _assert_same_network(got, _ref_interpolating_relu(y, values, seed=n))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 3),
        r=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
    )
    def test_property(self, n, d, r, seed, grid):
        rng = np.random.default_rng(seed)
        if grid:
            # Points on a quarter grid: exact binary fractions, some of them 0.
            cells = rng.choice(9**d, size=min(n, 9**d), replace=False)
            y = np.stack(np.unravel_index(cells, (9,) * d), axis=1) / 4.0 - 1.0
        else:
            y = rng.uniform(-1, 1, (n, d))
        values = _values_with_signed_zeros(rng, y.shape[0], r)
        got = interpolating_relu(y, values, seed=seed % 7)
        _assert_same_network(got, _ref_interpolating_relu(y, values, seed=seed % 7))


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_replica_networks_match_reference(replica_train, monkeypatch, offset):
    # The replica's trunk (289 sensors) and branch (180 scalar inputs),
    # built by each builder: same bytes, same certificate.
    def certify(builder):
        built = []

        def record(points, values, seed=0):
            built.append(builder(points, values, seed=seed))
            return built[-1]

        monkeypatch.setattr(construct, "interpolating_relu", record)
        monkeypatch.setattr(nn, "interpolating_relu", record)
        width = jacobi_svd(replica_train.train_u()).rank + offset
        cert = verify_zero_loss_pipeline(replica_train, width)
        monkeypatch.undo()
        return cert.to_dict(), built

    got, got_nets = certify(interpolating_relu)
    ref, ref_nets = certify(_ref_interpolating_relu)
    assert got == ref
    assert [net.arch[0] for net in got_nets] == [2, 1]
    for net, ref_net in zip(got_nets, ref_nets, strict=True):
        _assert_same_network(net, ref_net)
