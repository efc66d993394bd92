from pathlib import Path

import numpy as np
import pytest

from operon.data import OperatorDataset
from operon.deeponet import (
    DeepONetModel,
    MonolithicWork,
    assemble_c,
    assemble_phi,
    load_model,
    monolithic_loss,
    monolithic_loss_and_grads,
    predict,
    save_model,
)
from operon.errors import CorruptDatasetError
from operon.nn import forward, init_mlp


def _zeroed(net):
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    return net


def _small_model(seed=0, activation="tanh", width=4, m_x=3, d_y=2):
    trunk = init_mlp((d_y, 8, width), activation, "he", seed=seed)
    branch = init_mlp((m_x, 8, width + 1), activation, "he", seed=seed + 1)
    return DeepONetModel(trunk=trunk, branch=branch, t_matrix=None, width=width)


def _dataset(seed=0, m_y=7, k=5, m_x=3, d_y=2):
    rng = np.random.default_rng(seed)
    return OperatorDataset(
        x_sensors=np.zeros((m_x, 1)),
        y_sensors=rng.uniform(-1, 1, (m_y, d_y)),
        f_matrix=rng.normal(size=(k, m_x)),
        u_matrix=rng.normal(size=(m_y, k)),
    )


class TestAssemblePhi:
    def test_zero_trunk_keeps_constant_column(self):
        trunk = _zeroed(init_mlp((2, 4, 3), "relu", "he", seed=0))
        y = np.random.default_rng(0).uniform(-1, 1, (6, 2))
        phi = assemble_phi(trunk, y)
        assert np.array_equal(phi, np.hstack([np.ones((6, 1)), np.zeros((6, 3))]))

    def test_shape_many_sensors(self):
        trunk = init_mlp((2, 10, 50), "tanh", "he", seed=1)
        y = np.random.default_rng(1).uniform(-1, 1, (2049, 2))
        assert assemble_phi(trunk, y).shape == (2049, 51)

    def test_first_column_all_ones(self):
        trunk = init_mlp((2, 16, 5), "tanh", "xavier", seed=2)
        y = np.random.default_rng(2).uniform(-1, 1, (20, 2))
        assert np.array_equal(assemble_phi(trunk, y)[:, 0], np.ones(20))


class TestAssembleC:
    def test_zero_branch(self):
        branch = _zeroed(init_mlp((3, 4, 6), "relu", "he", seed=0))
        f = np.random.default_rng(0).normal(size=(9, 3))
        assert np.array_equal(assemble_c(branch, f), np.zeros((6, 9)))

    def test_shape(self):
        branch = init_mlp((1, 8, 51), "tanh", "he", seed=1)
        f = np.random.default_rng(1).normal(size=(900, 1))
        assert assemble_c(branch, f).shape == (51, 900)

    def test_duplicated_input_gives_identical_columns(self):
        branch = init_mlp((2, 8, 4), "tanh", "he", seed=2)
        f = np.tile(np.array([[0.3, -1.2]]), (5, 1))
        c = assemble_c(branch, f)
        for k in range(1, 5):
            assert np.array_equal(c[:, k], c[:, 0])


class TestPredict:
    def test_constant_coefficient_only(self):
        model = _small_model()
        _zeroed(model.branch)
        model.branch.biases[-1][0] = 2.5  # c = (2.5, 0, ..., 0)
        y = np.random.default_rng(3).uniform(-1, 1, (8, 2))
        pred = predict(model, np.zeros(3), y)
        assert np.allclose(pred, 2.5)

    def test_identity_t_matrix_bitwise(self):
        model = _small_model(seed=4)
        y = np.random.default_rng(4).uniform(-1, 1, (6, 2))
        f = np.random.default_rng(5).normal(size=3)
        base = predict(model, f, y)
        model.t_matrix = np.eye(model.width + 1)
        assert np.array_equal(predict(model, f, y), base)

    def test_matches_per_point_evaluation(self):
        model = _small_model(seed=6)
        rng = np.random.default_rng(6)
        y = rng.uniform(-1, 1, (3, 2))
        f = rng.normal(size=3)
        pred = predict(model, f, y)
        coeff = forward(model.branch, f[None, :])[0]
        for i in range(3):
            trunk_vals = forward(model.trunk, y[i][None, :])[0]
            row = np.concatenate([[1.0], trunk_vals])
            assert pred[i] == pytest.approx(float(row @ coeff), rel=1e-12)

    def test_t_matrix_equals_premultiplied_branch(self):
        # Reparameterized prediction == plain prediction with branch outputs
        # premultiplied by T.
        model = _small_model(seed=7)
        rng = np.random.default_rng(7)
        t = rng.normal(size=(model.width + 1, model.width + 1))
        y = rng.uniform(-1, 1, (10, 2))
        f = rng.normal(size=3)
        model.t_matrix = t
        with_t = predict(model, f, y)
        model.t_matrix = None
        phi = assemble_phi(model.trunk, y)
        coeff = forward(model.branch, f[None, :])[0]
        assert np.max(np.abs(with_t - phi @ (t @ coeff))) <= 1e-12


class TestMonolithicLoss:
    def test_interpolating_coefficients_give_zero(self):
        model = _small_model(seed=8)
        data = _dataset(seed=8)
        phi = assemble_phi(model.trunk, data.y_sensors)
        c = assemble_c(model.branch, data.f_matrix)
        data.u_matrix = phi @ c
        assert monolithic_loss(model, data) == pytest.approx(0.0, abs=1e-28)

    def test_zero_model_on_ones(self):
        model = _small_model(seed=9, m_x=2, d_y=1, width=1)
        _zeroed(model.trunk)
        _zeroed(model.branch)
        data = OperatorDataset(
            x_sensors=np.zeros((2, 1)),
            y_sensors=np.array([[0.0], [1.0]]),
            f_matrix=np.zeros((2, 2)),
            u_matrix=np.ones((2, 2)),
        )
        # Phi C = 0, so the loss is the mean of (0-1)^2 = 1.
        assert monolithic_loss(model, data) == pytest.approx(1.0)

    def test_loss_nonnegative(self):
        model = _small_model(seed=10)
        data = _dataset(seed=10)
        assert monolithic_loss(model, data) >= 0.0

    def test_gradients_match_finite_differences(self):
        model = _small_model(seed=11)
        data = _dataset(seed=11)
        f, u, y = data.f_matrix, data.u_matrix, data.y_sensors
        work = MonolithicWork(model, *u.shape[::-1])
        monolithic_loss_and_grads(model, f, u, y, work)
        # The finite-difference calls below overwrite the work's gradients.
        trunk_g, branch_g = work.fit.trunk.grad.copy(), work.branch.grad.copy()
        eps = 1e-6
        worst = 0.0
        for net, grad in ((model.trunk, trunk_g), (model.branch, branch_g)):
            flat = net.params
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = monolithic_loss_and_grads(model, f, u, y, work)
                flat[i] = orig - eps
                down = monolithic_loss_and_grads(model, f, u, y, work)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(grad[i])))
        assert worst <= 1e-6


class TestModelSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        model = _small_model(seed=12)
        model.t_matrix = np.random.default_rng(12).normal(
            size=(model.width + 1, model.width + 1)
        )
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(model.trunk.params, loaded.trunk.params)
        assert np.array_equal(model.branch.params, loaded.branch.params)
        assert np.array_equal(model.t_matrix, loaded.t_matrix)
        assert loaded.trunk.activation == model.trunk.activation

    def test_resave_bytes_identical(self, tmp_path):
        model = _small_model(seed=13)
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for name in ("model.json", "trunk.bin", "branch.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_failed_write_keeps_previous_directory(self, tmp_path, monkeypatch):
        save_model(_small_model(seed=16), tmp_path / "m")
        before = {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()}
        write_bytes = Path.write_bytes

        def fail_on_branch(path, data):
            if path.name == "branch.bin":
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_branch)
        newer = _small_model(seed=17)
        with pytest.raises(OSError, match="disk full"):
            save_model(newer, tmp_path / "m")
        assert {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["m"]
        monkeypatch.undo()
        save_model(newer, tmp_path / "m")
        assert np.array_equal(load_model(tmp_path / "m").trunk.params, newer.trunk.params)
        assert [p.name for p in tmp_path.iterdir()] == ["m"]

    def test_truncated_blob_detected(self, tmp_path):
        model = _small_model(seed=14)
        save_model(model, tmp_path / "m")
        blob = (tmp_path / "m" / "trunk.bin").read_bytes()
        (tmp_path / "m" / "trunk.bin").write_bytes(blob[:-8])
        with pytest.raises(CorruptDatasetError):
            load_model(tmp_path / "m")

    def test_no_t_matrix_round_trip(self, tmp_path):
        model = _small_model(seed=15)
        save_model(model, tmp_path / "m")
        assert load_model(tmp_path / "m").t_matrix is None
