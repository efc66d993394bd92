import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from operon.data import OperatorDataset, split_dataset
from operon.deeponet import (
    DeepONetModel,
    assemble_c,
    assemble_phi,
    monolithic_loss,
    save_model,
)
from operon.errors import DuplicateSensorError, NonFiniteGradientError
from operon.linalg import householder_qr, least_squares, solve_upper_triangular
from operon import deeponet, nn
from operon import train as train_module
from operon.nn import init_mlp, mlp_copy
from operon.train import (
    A_INIT_SCALE,
    TrainConfig,
    check_two_step_equivalence,
    finish_two_step,
    fit_interpolating_branch,
    orthonormalize,
    report_files,
    train_branch_step2,
    train_monolithic,
    train_trunk_step1,
    train_two_step,
)


def _tiny_dataset(seed=0, m_y=10, k=4, m_x=2, d_y=2):
    rng = np.random.default_rng(seed)
    return OperatorDataset(
        x_sensors=np.zeros((m_x, 1)),
        y_sensors=rng.uniform(-1, 1, (m_y, d_y)),
        f_matrix=rng.normal(size=(k, m_x)),
        u_matrix=rng.normal(size=(m_y, k)),
    )


def _tiny_model(seed=0, width=3, m_x=2, d_y=2, activation="tanh"):
    trunk = init_mlp((d_y, 12, width), activation, "he", seed=seed)
    branch = init_mlp((m_x, 12, width + 1), activation, "he", seed=seed + 1)
    return DeepONetModel(trunk=trunk, branch=branch, t_matrix=None, width=width)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(method="nope")
        with pytest.raises(ValueError):
            TrainConfig(iters_trunk=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(schedule_factor=2.0)

    def test_no_config_breaks_a_rule_after_it_is_made(self):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            replace(TrainConfig(), lr=0.0)
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 0.0
        assert cfg.lr == 1e-3

    @pytest.mark.parametrize(
        "field",
        [
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"schedule_factor": float("nan"), "schedule_every": 10},
            {"schedule_factor": float("inf"), "schedule_every": 10},
            {"schedule_factor": 2.0, "schedule_every": 0},
            {"ls_refit_every": -1},
            {"seed": -5},
        ],
    )
    def test_value_ranges(self, field):
        with pytest.raises(ValueError):
            TrainConfig(**field)

    def test_lr_schedule(self):
        cfg = TrainConfig(lr=1e-3, schedule_factor=2.0, schedule_every=100)
        assert cfg.lr_at(0) == 1e-3
        assert cfg.lr_at(100) == 5e-4

    def test_halving_schedule_values(self):
        cfg = TrainConfig(lr=1e-3, schedule_factor=2.0, schedule_every=100_000)
        assert cfg.lr_at(0) == 1e-3
        assert cfg.lr_at(100_000) == 5e-4
        assert cfg.lr_at(250_000) == 2.5e-4

    def test_lr_past_the_float_range_is_zero(self):
        # 2.0 ** 1024 overflows; every rate before it keeps its value.
        halving = TrainConfig(lr=1e-3, schedule_factor=2.0, schedule_every=1)
        assert halving.lr_at(1023) == 1e-3 / 2.0**1023
        assert halving.lr_at(1024) == 0.0
        steep = TrainConfig(lr=1e-3, schedule_factor=1e308, schedule_every=1)
        assert steep.lr_at(1) == 1e-3 / 1e308
        assert steep.lr_at(2) == 0.0


class TestTrunkStep1:
    def test_consistent_system_with_refit_hits_zero_immediately(self):
        data = _tiny_dataset(seed=1)
        trunk = init_mlp((2, 8, 3), "tanh", "he", seed=1)
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(4, 4))
        data = replace(data, u_matrix=assemble_phi(trunk, data.y_sensors) @ a0)
        cfg = TrainConfig(iters_trunk=1, ls_refit_every=1, seed=0)
        _, _, _, _, trace = train_trunk_step1(data, trunk, cfg)
        assert trace[0] <= 1e-20

    def test_a_gradient_matches_finite_differences(self):
        data = _tiny_dataset(seed=2)
        trunk = init_mlp((2, 8, 3), "tanh", "he", seed=2)
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        u = data.u_matrix
        m_y, k = u.shape
        phi = assemble_phi(trunk, data.y_sensors)
        analytic = 2.0 / (m_y * k) * (phi.T @ (phi @ a - u))
        eps = 1e-6

        def loss(a_mat):
            r = phi @ a_mat - u
            return np.sum(r * r) / (m_y * k)

        for idx in [(0, 0), (1, 2), (3, 3)]:
            up, down = a.copy(), a.copy()
            up[idx] += eps
            down[idx] -= eps
            fd = (loss(up) - loss(down)) / (2 * eps)
            assert analytic[idx] == pytest.approx(fd, abs=1e-8)

    def test_width_must_fit_sensor_count(self):
        data = _tiny_dataset(seed=3, m_y=3)
        trunk = init_mlp((2, 8, 3), "tanh", "he", seed=3)
        with pytest.raises(ValueError, match="sensors"):
            train_trunk_step1(data, trunk, TrainConfig(iters_trunk=1))

    def test_loss_decreases(self):
        data = _tiny_dataset(seed=4)
        trunk = init_mlp((2, 12, 3), "tanh", "he", seed=4)
        _, _, _, final, trace = train_trunk_step1(
            data, trunk, TrainConfig(iters_trunk=400, seed=4)
        )
        assert final < trace[0]


class TestOrthonormalize:
    def test_equals_qr_of_trunk_basis(self):
        # T is R^-1 by triangular solves and the target is R A, for R the
        # triangular factor of the trunk basis on the sensors.
        data = _tiny_dataset(seed=5, m_y=8)
        trunk = init_mlp((2, 8, 3), "tanh", "he", seed=5)
        a_star = np.random.default_rng(5).normal(size=(4, 4))
        t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
        r = householder_qr(assemble_phi(trunk, data.y_sensors)).r
        assert np.array_equal(target, r @ a_star)
        assert np.array_equal(t_star, solve_upper_triangular(r, np.eye(4)))

    def test_phi_times_t_has_orthonormal_columns(self):
        data = _tiny_dataset(seed=6)
        trunk = init_mlp((2, 10, 3), "tanh", "he", seed=6)
        rng = np.random.default_rng(6)
        a_star = rng.normal(size=(4, 4))
        t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
        phi = assemble_phi(trunk, data.y_sensors)
        q = phi @ t_star
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-10

    def test_reparameterization_preserves_fit(self):
        data = _tiny_dataset(seed=7)
        trunk = init_mlp((2, 10, 3), "tanh", "he", seed=7)
        a_star = np.random.default_rng(7).normal(size=(4, 4))
        t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
        phi = assemble_phi(trunk, data.y_sensors)
        lhs = (phi @ t_star) @ target
        rhs = phi @ a_star
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestBranchStep2:
    def test_zero_loss_at_initialization_when_target_matches(self):
        branch = init_mlp((2, 8, 4), "tanh", "he", seed=8)
        f = np.random.default_rng(8).normal(size=(5, 2))
        target = assemble_c(branch, f)
        _, final, _, trace = train_branch_step2(
            f, target, branch, TrainConfig(iters_branch=1, seed=8)
        )
        assert trace[0] == 0.0

    def test_overparameterized_branch_fits_tiny_data(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(4, 2))
        target = rng.normal(size=(5, 4))
        branch = init_mlp((2, 64, 5), "tanh", "he", seed=9)
        _, final, _, _ = train_branch_step2(
            f, target, branch, TrainConfig(iters_branch=4000, lr=3e-3, seed=9)
        )
        assert final <= 1e-6

    def test_output_width_checked(self):
        branch = init_mlp((2, 8, 4), "tanh", "he", seed=10)
        with pytest.raises(ValueError):
            train_branch_step2(
                np.zeros((3, 2)), np.zeros((7, 3)), branch, TrainConfig()
            )


class TestTwoStep:
    def test_no_qr_sets_identity_t(self):
        data = _tiny_dataset(seed=11)
        model = _tiny_model(seed=11)
        cfg = TrainConfig(
            method="two_step_no_qr", iters_trunk=5, iters_branch=5, seed=11
        )
        model, report = train_two_step(data, model, cfg)
        assert np.array_equal(model.t_matrix, np.eye(model.width + 1))
        assert report.method == "2st-noqr"

    def test_report_carries_both_traces(self):
        data = _tiny_dataset(seed=12)
        model = _tiny_model(seed=12)
        cfg = TrainConfig(method="two_step", iters_trunk=8, iters_branch=6, seed=12)
        model, report = train_two_step(data, model, cfg)
        assert len(report.loss_trace) == 8
        assert len(report.branch_trace) == 6
        assert report.final_trunk_loss is not None
        assert report.final_branch_loss is not None
        assert np.isfinite(report.final_monolithic_loss)

    def test_determinism(self):
        traces = []
        for _ in range(2):
            data = _tiny_dataset(seed=13)
            model = _tiny_model(seed=13)
            cfg = TrainConfig(method="two_step", iters_trunk=20, iters_branch=20, seed=13)
            _, report = train_two_step(data, model, cfg)
            traces.append((tuple(report.loss_trace), tuple(report.branch_trace)))
        assert traces[0] == traces[1]

    def test_running_minimum_nonincreasing(self):
        data = _tiny_dataset(seed=14)
        model = _tiny_model(seed=14)
        cfg = TrainConfig(method="two_step", iters_trunk=100, iters_branch=100, seed=14)
        _, report = train_two_step(data, model, cfg)
        for trace in (report.loss_trace, report.branch_trace):
            running = np.minimum.accumulate(trace)
            assert np.all(np.diff(running) <= 0)

    def test_equivalence_with_refit_and_interpolating_branch(self):
        # With exact least-squares coefficients and an interpolating branch,
        # the assembled loss must reproduce the step-1 loss.
        data = _tiny_dataset(seed=15, m_y=12, k=5)
        trunk = init_mlp((2, 10, 3), "tanh", "he", seed=15)
        cfg = TrainConfig(iters_trunk=50, ls_refit_every=1, seed=15)
        trunk, a_star, _, s1, _ = train_trunk_step1(data, trunk, cfg)
        t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
        branch, branch_loss, _ = fit_interpolating_branch(data.train_f(), target, seed=15)
        model = DeepONetModel(trunk=trunk, branch=branch, t_matrix=t_star, width=3)
        assembled = monolithic_loss(model, data)
        check = check_two_step_equivalence(data, assembled, s1, branch_loss, target)
        assert check.applicable
        assert check.passed
        assert abs(check.assembled_loss - s1) <= 1e-10 * s1 + 1e-20


def _artifact_bytes(model, directory):
    save_model(model, directory)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestFinishTwoStep:
    @pytest.mark.parametrize("method", ["two_step", "two_step_no_qr"])
    def test_step1_plus_finish_is_train_two_step(self, tmp_path, method):
        data = split_dataset(_tiny_dataset(seed=16, k=8), 0.75, seed=16)
        cfg = TrainConfig(method=method, iters_trunk=30, iters_branch=20, seed=16)
        whole, whole_report = train_two_step(data, _tiny_model(seed=16), cfg)
        model = _tiny_model(seed=16)
        step1 = train_trunk_step1(data, model.trunk, cfg)
        split, split_report = finish_two_step(data, model, step1, cfg)
        assert _artifact_bytes(whole, tmp_path / "whole") == _artifact_bytes(split, tmp_path / "split")
        for report in (whole_report, split_report):
            report.wall_seconds = 0.0
        assert whole_report == split_report

    def test_finishes_leave_step1_unchanged(self):
        data = split_dataset(_tiny_dataset(seed=17, k=8), 0.75, seed=17)
        cfg = TrainConfig(iters_trunk=20, iters_branch=10, seed=17)
        step1 = train_trunk_step1(data, _tiny_model(seed=17).trunk, cfg)
        trunk, a_star, phi, loss, trace = step1
        saved = (trunk.params.copy(), a_star.copy(), phi.copy(), loss, list(trace))
        models = []
        for method in ("two_step", "two_step_no_qr", "two_step"):
            model, report = finish_two_step(
                data, _tiny_model(seed=17), step1, replace(cfg, method=method)
            )
            models.append(model)
            assert report.loss_trace == saved[4]
            assert report.final_trunk_loss == loss
        assert np.array_equal(trunk.params, saved[0])
        assert np.array_equal(a_star, saved[1])
        assert np.array_equal(phi, saved[2])
        assert trace == saved[4]
        assert all(model.trunk is trunk for model in models)
        # Finishing the same step 1 the same way twice gives the same model.
        assert np.array_equal(models[0].t_matrix, models[2].t_matrix)
        assert np.array_equal(models[0].branch.params, models[2].branch.params)
        assert np.array_equal(models[1].t_matrix, np.eye(4))

    @pytest.mark.parametrize("method", ["two_step", "two_step_no_qr"])
    def test_each_trained_network_passes_once(self, monkeypatch, method):
        # After training, one trunk pass at the sensors and one branch pass
        # at the training inputs serve the final losses, the QR and the
        # finished model's loss, which is its monolithic_loss bit for bit.
        data = split_dataset(_tiny_dataset(seed=19, k=8), 0.75, seed=19)
        cfg = TrainConfig(method=method, iters_trunk=10, iters_branch=10, ls_refit_every=4, seed=19)
        calls = {"assemble_phi": 0, "assemble_c": 0}

        def counted(name, real):
            def count(*args):
                calls[name] += 1
                return real(*args)
            return count

        for name in calls:
            wrapper = counted(name, getattr(deeponet, name))
            for module in (train_module, deeponet):
                monkeypatch.setattr(module, name, wrapper)
        model, report = train_two_step(data, _tiny_model(seed=19), cfg)
        assert calls == {"assemble_phi": 1, "assemble_c": 1}
        monkeypatch.undo()
        assert report.final_monolithic_loss == monolithic_loss(model, data)

    def test_assembled_loss_past_the_float_range_is_refused(self):
        # Both steps end with finite losses, but the no-QR model's basis is
        # the raw Phi: trunk outputs near 1e200 against an A near 1e-200
        # make Phi C overflow once C leaves A.
        data = split_dataset(_tiny_dataset(seed=20, k=8), 0.75, seed=20)
        cfg = TrainConfig(method="two_step_no_qr", iters_trunk=1, iters_branch=1, seed=20)
        trunk, a_star, _, loss, trace = train_trunk_step1(data, _tiny_model(seed=20).trunk, cfg)
        trunk.weights[-1][...] *= 1e200
        trunk.biases[-1][...] *= 1e200
        step1 = (trunk, a_star * 1e-200, assemble_phi(trunk, data.y_sensors), loss, trace)
        with pytest.raises(NonFiniteGradientError, match=r"after the last update \(iteration 1\)"):
            finish_two_step(data, _tiny_model(seed=20), step1, cfg)

    def test_rejects_model_with_t(self):
        data = _tiny_dataset(seed=18)
        cfg = TrainConfig(iters_trunk=3, iters_branch=3, seed=18)
        step1 = train_trunk_step1(data, _tiny_model(seed=18).trunk, cfg)
        model = _tiny_model(seed=18)
        model.t_matrix = np.eye(4)
        with pytest.raises(ValueError, match="without T"):
            finish_two_step(data, model, step1, cfg)


class TestStartCheck:
    @pytest.mark.parametrize(
        "trainer, method",
        [
            (train_monolithic, "two_step"),
            (train_monolithic, "two_step_no_qr"),
            (train_two_step, "van"),
            (finish_two_step, "van"),
        ],
        ids=["van-two_step", "van-two_step_no_qr", "two_step-van", "finish-van"],
    )
    def test_foreign_method_refused_before_any_step(self, monkeypatch, trainer, method):
        data = _tiny_dataset(seed=24)
        cfg = TrainConfig(method=method, iters_trunk=3, iters_branch=3, iters_mono=3, seed=24)
        step1 = train_trunk_step1(data, _tiny_model(seed=24).trunk, cfg)

        def forbidden(*args):
            pytest.fail("an Adam step ran")

        monkeypatch.setattr(train_module, "adam_step", forbidden)
        args = (step1, cfg) if trainer is finish_two_step else (cfg,)
        with pytest.raises(ValueError, match=f"method {method!r} is not one"):
            trainer(data, _tiny_model(seed=24), *args)


class TestMonolithic:
    def test_trace_length_and_final(self):
        data = _tiny_dataset(seed=16)
        model = _tiny_model(seed=16)
        cfg = TrainConfig(method="van", iters_mono=30, seed=16)
        model, report = train_monolithic(data, model, cfg)
        assert len(report.loss_trace) == 30
        assert report.method == "van"
        assert report.final_monolithic_loss == pytest.approx(
            monolithic_loss(model, data)
        )

    def test_zero_problem_stays_zero(self):
        data = _tiny_dataset(seed=17)
        data = replace(data, u_matrix=np.zeros_like(data.u_matrix))
        model = _tiny_model(seed=17)
        for net in (model.trunk, model.branch):
            net.weights[-1][...] = 0.0
            net.biases[-1][...] = 0.0
        cfg = TrainConfig(method="van", iters_mono=10, seed=17)
        _, report = train_monolithic(data, model, cfg)
        assert all(v == 0.0 for v in report.loss_trace)

    def test_rejects_model_with_t(self):
        data = _tiny_dataset(seed=18)
        model = _tiny_model(seed=18)
        model.t_matrix = np.eye(model.width + 1)
        with pytest.raises(ValueError):
            train_monolithic(data, model, TrainConfig(method="van"))

    def test_nonfinite_abort_reports_iteration(self):
        data = _tiny_dataset(seed=19)
        model = _tiny_model(seed=19)
        model.trunk.weights[0][0, 0] = np.nan
        cfg = TrainConfig(method="van", iters_mono=5, seed=19)
        with pytest.raises(NonFiniteGradientError, match="iteration 1"):
            train_monolithic(data, model, cfg)


class TestOneForwardPass:
    """Every training iteration's forward pass is nn.forward with the
    loop's Workspace, the function the per-layer benchmark traces."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = nn.forward

        def counting(net, x, work=None):
            calls.append((net, isinstance(work, nn.Workspace)))
            return real(net, x, work)

        monkeypatch.setattr(nn, "forward", counting)
        return calls

    @staticmethod
    def _training_passes(calls, net):
        return sum(1 for called, with_work in calls if called is net and with_work)

    def test_two_step(self, passes):
        cfg = TrainConfig(method="two_step", iters_trunk=7, iters_branch=5, seed=20)
        model, _ = train_two_step(_tiny_dataset(seed=20), _tiny_model(seed=20), cfg)
        assert self._training_passes(passes, model.trunk) == 7
        assert self._training_passes(passes, model.branch) == 5

    def test_monolithic(self, passes):
        cfg = TrainConfig(method="van", iters_mono=6, seed=21)
        model, _ = train_monolithic(_tiny_dataset(seed=21), _tiny_model(seed=21), cfg)
        assert self._training_passes(passes, model.trunk) == 6
        assert self._training_passes(passes, model.branch) == 6


class TestInterpolatingBranch:
    def test_interpolates_small_target(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(6, 2))
        target = rng.normal(size=(4, 6))
        branch, loss, _ = fit_interpolating_branch(f, target, seed=20)
        rel = loss * 6 / np.sum(target * target)
        assert rel <= 1e-20

    def test_reproduces_random_target(self):
        rng = np.random.default_rng(21)
        f = rng.normal(size=(60, 3))
        target = rng.normal(size=(7, 60))
        branch, loss, c = fit_interpolating_branch(f, target, seed=21)
        assert branch.activation == "relu" and branch.arch[-1] == 7
        assert c.tobytes() == assemble_c(branch, f).tobytes()
        assert loss * 60 <= 1e-24 * np.sum(target * target)

    def test_duplicate_inputs_rejected(self):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(10, 2))
        f[7] = f[2]
        with pytest.raises(DuplicateSensorError, match="2 and 7"):
            fit_interpolating_branch(f, rng.normal(size=(3, 10)), seed=23)


class TestReportIo:
    def test_report_files_two_step(self):
        data = _tiny_dataset(seed=22)
        model = _tiny_model(seed=22)
        cfg = TrainConfig(method="two_step", iters_trunk=4, iters_branch=3, seed=22)
        _, report = train_two_step(data, model, cfg)
        files = report_files(report)
        assert sorted(files) == ["report.json", "trace_branch.csv", "trace_trunk.csv"]
        # The traces live only in the CSVs; report.json holds the scalars.
        fields = json.loads(files["report.json"])
        assert sorted(fields) == [
            "final_branch_loss", "final_monolithic_loss", "final_trunk_loss",
            "method", "wall_seconds",
        ]
        assert fields["final_trunk_loss"] == report.final_trunk_loss
        trunk_csv = files["trace_trunk.csv"].split("\r\n")
        assert trunk_csv[0] == "iter,loss"
        assert trunk_csv[1:] == [f"{i},{v!r}" for i, v in enumerate(report.loss_trace)] + [""]
        assert files["trace_branch.csv"].count("\r\n") == 1 + cfg.iters_branch

    def test_report_files_van(self):
        data = _tiny_dataset(seed=23)
        model = _tiny_model(seed=23)
        cfg = TrainConfig(method="van", iters_mono=4, seed=23)
        _, report = train_monolithic(data, model, cfg)
        files = report_files(report)
        assert sorted(files) == ["report.json", "trace_mono.csv"]
        assert "loss_trace" not in json.loads(files["report.json"])


# Allocating reference of the training loops as they were written before
# they moved into reused buffers: every iteration builds new arrays, and
# Adam runs once per parameter array. The library loops must reproduce
# these bit for bit.


def _ref_act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _ref_forward_cached(net, x):
    h, acts = x, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = _ref_act(h @ w.T + b, net.activation)
        acts.append(h)
    acts.append(h @ net.weights[-1].T + net.biases[-1])
    return acts


def _ref_backward(net, x, upstream, cache):
    upstream = np.ascontiguousarray(upstream)
    grads_w, grads_b = [None] * len(net.weights), [None] * len(net.weights)
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        inp = x if l == 0 else cache[l - 1]
        grads_w[l] = delta.T @ inp
        grads_b[l] = np.sum(delta, axis=0)
        if l > 0:
            deriv = inp > 0.0 if net.activation == "relu" else 1.0 - inp * inp
            delta = (delta @ net.weights[l]) * deriv
    return np.concatenate([a.ravel() for pair in zip(grads_w, grads_b) for a in pair])


def _ref_adam_loop(step, params, iters, cfg):
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    trace = []
    for t in range(1, iters + 1):
        loss, grads = step(t)
        trace.append(loss)
        lr = cfg.lr_at(t - 1)
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient (at iteration {t})")
        bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, mm, vv in zip(params, grads, m, v):
            mm *= b1
            mm += (1.0 - b1) * g
            vv *= b2
            vv += (1.0 - b2) * (g * g)
            p -= lr * (mm / bias1) / (np.sqrt(vv / bias2) + eps)
    return trace


def _ref_phi(values):
    return np.hstack([np.ones((values.shape[0], 1)), values])


def _ref_step1(data, trunk, cfg):
    u = np.ascontiguousarray(data.train_u())
    m_y, k = u.shape
    y = data.y_sensors
    a = np.random.default_rng(cfg.seed).normal(0.0, A_INIT_SCALE, size=(trunk.arch[-1] + 1, k))
    scale = 2.0 / (m_y * k)

    def step(t):
        cache = _ref_forward_cached(trunk, y)
        phi = _ref_phi(cache[-1])
        if cfg.ls_refit_every > 0 and (t - 1) % cfg.ls_refit_every == 0:
            a[...] = least_squares(phi, u)
        resid = phi @ a - u
        loss = float(np.sum(resid * resid)) / (m_y * k)
        upstream = scale * (resid @ a.T)[:, 1:]
        return loss, [_ref_backward(trunk, y, upstream, cache), scale * (phi.T @ resid)]

    trace = _ref_adam_loop(step, [trunk.params, a], cfg.iters_trunk, cfg)
    if cfg.ls_refit_every > 0:
        a[...] = least_squares(_ref_phi(_ref_forward_cached(trunk, y)[-1]), u)
    return a, trace


def _ref_step2(f, target, branch, cfg):
    k = target.shape[1]

    def step(t):
        cache = _ref_forward_cached(branch, f)
        diff = cache[-1].T - target
        loss = float(np.sum(diff * diff)) / k
        return loss, [_ref_backward(branch, f, (2.0 / k) * diff.T, cache)]

    return _ref_adam_loop(step, [branch.params], cfg.iters_branch, cfg)


def _ref_van(data, model, cfg):
    f, u, y = data.train_f(), np.ascontiguousarray(data.train_u()), data.y_sensors
    m_y, k = u.shape
    scale = 2.0 / (m_y * k)

    def step(t):
        trunk_cache = _ref_forward_cached(model.trunk, y)
        branch_cache = _ref_forward_cached(model.branch, f)
        phi = _ref_phi(trunk_cache[-1])
        c = branch_cache[-1].T
        resid = phi @ c - u
        loss = float(np.sum(resid * resid)) / (m_y * k)
        trunk_up = scale * (resid @ c.T)[:, 1:]
        branch_up = scale * (phi.T @ resid).T
        return loss, [
            _ref_backward(model.trunk, y, trunk_up, trunk_cache),
            _ref_backward(model.branch, f, branch_up, branch_cache),
        ]

    return _ref_adam_loop(step, [model.trunk.params, model.branch.params], cfg.iters_mono, cfg)


def _ref_data(seed):
    return split_dataset(_tiny_dataset(seed=seed, m_y=40, k=30, m_x=3), 0.7, seed=seed)


def _ref_model(seed, activation):
    # Widths off the BLAS kernels' block sizes: at smaller shapes a change
    # of operand layout, such as h @ ascontiguousarray(W.T), kept its bits.
    trunk = init_mlp((2, 24, 17, 4), activation, "he", seed=seed)
    branch = init_mlp((3, 20, 13, 5), activation, "he", seed=seed + 1)
    return DeepONetModel(trunk=trunk, branch=branch, t_matrix=None, width=4)


_SCHEDULE = dict(lr=1e-2, schedule_factor=2.0, schedule_every=7)


class TestMatchesAllocatingReference:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("method", ["two_step", "two_step_no_qr"])
    @pytest.mark.parametrize("refit", [0, 4])
    def test_two_step_bit_identical(self, method, refit, activation):
        data = _ref_data(seed=31)
        cfg = TrainConfig(
            method=method, iters_trunk=25, iters_branch=20, seed=31, ls_refit_every=refit, **_SCHEDULE
        )
        model, report = train_two_step(data, _ref_model(31, activation), cfg)
        _, a_star, _, _, _ = train_trunk_step1(data, _ref_model(31, activation).trunk, cfg)

        ref = _ref_model(31, activation)
        a_ref, trunk_trace = _ref_step1(data, ref.trunk, cfg)
        if method == "two_step_no_qr":
            t_ref, target = np.eye(5), a_ref
        else:
            t_ref, target = orthonormalize(ref.trunk, a_ref, data.y_sensors)
        branch_trace = _ref_step2(data.train_f(), target, ref.branch, cfg)

        assert report.loss_trace == trunk_trace
        assert report.branch_trace == branch_trace
        assert model.trunk.params.tobytes() == ref.trunk.params.tobytes()
        assert a_star.tobytes() == a_ref.tobytes()
        assert model.t_matrix.tobytes() == t_ref.tobytes()
        assert model.branch.params.tobytes() == ref.branch.params.tobytes()

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_van_bit_identical(self, activation):
        data = _ref_data(seed=32)
        cfg = TrainConfig(method="van", iters_mono=30, seed=32, **_SCHEDULE)
        model, report = train_monolithic(data, _ref_model(32, activation), cfg)
        ref = _ref_model(32, activation)
        trace = _ref_van(data, ref, cfg)
        assert report.loss_trace == trace
        assert model.trunk.params.tobytes() == ref.trunk.params.tobytes()
        assert model.branch.params.tobytes() == ref.branch.params.tobytes()

    def test_trained_nets_keep_one_params_vector(self):
        data = _ref_data(seed=33)
        cfg = TrainConfig(method="van", iters_mono=3, seed=33)
        van, _ = train_monolithic(data, _ref_model(33, "tanh"), cfg)
        cfg = TrainConfig(iters_trunk=3, iters_branch=3, seed=33)
        two_step, _ = train_two_step(data, _ref_model(33, "tanh"), cfg)
        trunk, a_star, _, _, _ = train_trunk_step1(data, _ref_model(33, "tanh").trunk, cfg)
        for net in (van.trunk, van.branch, two_step.trunk, two_step.branch, trunk):
            assert net.params.flags.c_contiguous and net.params.flags.owndata
            for view in net.weights + net.biases:
                assert np.shares_memory(view, net.params)
        assert not np.shares_memory(a_star, trunk.params)

    def test_nan_in_a_gradient_names_iteration(self, monkeypatch):
        from operon import train as train_module

        real = train_module.fit_loss_and_grads
        calls = []

        def poisoned(trunk, y, c, u, c_grad, work):
            loss = real(trunk, y, c, u, c_grad, work)
            calls.append(1)
            if len(calls) == 3:
                c_grad[-1, -1] = np.nan
                assert np.all(np.isfinite(work.trunk.grad))
            return loss

        monkeypatch.setattr(train_module, "fit_loss_and_grads", poisoned)
        data = _ref_data(seed=34)
        with pytest.raises(NonFiniteGradientError, match="iteration 3"):
            train_trunk_step1(data, _ref_model(34, "tanh").trunk, TrainConfig(iters_trunk=5, seed=34))

    def test_second_run_from_a_copy_leaves_the_first_untouched(self):
        data = _ref_data(seed=35)
        cfg = TrainConfig(method="two_step", iters_trunk=10, iters_branch=10, seed=35)
        first, _ = train_two_step(data, _ref_model(35, "tanh"), cfg)
        saved = (first.trunk.params.tobytes(), first.branch.params.tobytes(), first.t_matrix.tobytes())
        copy = DeepONetModel(mlp_copy(first.trunk), mlp_copy(first.branch), None, first.width)
        train_monolithic(data, copy, TrainConfig(method="van", iters_mono=10, seed=35))
        second, _ = train_two_step(
            data, DeepONetModel(mlp_copy(first.trunk), mlp_copy(first.branch), None, first.width), cfg
        )
        assert not np.shares_memory(second.trunk.params, first.trunk.params)
        assert (first.trunk.params.tobytes(), first.branch.params.tobytes(), first.t_matrix.tobytes()) == saved
