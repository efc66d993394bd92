import concurrent.futures
import dataclasses
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from conftest import recording_pools, run_python
from operon import evaluate
from operon.data import gen_example1
from operon.deeponet import DeepONetModel, assemble_phi, model_basis, predict
from operon.evaluate import (
    HISTOGRAM_BINS,
    SweepSettings,
    _column_errors,
    conditional_optimal,
    error_map,
    evaluate_model,
    generalization_sweep,
    log10_histogram,
    run_two_step_once,
    truncate_prediction,
)
from operon.nn import init_mlp
from operon.train import TrainConfig, train_monolithic, train_two_step


def _one(settings, seed):
    """Stands in for a sweep run."""
    return 1.0


def _fail_below_six(settings, seed):
    if settings.k_train < 6:
        raise ValueError(f"k_train {settings.k_train}")
    return 1.0


def _worker_pid(settings, seed):
    """Stands in for a sweep run: reports which worker ran it."""
    return float(os.getpid())


def _pids(table):
    return {int(e) for row in table.rows for e in row.replicate_errors}


def _sweep_into(results):
    """Runs in a forked child: a sweep of worker PIDs, put on `results`."""
    table = generalization_sweep(SweepSettings(), "K", [4, 5], 3, max_workers=2)
    results.put(_pids(table))


# Runs two sweeps, each printing the PIDs of its workers and checking that
# none is left. It has no `__main__` guard: forked workers do not rerun it.
_TWO_SWEEPS_SCRIPT = """
import multiprocessing, os
from operon import evaluate
from operon.evaluate import SweepSettings, generalization_sweep

def pid(settings, seed):
    return float(os.getpid())

evaluate.run_two_step_once = pid
for _ in range(2):
    table = generalization_sweep(SweepSettings(), "K", [4, 5], 3, max_workers=2)
    print(*sorted({int(e) for row in table.rows for e in row.replicate_errors}))
    assert multiprocessing.active_children() == []
"""


def _run_two_sweeps_script(directory):
    """Worker PIDs printed by _TWO_SWEEPS_SCRIPT, one list per sweep, after
    it has exited 0. Its output goes to a file: a leftover worker would
    hold a pipe open."""
    script = directory / "two_sweeps.py"
    script.write_text(_TWO_SWEEPS_SCRIPT)
    with open(directory / "out.txt", "w+") as out:
        proc = run_python([str(script)], stdout=out, stderr=out, timeout=300)
        out.seek(0)
        text = out.read()
    assert proc.returncode == 0, text
    return [[int(pid) for pid in line.split()] for line in text.splitlines()]


# Runs one sweep per width given on the command line; each run reports
# the OPENBLAS_NUM_THREADS that its worker's numpy loaded BLAS with. It
# loads numpy before operon, as a caller's script may, and spawned
# workers rerun it, so a worker's BLAS is set by what it inherited.
_BLAS_SEEN_SCRIPT = """
import os, sys
SEEN = os.environ.get("OPENBLAS_NUM_THREADS")
import numpy
from operon import evaluate
from operon.evaluate import SweepSettings, generalization_sweep

def seen(settings, seed):
    return float(SEEN)

if __name__ == "__main__":
    evaluate.run_two_step_once = seen
    print(SEEN)
    for width in sys.argv[1:]:
        table = generalization_sweep(SweepSettings(), "K", [4, 5], 3, max_workers=int(width))
        print(*sorted({e for row in table.rows for e in row.replicate_errors}))
"""


def _blas_threads_seen(directory, widths):
    """Lines printed by _BLAS_SEEN_SCRIPT for a caller whose BLAS thread
    variables were 2 before it started: its own, then one per sweep."""
    script = directory / "blas_seen.py"
    script.write_text(_BLAS_SEEN_SCRIPT)
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    with open(directory / "out.txt", "w+") as out:
        proc = run_python(
            [str(script), *map(str, widths)],
            {**os.environ, **dict.fromkeys(names, "2")},
            stdout=out,
            stderr=out,
            timeout=300,
        )
        out.seek(0)
        text = out.read()
    assert proc.returncode == 0, text
    return text.splitlines()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _trained_model(seed=0, width=4, iters=300):
    data = gen_example1(np.linspace(1, 20, 12), 7, seed=seed)
    data = replace(data, train_idx=np.arange(9), test_idx=np.arange(9, 12))
    trunk = init_mlp((2, 16, width), "tanh", "he", seed=seed + 1)
    branch = init_mlp((1, 16, width + 1), "tanh", "he", seed=seed + 2)
    model = DeepONetModel(trunk=trunk, branch=branch, t_matrix=None, width=width)
    cfg = TrainConfig(method="two_step", iters_trunk=iters, iters_branch=iters, seed=seed)
    model, _ = train_two_step(data, model, cfg)
    return model, data


def _column(*values):
    return np.array(values)[:, None]


class TestRelativeL2Error:
    """_column_errors: ||prediction - target||_2 / ||target||_2 per column."""

    def test_exact_match(self):
        assert _column_errors(_column(1.0, 2.0), _column(1.0, 2.0)) == [0.0]

    def test_double_target(self):
        assert _column_errors(_column(2.0, 4.0), _column(1.0, 2.0)) == pytest.approx([1.0])

    def test_hand_value(self):
        errors = _column_errors(_column(1.0, 0.0), _column(1.0, 1.0))
        assert errors == pytest.approx([1 / np.sqrt(2)])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        p, t = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        base = _column_errors(p, t)
        scaled = _column_errors(1e6 * p, 1e6 * t)
        assert scaled == pytest.approx(base, abs=1e-14)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            _column_errors(_column(1.0, 2.0), _column(0.0, 0.0))
        # evaluate_model refuses a test sample whose output is all zero.
        model, data = _trained_model(seed=5)
        data.u_matrix[:, data.test_idx[1]] = 0.0
        with pytest.raises(ValueError, match="zero norm"):
            evaluate_model(model, data)


class TestConditionalOptimal:
    def test_target_in_span_gives_zero(self):
        model, data = _trained_model(seed=1)
        basis = assemble_phi(model.trunk, data.y_sensors) @ model.t_matrix
        coeff = np.random.default_rng(1).normal(size=model.width + 1)
        u = (basis @ coeff)[:, None]
        err = conditional_optimal(model_basis(model, data.y_sensors), u)
        assert err[0] <= 1e-10

    def test_matrix_target_equals_column_calls(self):
        model, data = _trained_model(seed=3)
        targets = data.u_matrix[:, data.test_idx]
        errors = conditional_optimal(model_basis(model, data.y_sensors), targets)
        assert errors.shape == (targets.shape[1],)
        for j in range(targets.shape[1]):
            err_j = conditional_optimal(model_basis(model, data.y_sensors), targets[:, [j]])
            assert err_j.shape == (1,)
            assert errors[j] == pytest.approx(err_j[0], rel=1e-12)

    def test_errors_scale_free_up_to_float64_limit(self):
        # Power-of-two rescaling is exact: the errors keep their bits even
        # when the targets' squares would overflow.
        model, data = _trained_model(seed=4)
        basis = model_basis(model, data.y_sensors)
        targets = data.u_matrix[:, data.test_idx]
        huge = targets * 2.0 ** (1024 - np.frexp(np.abs(targets).max())[1])
        assert np.abs(huge).max() > 8.9e307
        errors = conditional_optimal(basis, targets)
        for scaled in (huge, targets * 2.0**900):
            assert np.array_equal(conditional_optimal(basis, scaled), errors)
        assert np.array_equal(_column_errors(np.zeros_like(huge), huge), np.ones(huge.shape[1]))

    def test_never_exceeds_model_error(self):
        model, data = _trained_model(seed=2)
        for k in data.test_idx:
            u = data.u_matrix[:, [k]]
            pred = predict(model, data.f_matrix[k], data.y_sensors)[:, None]
            opt = conditional_optimal(model_basis(model, data.y_sensors), u)
            assert opt[0] <= _column_errors(pred, u)[0] + 1e-12


class TestTruncate:
    def test_identity_when_within_bound(self):
        z = np.array([0.5, -0.7])
        assert np.array_equal(truncate_prediction(z, 2.0), z)

    def test_clamps(self):
        assert np.array_equal(
            truncate_prediction(np.array([3.0, -5.0]), 2.0), np.array([2.0, -2.0])
        )

    def test_infinite_bound_is_identity(self):
        z = np.random.default_rng(3).normal(size=6) * 100
        assert np.array_equal(truncate_prediction(z, np.inf), z)

    def test_never_increases_distance_to_bounded_target(self):
        rng = np.random.default_rng(4)
        target = rng.uniform(-2, 2, 50)
        pred = rng.normal(size=50) * 5
        clamped = truncate_prediction(pred, 2.0)
        assert np.linalg.norm(clamped - target) <= np.linalg.norm(pred - target)


def _per_sample_reference(model, data, truncate_m):
    """The errors of evaluate_model, one test sample at a time."""
    rel, opt = [], []
    for k in data.test_idx:
        target = data.u_matrix[:, [k]]
        pred = predict(model, data.f_matrix[k], data.y_sensors)[:, None]
        if truncate_m is not None:
            pred = truncate_prediction(pred, truncate_m)
        rel.append(_column_errors(pred, target)[0])
        opt.append(conditional_optimal(model_basis(model, data.y_sensors), target)[0])
    return np.array(rel), np.array(opt)


class TestEvaluateModel:
    @pytest.mark.parametrize("kind", ["two_step", "van", "truncated"])
    def test_matches_per_sample_reference(self, kind):
        model, data = _trained_model(seed=10)
        truncate_m = None
        if kind == "van":
            model = DeepONetModel(
                trunk=init_mlp((2, 16, 4), "tanh", "he", seed=11),
                branch=init_mlp((1, 16, 5), "tanh", "he", seed=12),
                t_matrix=None,
                width=4,
            )
            model, _ = train_monolithic(data, model, TrainConfig(method="van", iters_mono=200))
        elif kind == "truncated":
            # Clamp well inside the data range so that truncation is active.
            truncate_m = 0.5 * float(np.max(np.abs(data.u_matrix[:, data.test_idx])))
        report = evaluate_model(model, data, truncate_m=truncate_m)
        rel, opt = _per_sample_reference(model, data, truncate_m)
        assert report.sample_indices == [int(k) for k in data.test_idx]
        assert np.allclose(report.rel_errors, rel, rtol=1e-12, atol=0.0)
        assert np.allclose(report.optimal_errors, opt, rtol=1e-12, atol=0.0)
        assert report.mean_rel_error == pytest.approx(rel.mean(), rel=1e-12)
        if kind == "truncated":
            untruncated = evaluate_model(model, data)
            assert report.rel_errors != untruncated.rel_errors

    def test_report_fields_and_optimal_bound(self):
        model, data = _trained_model(seed=7)
        report = evaluate_model(model, data)
        assert len(report.rel_errors) == data.test_idx.size
        assert all(e >= 0 for e in report.rel_errors)
        for rel, opt in zip(report.rel_errors, report.optimal_errors):
            assert opt <= rel + 1e-12

    def test_optimal_ratio(self, monkeypatch):
        model, data = _trained_model(seed=7)
        report = evaluate_model(model, data)
        assert report.optimal_ratio == report.mean_rel_error / report.mean_optimal_error
        n = data.test_idx.size
        monkeypatch.setattr(evaluate, "conditional_optimal", lambda basis, u: np.zeros(n))
        assert evaluate_model(model, data).optimal_ratio is None

    def test_trace_of_orthonormalized_basis(self):
        model, data = _trained_model(seed=8)
        phi = assemble_phi(model.trunk, data.y_sensors) @ model.t_matrix
        trace = float(np.trace(phi.T @ phi))
        assert trace == pytest.approx(model.width + 1, abs=1e-8)

    def test_histogram_counts(self):
        edges, counts = log10_histogram([1e-3, 1e-2, 1e-1])
        assert counts.sum() == 3
        assert edges.size == HISTOGRAM_BINS + 1

    def test_error_map_shape(self):
        model, data = _trained_model(seed=9)
        grid = error_map(model, data, 0)
        assert grid.shape == (data.m_y, 3)
        assert np.all(grid[:, 2] >= 0)


class TestFamilyDataset:
    @pytest.mark.parametrize("example", ["ex1", "ex3"])
    def test_test_section_independent_of_k_train(self, example):
        settings = SweepSettings(example=example, k_test=3, grid_n=5, base_seed=4)
        sections = []
        for k_train in (4, 6):
            data = evaluate._family_dataset(replace(settings, k_train=k_train), seed=9)
            assert list(data.test_idx) == list(range(k_train, k_train + 3))
            sections.append((data.f_matrix[data.test_idx], data.u_matrix[:, data.test_idx]))
        for first, second in zip(*sections):
            np.testing.assert_array_equal(first, second)


class TestSweep:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        """Every sweep's workers exit with it, whether it returned or raised."""
        yield
        assert multiprocessing.active_children() == []

    def test_axis_validation(self):
        settings = SweepSettings()
        with pytest.raises(ValueError):
            generalization_sweep(settings, "Q", [1, 2, 3], 3)
        with pytest.raises(ValueError):
            generalization_sweep(settings, "K", [5, 5, 6], 3)
        with pytest.raises(ValueError):
            generalization_sweep(settings, "K", [5, 6, 7], 2)
        with pytest.raises(ValueError):
            generalization_sweep(settings, "m_x", [2, 4], 3)
        with pytest.raises(ValueError, match="max_workers"):
            generalization_sweep(settings, "K", [4, 5, 6], 3, max_workers=0)
        with pytest.raises(ValueError, match="^values must list at least one value"):
            generalization_sweep(settings, "K", [], 3)

    def test_runs_in_table_order(self):
        settings = SweepSettings(base_seed=7)
        runs = evaluate.sweep_runs(settings, "N", [2, 5], 3)
        assert [(run.n_width, seed) for run, seed in runs] == [
            (2, 7), (2, 17), (2, 27), (5, 1007), (5, 1017), (5, 1027)
        ]
        assert all(replace(run, n_width=settings.n_width) == settings for run, _ in runs)

    @pytest.mark.parametrize(
        "field, changes, values",
        [
            ("base_seed", {"base_seed": -5}, [4, 5, 6]),
            ("k_test", {"k_test": 0}, [4, 5, 6]),
            ("example", {"example": "ex2"}, [4, 5, 6]),
            ("lr", {"lr": 0.0}, [4, 5, 6]),
            ("m_y", {"grid_n": 3, "m_y": 10}, [4, 5, 6]),
            ("k_train", {}, [0, 5, 6]),
            ("n_width", {"grid_n": 3, "n_width": 9}, [4, 5, 6]),
        ],
        ids=[
            "seed-negative", "k-test-zero", "example-ex2", "lr-zero", "m-y-over-grid",
            "axis-value-zero", "width-over-sensors",
        ],
    )
    def test_settings_refused_before_workers_start(self, monkeypatch, field, changes, values):
        # Broken base settings are refused when made; a broken swept value
        # (k_train 0) when sweep_runs makes its run settings.
        def forbidden(*args, **kwargs):
            pytest.fail("a worker pool was made for settings that cannot run")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        with pytest.raises(ValueError, match=f"^{field} "):
            generalization_sweep(SweepSettings(**changes), "K", values, 3, max_workers=2)

    def test_no_settings_break_a_rule_after_they_are_made(self):
        with pytest.raises(ValueError, match="^k_test must be >= 1, got 0$"):
            replace(SweepSettings(), k_test=0)
        settings = SweepSettings()
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.k_test = 0

    def test_tiny_sweep_deterministic(self):
        settings = SweepSettings(
            k_train=6,
            k_test=4,
            grid_n=7,
            n_width=3,
            trunk_hidden=(10,),
            branch_hidden=(10,),
            activation="tanh",
            iters_trunk=60,
            iters_branch=60,
            base_seed=1,
        )
        t1 = generalization_sweep(settings, "K", [4, 6, 8], 3)
        t2 = generalization_sweep(settings, "K", [4, 6, 8], 3)
        assert [r.replicate_errors for r in t1.rows] == [
            r.replicate_errors for r in t2.rows
        ]
        assert [r.value for r in t1.rows] == [4, 6, 8]

    def test_worker_count_does_not_change_table(self):
        settings = SweepSettings(
            k_train=5,
            k_test=3,
            grid_n=7,
            n_width=2,
            trunk_hidden=(8,),
            branch_hidden=(8,),
            activation="tanh",
            iters_trunk=40,
            iters_branch=40,
            base_seed=2,
        )
        one = generalization_sweep(settings, "m_y", [20, 30, 40], 3, max_workers=1)
        four = generalization_sweep(settings, "m_y", [20, 30, 40], 3, max_workers=4)
        assert [r.replicate_errors for r in one.rows] == [r.replicate_errors for r in four.rows]

    def test_ex3_worker_count_does_not_change_table(self):
        settings = SweepSettings(
            example="ex3",
            k_test=3,
            grid_n=5,
            n_width=2,
            trunk_hidden=(8,),
            branch_hidden=(8,),
            activation="tanh",
            iters_trunk=20,
            iters_branch=20,
            base_seed=3,
        )
        one = generalization_sweep(settings, "K", [4, 6], 3, max_workers=1)
        two = generalization_sweep(settings, "K", [4, 6], 3, max_workers=2)
        assert [r.replicate_errors for r in one.rows] == [r.replicate_errors for r in two.rows]
        assert all(np.isfinite(r.replicate_errors).all() for r in one.rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_is_first_failing_run_in_table_order(self, monkeypatch, workers):
        # The largest values are submitted first, so at 2 workers K=5
        # fails before K=4 has started.
        pools = recording_pools(monkeypatch)
        monkeypatch.setattr(evaluate, "run_two_step_once", _fail_below_six)
        before = dict(os.environ)
        with pytest.raises(ValueError, match="^k_train 4$"):
            generalization_sweep(SweepSettings(), "K", [4, 5, 6], 3, max_workers=workers)
        assert dict(os.environ) == before
        # One pool, with every run finished or cancelled when the error is raised.
        [pool] = pools
        assert len(pool.futures) == 9 and all(f.done() for f in pool.futures)

    @pytest.mark.parametrize("workers, size", [(8, 3), (2, 2), (None, 3)])
    def test_pool_sized_by_runs(self, monkeypatch, workers, size):
        pools = recording_pools(monkeypatch)
        monkeypatch.setattr(evaluate, "run_two_step_once", _one)
        generalization_sweep(SweepSettings(), "K", [4], 3, max_workers=workers)
        size = min(size, len(os.sched_getaffinity(0)))
        assert [(pool.width, pool.method) for pool in pools] == [(size, "fork")]

    def test_pool_capped_at_the_cores(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        monkeypatch.setattr(evaluate, "run_two_step_once", _one)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        table = generalization_sweep(SweepSettings(), "K", [4], 3, max_workers=8)
        assert [pool.width for pool in pools] == [1]
        assert table.rows[0].replicate_errors == [1.0] * 3

    def test_workers_compute_with_one_blas_thread(self, tmp_path):
        assert _blas_threads_seen(tmp_path, [2]) == ["2", "1.0"]

    def test_worker_started_by_a_later_sweep_is_pinned(self, tmp_path):
        # Each sweep starts its own workers.
        assert _blas_threads_seen(tmp_path, [1, 2]) == ["2", "1.0", "1.0"]

    def test_import_pins_blas_to_one_thread(self):
        # Set beforehand, in a fresh process: numpy loads BLAS only once.
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        script = f"import os, operon.evaluate; print(*map(os.environ.get, {names}))"
        proc = run_python(
            ["-c", script],
            {**os.environ, **dict(zip(names, ["2", "3", "2"]))},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert proc.stdout.split() == ["1", "1", "1"]

    def test_sweeps_in_two_threads_both_finish(self, monkeypatch):
        # Each thread's sweep forks its own pool while the other runs.
        monkeypatch.setattr(evaluate, "run_two_step_once", _one)
        with concurrent.futures.ThreadPoolExecutor(2) as threads:
            tables = list(threads.map(
                lambda width: generalization_sweep(SweepSettings(), "K", [4, 5], 3, max_workers=width),
                [1, 2],
            ))
        assert [[r.replicate_errors for r in t.rows] for t in tables] == [[[1.0] * 3] * 2] * 2

    def test_forked_child_sweeps_on_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(evaluate, "run_two_step_once", _worker_pid)
        first = generalization_sweep(SweepSettings(), "K", [4, 5], 3, max_workers=2)
        results = multiprocessing.get_context("fork").SimpleQueue()
        child = multiprocessing.get_context("fork").Process(target=_sweep_into, args=(results,))
        child.start()
        child.join(120)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0
        assert not _pids(first) & results.get()

    def test_workers_exit_with_the_interpreter(self, tmp_path):
        sweeps = _run_two_sweeps_script(tmp_path)
        assert len(sweeps) == 2 and all(1 <= len(pids) <= 2 for pids in sweeps)
        leftover = [pid for pids in sweeps for pid in pids if _alive(pid)]
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == []

    def test_bytes_independent_of_caller_blas_threads(self):
        # At these shapes a sweep run in the caller's process gives
        # different bytes with one BLAS thread than with two.
        script = (
            "from operon.evaluate import SweepSettings, generalization_sweep\n"
            "if __name__ == '__main__':\n"
            "    s = SweepSettings(k_test=5, grid_n=17, n_width=20, trunk_hidden=(20,),\n"
            "        branch_hidden=(8,), activation='tanh', iters_trunk=3, iters_branch=3,\n"
            "        lr=1e-2, base_seed=1)\n"
            "    table = generalization_sweep(s, 'K', [250], 3)\n"
            "    print([e.hex() for e in table.rows[0].replicate_errors])\n"
        )
        outputs = []
        for threads in (None, "1", "2"):
            # Without the "1"s that this process's `import operon` set.
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = run_python(
                ["-c", script], env, capture_output=True, text=True, timeout=300, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_output(self):
        settings = SweepSettings(
            k_train=5,
            k_test=3,
            grid_n=7,
            n_width=2,
            trunk_hidden=(8,),
            branch_hidden=(8,),
            activation="tanh",
            iters_trunk=30,
            iters_branch=30,
        )
        table = generalization_sweep(settings, "K", [4, 5, 6], 3)
        text = table.to_csv_text()
        lines = text.split("\r\n")
        assert lines[0] == "axis,value,mean_rel_error,std_rel_error,rep0,rep1,rep2"
        assert lines[2].split(",")[:3] == ["K", "5", repr(table.rows[1].mean_rel_error)]
        assert len(lines) == 5 and lines[-1] == ""

    def test_run_once_returns_finite_error(self):
        settings = SweepSettings(
            k_train=6,
            k_test=4,
            grid_n=7,
            n_width=3,
            trunk_hidden=(10,),
            branch_hidden=(10,),
            activation="tanh",
            iters_trunk=50,
            iters_branch=50,
        )
        err = run_two_step_once(settings, seed=0)
        assert np.isfinite(err) and err >= 0
