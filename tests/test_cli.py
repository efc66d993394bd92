import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recording_pools, run_python
from operon import cli
from operon.cli import _SWEEP_SCHEMA, _TRAIN_SCHEMA, _from_config, _load_config, main
from operon.data import _is_int, load_dataset
from operon.deeponet import MODEL_KEYS, ModelSpec
from operon.evaluate import SweepSettings
from operon.train import TrainConfig


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ex1"
    code = main(
        [
            "generate",
            "--example",
            "ex1",
            "--grid-n",
            "7",
            "--k",
            "20",
            "--out",
            str(path),
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def ex2_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ex2"
    assert main(
        ["generate", "--example", "ex2", "--grid-n", "9", "--k", "20", "--out", str(path), "--seed", "1"]
    ) == 0
    return path


@pytest.fixture(scope="module")
def ex1_grid17_dir(tmp_path_factory):
    """ex1 at grid 17 with K 250: products large enough for OpenBLAS to
    split them between threads."""
    path = tmp_path_factory.mktemp("data") / "ex1_17"
    assert main(["generate", "--example", "ex1", "--grid-n", "17", "--k", "250", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def scaled_dirs(tmp_path_factory):
    """ex1 at grid 5 with K 12, its U scaled by 1e160 and by 1e-160: the
    entries are finite, but their squares leave the float64 range."""
    base = tmp_path_factory.mktemp("data")
    assert main(["generate", "--example", "ex1", "--grid-n", "5", "--k", "12", "--out", str(base / "ex1")]) == 0
    dirs = {}
    for scale in (1e160, 1e-160):
        path = dirs[scale] = base / f"scaled_{scale:g}"
        shutil.copytree(base / "ex1", path)
        u = np.frombuffer((path / "U.bin").read_bytes(), "<f8") * scale
        (path / "U.bin").write_bytes(u.astype("<f8").tobytes())
    return dirs


@pytest.fixture(scope="module")
def nine_sensor_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ex1_3"
    assert main(["generate", "--example", "ex1", "--grid-n", "3", "--k", "12", "--out", str(path)]) == 0
    return path


def _bytes_under_caller_blas_threads(tmp_path, argv_for):
    """Run `python -m operon.cli` with argv_for(out) three times, with the
    caller's BLAS thread variables unset, OPENBLAS_NUM_THREADS=1 and =2,
    each into its own out. Returns per run the files written, name ->
    bytes; out may be a directory or a single file."""
    runs = []
    for threads in (None, "1", "2"):
        # Without the "1"s that this process's `import operon` set.
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"run_{threads}"
        run_python(
            ["-m", "operon.cli", *argv_for(out)], env, capture_output=True, timeout=300, check=True
        )
        runs.append(_snapshot(out) if out.is_dir() else {out.name: out.read_bytes()})
    return runs


def _train_config(tmp_path, **overrides):
    config = {
        "seed": 1,
        "trunk_arch": [2, 12, 4],
        "branch_arch": [1, 12, 5],
        "activation": "tanh",
        "init": "he",
        "iters_trunk": 40,
        "iters_branch": 40,
        "iters_mono": 40,
        "lr": 1e-3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _snapshot(directory):
    """File name -> bytes of every file in directory."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _fail_writing(monkeypatch, name):
    """Make Path.write_bytes raise OSError("disk full") for files called name."""
    write_bytes = Path.write_bytes

    def failing(path, data):
        if path.name == name:
            raise OSError("disk full")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", failing)


def _assert_write_failed(code, capsys, out, before):
    """Exit 1 with one error line; out keeps its bytes and no hidden
    sibling is left next to it."""
    assert code == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert _snapshot(out) == before
    assert not [p.name for p in out.parent.iterdir() if p.name.startswith(".")]


def _must_not_run(monkeypatch, module, name):
    """Replace module.name by a function that fails the test when called:
    the command must refuse its --out before doing this work."""
    def forbidden(*args, **kwargs):
        pytest.fail(f"{name} ran before --out was checked")
    monkeypatch.setattr(module, name, forbidden)


def _fail_below_six_sensors(settings, seed):
    """Stands in for a sweep run."""
    if settings.m_y < 6:
        raise ValueError(f"m_y {settings.m_y}")
    return 1.0


class TestGenerate:
    def test_dataset_written_with_split(self, dataset_dir):
        data = load_dataset(dataset_dir)
        assert data.n_samples == 20
        assert data.train_idx.size == 18
        assert data.m_y == 49

    def test_invalid_grid_exits_2(self, tmp_path):
        code = main(
            ["generate", "--example", "ex1", "--grid-n", "2", "--k", "5", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_bad_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--example", "nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.2", "nan"])
    def test_train_fraction_out_of_range_exits_2(self, tmp_path, capsys, fraction):
        out = tmp_path / "x"
        code = main(
            ["generate", "--example", "ex1", "--grid-n", "5", "--k", "5", "--out", str(out),
             "--train-fraction", fraction]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --train-fraction") and err.count("\n") == 1
        assert not out.exists()

    def test_ex3_generation(self, tmp_path):
        code = main(
            ["generate", "--example", "ex3", "--grid-n", "5", "--k", "10", "--out", str(tmp_path / "d3")]
        )
        assert code == 0
        assert load_dataset(tmp_path / "d3").m_x == 3

    def test_ex2_on_grid_7(self, tmp_path):
        # Grid 7 has face midpoints on the disk edge.
        code = main(
            ["generate", "--example", "ex2", "--grid-n", "7", "--k", "12", "--out", str(tmp_path / "d2")]
        )
        assert code == 0
        assert load_dataset(tmp_path / "d2").m_x == 49

    def test_ex2_solver_failure_names_beta(self, tmp_path, monkeypatch, capsys):
        from operon import data as data_module
        from operon.errors import SolverError

        def stall(operator, rhs):
            raise SolverError("conjugate gradient stalled", system=1)

        monkeypatch.setattr(data_module, "_conjugate_gradient", stall)
        code = main(
            ["generate", "--example", "ex2", "--grid-n", "7", "--k", "12", "--out", str(tmp_path / "d2")]
        )
        assert code == 1
        beta = float(np.linspace(0.01, 10.0, 12)[1])
        assert capsys.readouterr().err == f"error: beta={beta!r}: conjugate gradient stalled\n"
        assert not (tmp_path / "d2").exists()


class TestTrain:
    def test_two_step_writes_artifacts(self, dataset_dir, tmp_path):
        config = _train_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
        )
        assert code == 0
        for name in ("model.json", "trunk.bin", "branch.bin", "t_matrix.bin",
                     "report.json", "trace_trunk.csv", "trace_branch.csv"):
            assert (out / name).exists(), name

    def test_van_writes_single_trace(self, dataset_dir, tmp_path):
        config = _train_config(tmp_path)
        out = tmp_path / "run_van"
        code = main(
            ["train", "--method", "van", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
        )
        assert code == 0
        assert (out / "trace_mono.csv").exists()
        assert not (out / "trace_trunk.csv").exists()

    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path):
        config = _train_config(tmp_path, learning_rate=0.5)
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_missing_dataset_exits_1(self, tmp_path):
        config = _train_config(tmp_path)
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_wrong_arch_exits_2(self, dataset_dir, tmp_path):
        config = _train_config(tmp_path, branch_arch=[1, 12, 9])
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_schedule_past_the_float_range_trains(self, dataset_dir, tmp_path, capsys):
        # factor ** 2 overflows a float at the second step: the rate is 0 from there.
        config = _train_config(
            tmp_path, trunk_arch=[2, 4, 3], branch_arch=[1, 4, 4], iters_trunk=3,
            schedule_factor=1e308, schedule_every=1,
        )
        args = ["train", "--config", str(config), "--data", str(dataset_dir)]
        for method in ("2st", "van"):
            assert main(args + ["--method", method, "--out", str(tmp_path / method)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["2st", "van"])
    def test_overflowing_loss_exits_1(self, scaled_dirs, tmp_path, capsys, method):
        # The squared residual overflows at the first step; Adam would
        # stall on it and report.json would hold Infinity.
        out = tmp_path / "run"
        code = main(
            ["train", "--method", method, "--config", str(_train_config(tmp_path)),
             "--data", str(scaled_dirs[1e160]), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("(at iteration 1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["2st", "van"])
    def test_overflowing_loss_writes_only_the_error_line(self, scaled_dirs, tmp_path, method):
        # pytest captures numpy's warnings; a fresh interpreter shows what
        # the user sees on stderr.
        proc = run_python(
            ["-m", "operon.cli", "train", "--method", method,
             "--config", str(_train_config(tmp_path)), "--data", str(scaled_dirs[1e160]),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: loss is inf (at iteration 1)\n"

    @pytest.mark.parametrize(
        "method, refit", [("van", 0), ("2st", 0), ("2st-noqr", 0), ("2st", 1)],
        ids=["van", "2st", "2st-noqr", "2st-refit"],
    )
    def test_loss_after_last_update_not_finite_exits_1(self, dataset_dir, tmp_path, method, refit):
        # The one update leaves the float range; only the loss after it,
        # evaluated past the training loop, shows that, and the trunk gets
        # no final refit. A fresh interpreter shows numpy's warnings, if
        # any, on stderr.
        config = _train_config(
            tmp_path, trunk_arch=[2, 8, 8, 4], branch_arch=[1, 8, 5], activation="relu",
            iters_trunk=1, iters_branch=1, iters_mono=1, lr=1e300, ls_refit_every=refit,
        )
        out = tmp_path / "run"
        proc = run_python(
            ["-m", "operon.cli", "train", "--method", method, "--config", str(config),
             "--data", str(dataset_dir), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: loss is ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(" after the last update (iteration 1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("method, expected", [("2st", 2), ("2st-noqr", 2), ("van", 0)])
    def test_width_over_sensors(self, nine_sensor_dir, tmp_path, capsys, monkeypatch, method, expected):
        # The two-step methods need width + 1 <= m_y; van trains at any width.
        _must_not_run(monkeypatch, cli, "train_two_step")
        config = _train_config(tmp_path, trunk_arch=[2, 4, 9], branch_arch=[1, 4, 10], iters_mono=3)
        code = main(
            ["train", "--method", method, "--config", str(config),
             "--data", str(nine_sensor_dir), "--out", str(tmp_path / "run")]
        )
        assert code == expected
        if expected == 2:
            assert capsys.readouterr().err == (
                "error: config key trunk_arch: width+1 (10) must not exceed "
                "the number of output sensors (9)\n"
            )

    def test_deterministic_model_bytes(self, dataset_dir, tmp_path):
        config = _train_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"det_{tag}"
            assert main(
                ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
            ) == 0
            outs.append(out)
        for name in ("trunk.bin", "branch.bin", "t_matrix.bin", "trace_trunk.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_model_bytes_independent_of_caller_blas_threads(self, ex1_grid17_dir, tmp_path):
        # At these shapes a model trained with two BLAS threads differs
        # from one trained with one.
        config = _train_config(
            tmp_path, trunk_arch=[2, 40, 40, 20], branch_arch=[1, 48, 21], iters_trunk=20, iters_branch=20
        )
        runs = _bytes_under_caller_blas_threads(
            tmp_path,
            lambda out: ["train", "--method", "2st", "--config", str(config), "--data", str(ex1_grid17_dir),
                         "--out", str(out)],
        )
        models = [{name: run[name] for name in run if name.endswith(".bin") or name == "model.json"} for run in runs]
        assert sorted(models[0]) == ["branch.bin", "model.json", "t_matrix.bin", "trunk.bin"]
        assert models[0] == models[1] == models[2]

    def test_failed_write_keeps_previous_run(self, dataset_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        args = ["train", "--config", str(_train_config(tmp_path)), "--data", str(dataset_dir), "--out", str(out)]
        assert main(args + ["--method", "van"]) == 0
        before = _snapshot(out)
        _fail_writing(monkeypatch, "trace_branch.csv")
        capsys.readouterr()
        _assert_write_failed(main(args + ["--method", "2st"]), capsys, out, before)

    def test_foreign_out_directory_exits_1(self, dataset_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        _must_not_run(monkeypatch, cli, "train_two_step")
        code = main(
            ["train", "--method", "2st", "--config", str(_train_config(tmp_path)),
             "--data", str(dataset_dir), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds no model.json" in err and err.count("\n") == 1
        assert _snapshot(out) == {"notes.txt": b"keep me"}


def _broken_copy(src, dst, name, edit=None, blob_value=None):
    """Copy an artifact directory, then replace its JSON manifest `name` by
    edit(manifest) or set the first float64 of blob `name` to blob_value."""
    shutil.copytree(src, dst)
    path = dst / name
    if edit is not None:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    else:
        raw = bytearray(path.read_bytes())
        raw[:8] = np.array([blob_value], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
    return dst


@pytest.fixture(scope="module")
def trained(dataset_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    config = _train_config(tmp)
    out = tmp / "model"
    assert main(
        ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
    ) == 0
    return out


class TestEval:
    def test_eval_bytes_independent_of_caller_blas_threads(self, ex1_grid17_dir, tmp_path):
        model = tmp_path / "model"
        config = _train_config(
            tmp_path, trunk_arch=[2, 40, 40, 20], branch_arch=[1, 48, 21], iters_trunk=20, iters_branch=20
        )
        assert main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(ex1_grid17_dir), "--out", str(model)]
        ) == 0
        # Held-out samples enough for the products to be split between threads.
        data = tmp_path / "ex1_17_held_out"
        assert main(
            ["generate", "--example", "ex1", "--grid-n", "17", "--k", "250", "--train-fraction", "0.1", "--out", str(data)]
        ) == 0
        runs = _bytes_under_caller_blas_threads(
            tmp_path, lambda out: ["eval", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert len(json.loads(runs[0]["eval.json"])["rel_errors"]) == 225
        assert runs[0] == runs[1] == runs[2]

    def test_eval_artifacts(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out), "--map-index", "0"]
        )
        assert code == 0
        report = json.loads((out / "eval.json").read_text())
        assert "mean_rel_error" in report
        for rel, opt in zip(report["rel_errors"], report["optimal_errors"]):
            assert opt <= rel + 1e-12
        assert (out / "histogram.csv").exists()
        assert (out / "error_map_0.csv").exists()

    def test_eval_reports_optimal_ratio(self, trained, dataset_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out)]) == 0
        report = json.loads((out / "eval.json").read_text())
        ratio = report["mean_rel_error"] / report["mean_optimal_error"]
        assert report["optimal_ratio"] == ratio and ratio >= 1.0
        assert f", ratio {ratio:.4f} -> " in capsys.readouterr().out

    @pytest.mark.parametrize("index", ["999", "-1"])
    def test_map_index_out_of_range_exits_2(self, trained, dataset_dir, tmp_path, capsys, index):
        code = main(
            ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(tmp_path / "e"), "--map-index", index]
        )
        assert code == 2
        assert "error: --map-index" in capsys.readouterr().err

    def test_model_manifest_missing_key_exits_1(self, trained, dataset_dir, tmp_path, capsys):
        broken = _broken_copy(
            trained, tmp_path / "model", "model.json", lambda m: {k: v for k, v in m.items() if k != "width"}
        )
        code = main(
            ["eval", "--model", str(broken), "--data", str(dataset_dir), "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert "missing key 'width'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trunk_activation", "sigmoid"),
            ("trunk_arch", ["a", 6, 4]),
            ("width", "4"),
            ("has_t_matrix", "yes"),
        ],
        ids=["activation-sigmoid", "arch-not-int", "width-string", "t-flag-string"],
    )
    def test_model_manifest_schema_exits_1(self, trained, dataset_dir, tmp_path, capsys, key, value):
        broken = _broken_copy(trained, tmp_path / "model", "model.json", lambda m: {**m, key: value})
        code = main(["eval", "--model", str(broken), "--data", str(dataset_dir), "--out", str(tmp_path / "e")])
        assert code == 1
        assert f"error: model.json {key}" in capsys.readouterr().err

    def test_model_blob_not_finite_exits_1(self, trained, dataset_dir, tmp_path, capsys):
        broken = _broken_copy(trained, tmp_path / "model", "trunk.bin", blob_value=np.nan)
        code = main(["eval", "--model", str(broken), "--data", str(dataset_dir), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "error: trunk.bin contains NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: {**m, "K": "8"},
            lambda m: {**m, "split": {"train": m["split"]["train"]}},
            lambda m: [],
        ],
        ids=["K-string", "split-without-test", "list-manifest"],
    )
    def test_dataset_manifest_schema_exits_1(self, trained, dataset_dir, tmp_path, capsys, edit):
        broken = _broken_copy(dataset_dir, tmp_path / "data", "manifest.json", edit)
        code = main(["eval", "--model", str(trained), "--data", str(broken), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "error: manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, name", [("model", "model.json"), ("data", "manifest.json")])
    @pytest.mark.parametrize(
        "content", [b"[" * 100_000, b"\xff\xfe{}"], ids=["nested-too-deep", "not-utf8"]
    )
    def test_unparsable_manifest_exits_1(self, trained, dataset_dir, tmp_path, capsys, artifact, name, content):
        # JSON nested past the parser's recursion limit raises RecursionError.
        dirs = {"model": trained, "data": dataset_dir}
        dirs[artifact] = shutil.copytree(dirs[artifact], tmp_path / artifact)
        (dirs[artifact] / name).write_bytes(content)
        code = main(["eval", "--model", str(dirs["model"]), "--data", str(dirs["data"]), "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable {name}") and err.count("\n") == 1

    @pytest.mark.parametrize("blob, value", [("U.bin", np.nan), ("F.bin", np.inf)])
    def test_dataset_blob_not_finite_exits_1(self, trained, dataset_dir, tmp_path, capsys, blob, value):
        broken = _broken_copy(dataset_dir, tmp_path / "data", blob, blob_value=value)
        code = main(["eval", "--model", str(trained), "--data", str(broken), "--out", str(tmp_path / "e")])
        assert code == 1
        assert f"error: {blob} contains NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["0", "-1.5", "nan"])
    def test_truncate_out_of_range_exits_2(self, trained, dataset_dir, tmp_path, capsys, bound):
        out = tmp_path / "e"
        code = main(
            ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out), "--truncate", bound]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --truncate") and err.count("\n") == 1
        assert not out.exists()

    def test_rerun_replaces_whole_directory(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        args = ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out)]
        assert main(args + ["--map-index", "0", "--map-index", "2"]) == 0
        assert main(args + ["--map-index", "1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["error_map_1.csv", "eval.json", "histogram.csv"]

    def test_failed_write_keeps_previous_eval(self, trained, dataset_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "eval"
        args = ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out)]
        assert main(args + ["--map-index", "0"]) == 0
        before = _snapshot(out)
        _fail_writing(monkeypatch, "histogram.csv")
        capsys.readouterr()
        _assert_write_failed(main(args + ["--map-index", "1"]), capsys, out, before)

    def test_foreign_out_directory_exits_1(self, trained, dataset_dir, tmp_path, monkeypatch, capsys):
        (tmp_path / "notes.txt").write_text("keep me")
        _must_not_run(monkeypatch, cli.ev, "evaluate_model")
        code = main(["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds no eval.json" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]

    def test_truncate_flag(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "eval_t"
        code = main(
            ["eval", "--model", str(trained), "--data", str(dataset_dir), "--out", str(out), "--truncate", "10.0"]
        )
        assert code == 0


class TestCertify:
    def test_certificate_bytes_independent_of_caller_blas_threads(self, ex1_grid17_dir, tmp_path):
        runs = _bytes_under_caller_blas_threads(
            tmp_path, lambda out: ["certify", "--data", str(ex1_grid17_dir), "--N", "8", "--out", str(out)]
        )
        certs = [cert for run in runs for cert in run.values()]
        assert json.loads(certs[0])["passed"] is True
        assert certs[0] == certs[1] == certs[2]

    def test_pass_certificate(self, dataset_dir, tmp_path):
        from operon.linalg import jacobi_svd

        rank = jacobi_svd(load_dataset(dataset_dir).train_u()).rank
        out = tmp_path / "cert.json"
        code = main(
            ["certify", "--data", str(dataset_dir), "--N", str(rank), "--out", str(out)]
        )
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["passed"] is True
        assert cert["rank"] == rank

    def test_below_rank_certificate(self, dataset_dir, tmp_path):
        from operon.linalg import jacobi_svd

        rank = jacobi_svd(load_dataset(dataset_dir).train_u()).rank
        code = main(["certify", "--data", str(dataset_dir), "--N", str(rank - 1)])
        assert code == 0

    def test_readme_example_at_and_above_rank(self, tmp_path):
        from operon.linalg import jacobi_svd

        data = tmp_path / "ex1"
        assert main(
            ["generate", "--example", "ex1", "--grid-n", "17", "--k", "200", "--out", str(data), "--seed", "1"]
        ) == 0
        rank = jacobi_svd(load_dataset(data).train_u()).rank
        for width in (rank, rank + 2):
            out = tmp_path / f"cert_{width}.json"
            code = main(["certify", "--data", str(data), "--N", str(width), "--out", str(out)])
            assert code == 0, f"N={width}"
            assert json.loads(out.read_text())["equivalence_applicable"] is True

    @pytest.mark.parametrize("width", ["1", "2", "3", "4"])
    def test_constant_in_output_space_certifies(self, ex2_dir, tmp_path, capsys, width):
        # ex2's kappa fields are 1 + (beta - 1) * disk: U has rank 2 and the
        # constant function in its column space.
        out = tmp_path / "cert.json"
        code = main(["certify", "--data", str(ex2_dir), "--N", width, "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["passed"] is True and cert["rank"] == 2
        assert capsys.readouterr().out == out.read_text()

    def test_failed_write_keeps_previous_certificate(self, ex2_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "cert.json"
        assert main(["certify", "--data", str(ex2_dir), "--N", "1", "--out", str(out)]) == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        capsys.readouterr()
        code = main(["certify", "--data", str(ex2_dir), "--N", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_width_below_one_exits_2(self, tmp_path, capsys, width):
        # The dataset is never read: a missing one would exit 1.
        code = main(["certify", "--data", str(tmp_path / "missing"), "--N", width])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --N") and err.count("\n") == 1

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_output_norm_outside_float64_exits_1(self, scaled_dirs, tmp_path, capsys, scale):
        # The checks compare squared norms, which overflow or underflow here.
        out = tmp_path / "cert.json"
        code = main(["certify", "--data", str(scaled_dirs[scale]), "--N", "2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ||U_train||_F^2") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_width_over_sensors_exits_2(self, nine_sensor_dir, capsys, monkeypatch):
        _must_not_run(monkeypatch, cli, "verify_zero_loss_pipeline")
        code = main(["certify", "--data", str(nine_sensor_dir), "--N", "9"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --N: width+1 (10) must not exceed the number of output sensors (9)\n"
        )

    def test_corrupt_dataset_exits_1(self, dataset_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        blob = (broken / "U.bin").read_bytes()
        (broken / "U.bin").write_bytes(blob[:-16])
        code = main(["certify", "--data", str(broken), "--N", "4"])
        assert code == 1


class TestSweep:
    def _sweep_config(self, tmp_path):
        config = {
            "seed": 2,
            "example": "ex1",
            "k_test": 4,
            "grid_n": 7,
            "n_width": 3,
            "trunk_hidden": [10],
            "branch_hidden": [10],
            "activation": "tanh",
            "iters_trunk": 30,
            "iters_branch": 30,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        return path

    def test_sweep_table_and_determinism(self, tmp_path, monkeypatch):
        config = self._sweep_config(tmp_path)
        csvs = []
        for tag in ("a", "b"):
            out = tmp_path / f"sweep_{tag}"
            code = main(
                ["sweep", "--axis", "K", "--values", "4,6,8", "--replicates", "3",
                 "--config", str(config), "--out", str(out)]
            )
            assert code == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "sweep.csv").write_bytes(b"previous table\r\n")
        before = _snapshot(out)
        _fail_writing(monkeypatch, "sweep.csv")
        code = main(
            ["sweep", "--axis", "K", "--values", "4,6,8", "--replicates", "3",
             "--config", str(self._sweep_config(tmp_path)), "--out", str(out)]
        )
        _assert_write_failed(code, capsys, out, before)

    def test_foreign_out_directory_exits_1(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        _must_not_run(monkeypatch, cli.ev, "generalization_sweep")
        code = main(
            ["sweep", "--axis", "K", "--values", "4,6,8", "--replicates", "3",
             "--config", str(self._sweep_config(tmp_path)), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds no sweep.csv" in err and err.count("\n") == 1
        assert _snapshot(out) == {"notes.txt": b"keep me"}

    def test_nonincreasing_values_exit_2(self, tmp_path, capsys):
        config = self._sweep_config(tmp_path)
        code = main(
            ["sweep", "--axis", "K", "--values", "8,6", "--replicates", "3",
             "--config", str(config), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: values must be strictly increasing, got [8, 6]\n"

    def test_width_axis_sweep(self, tmp_path, monkeypatch):
        # The same table from one usable core and from two.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "example": "ex1", "k_train": 8, "k_test": 4, "grid_n": 5, "n_width": 3,
            "trunk_hidden": [6], "branch_hidden": [6], "activation": "tanh",
            "iters_trunk": 5, "iters_branch": 5,
        }))
        csvs = []
        for cores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            out = tmp_path / f"cores_{cores}"
            code = main(
                ["sweep", "--axis", "N", "--values", "2,4,6", "--replicates", "3",
                 "--config", str(config), "--out", str(out)]
            )
            assert code == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        header, *rows = csvs[0].decode().splitlines()
        assert header == "axis,value,mean_rel_error,std_rel_error,rep0,rep1,rep2"
        assert [row.split(",")[:2] for row in rows] == [["N", "2"], ["N", "4"], ["N", "6"]]
        errors = np.array([row.split(",")[4:] for row in rows], dtype=float)
        assert np.all(np.isfinite(errors)) and np.all(errors > 0)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_first_failing_value_reported(self, tmp_path, monkeypatch, capsys, cores):
        # Runs of the largest value start first; the error is still that
        # of the first failing value, with one worker or two. The forked
        # workers see the stand-in. A run that fails once every setting was
        # accepted is a runtime error, whatever its type.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(cli.ev, "run_two_step_once", _fail_below_six_sensors)
        out = tmp_path / "x"
        code = main(
            ["sweep", "--axis", "m_y", "--values", "4,5,6", "--replicates", "3",
             "--config", str(self._sweep_config(tmp_path)), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: m_y 4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("m_y", "2,3,4", "config key n_width 3: width+1 (4) must not exceed the number of output sensors (2)"),
            ("m_y", "0,3,4", "--values: m_y must lie in [1, 49], got 0"),
            ("N", "3,49", "--values: n_width 49: width+1 (50) must not exceed the number of output sensors (49)"),
        ],
        ids=["width-over-m_y", "m_y-zero", "width-over-grid"],
    )
    def test_run_settings_refused_before_runs(self, tmp_path, monkeypatch, capsys, axis, values, message):
        _must_not_run(monkeypatch, cli.ev, "generalization_sweep")
        out = tmp_path / "x"
        code = main(
            ["sweep", "--axis", axis, "--values", values, "--replicates", "3",
             "--config", str(self._sweep_config(tmp_path)), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_pool_is_runs_capped_at_the_cores(self, tmp_path, monkeypatch):
        # Nine runs: as many workers as usable cores, and the same table
        # from one worker.
        pools = recording_pools(monkeypatch)
        config = self._sweep_config(tmp_path)
        cores = len(os.sched_getaffinity(0))
        csvs = []
        for tag in ("all", "one"):
            if tag == "one":
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            out = tmp_path / tag
            code = main(
                ["sweep", "--axis", "K", "--values", "4,6,8", "--replicates", "3",
                 "--config", str(config), "--out", str(out)]
            )
            assert code == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert [pool.width for pool in pools] == [min(9, cores), 1]
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--example", "ex1", "--k", "100000000000000"],
            ["generate", "--example", "ex1", "--grid-n", "10000000"],
            ["sweep", "--axis", "K", "--values", "4,100000000000000", "--replicates", "3"],
        ],
        ids=["generate-k", "generate-grid", "sweep-k-in-a-worker"],
    )
    def test_array_too_large_exits_1(self, tmp_path, capsys, argv):
        # Each first allocation asks for about 728 TiB, so none succeeds.
        if argv[0] == "sweep":
            argv = [*argv, "--config", str(self._sweep_config(tmp_path))]
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


def _arch(entry):
    return {"trunk_arch": [2, entry, 4]}


class TestConfigBoundary:
    """Each bad entry exits 2 with a single error line, before anything is
    trained or written."""

    @staticmethod
    def _assert_usage_error(code, capsys, out):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "overrides",
        [
            _arch("x"),
            _arch(6.5),
            _arch([6]),
            _arch(True),
            _arch(0),
            {"activation": "sigmoid"},
            {"init": "foo"},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"seed": -5},
            {"a_init_scale": -1},
        ],
        ids=[
            "arch-string", "arch-float", "arch-nested", "arch-bool", "arch-zero",
            "activation-sigmoid", "init-foo", "lr-nan", "lr-inf", "seed-negative",
            "a-init-scale-negative",
        ],
    )
    def test_train_config_exits_2(self, dataset_dir, tmp_path, capsys, overrides):
        config = _train_config(tmp_path, **overrides)
        out = tmp_path / "run"
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
        )
        self._assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trunk_hidden": [[8]]}, "config key trunk_hidden must be a list of positive ints"),
            ({"trunk_hidden": [8.7]}, "config key trunk_hidden must be a list of positive ints"),
            ({"branch_hidden": [True]}, "config key branch_hidden must be a list of positive ints"),
            ({"k_test": 0}, "config key k_test must be >= 1, got 0"),
            ({"seed": -5}, "config key seed must be >= 0, got -5"),
        ],
        ids=["hidden-nested", "hidden-float", "hidden-bool", "k-test-zero", "seed-negative"],
    )
    def test_sweep_config_exits_2(self, tmp_path, capsys, monkeypatch, overrides, message):
        # Refused before the sweep, so no worker starts.
        _must_not_run(monkeypatch, cli.ev, "generalization_sweep")
        config = {
            "example": "ex1", "k_test": 4, "grid_n": 7, "n_width": 3, "trunk_hidden": [10],
            "branch_hidden": [10], "activation": "tanh", "iters_trunk": 5, "iters_branch": 5,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**config, **overrides}))
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--axis", "K", "--values", "4,6,8", "--replicates", "3",
             "--config", str(path), "--out", str(out)]
        )
        assert message in self._assert_usage_error(code, capsys, out)

    def test_config_nested_too_deep_exits_2(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        out = tmp_path / "run"
        code = main(
            ["train", "--method", "2st", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]
        )
        self._assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--example", "ex1", "--seed", "-1"],
            ["generate", "--example", "ex3", "--seed", "-1"],
            ["generate", "--example", "ex3", "--k", "2000000"],
            ["certify", "--N", "2", "--seed", "-1"],
        ],
        ids=["seed-negative", "ex3-seed-negative", "ex3-k-above-lattice", "certify-seed-negative"],
    )
    def test_flag_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # Nothing is generated and the dataset is not read: a missing one
        # would exit 1.
        for name in ("gen_example1", "gen_example3", "triplet_grid_sample"):
            _must_not_run(monkeypatch, cli, name)
        out = tmp_path / "missing"
        code = main([*argv, "--out" if argv[0] == "generate" else "--data", str(out)])
        err = self._assert_usage_error(code, capsys, out)
        assert err.startswith(f"error: {argv[-2]} ")

    @pytest.mark.parametrize("fraction", ["0.95", "0.04"], ids=["test-empty", "train-empty"])
    def test_generate_empty_split_side_exits_2(self, tmp_path, capsys, fraction):
        out = tmp_path / "d"
        code = main(
            ["generate", "--example", "ex1", "--grid-n", "5", "--k", "10", "--out", str(out),
             "--train-fraction", fraction]
        )
        self._assert_usage_error(code, capsys, out)

    def test_config_values_parse_to_dataclasses(self, tmp_path):
        path = _train_config(tmp_path, lr=1, schedule_factor=2, schedule_every=5)
        config = _load_config(str(path), _TRAIN_SCHEMA)
        assert _from_config(TrainConfig, config, method="van") == TrainConfig(
            method="van", iters_trunk=40, iters_branch=40, iters_mono=40, lr=1.0,
            schedule_factor=2.0, schedule_every=5, seed=1,
        )
        assert _from_config(ModelSpec, config) == ModelSpec((2, 12, 4), (1, 12, 5), "tanh", "he")
        path.write_text(json.dumps({"seed": 3, "init": "xavier", "branch_hidden": [], "beta_hi": 50}))
        config = _load_config(str(path), _SWEEP_SCHEMA)
        assert _from_config(SweepSettings, config) == SweepSettings(
            base_seed=3, init_scheme="xavier", branch_hidden=(), beta_hi=50.0
        )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _near(value):
    """Values close to a valid one: off-by-one and extreme ints, an int
    list with one entry changed or dropped, and the other JSON types."""
    if _is_int(value):
        return st.sampled_from([value - 1, value + 1, 0, -value, 2**63]) | _JSON
    if isinstance(value, list) and value and all(map(_is_int, value)):
        edits = st.tuples(st.integers(0, len(value) - 1), st.integers(-3, 2**64))
        return edits.map(lambda e: value[: e[0]] + [e[1]] + value[e[0] + 1:]) | st.just(value[:-1]) | _JSON
    return _JSON


def _mutations(manifest, keys):
    """('drop', key) or ('set', key, value) over the given keys."""
    drops = st.sampled_from(keys).map(lambda key: ("drop", key))
    sets = st.sampled_from(keys).flatmap(
        lambda key: _near(manifest.get(key)).map(lambda value: ("set", key, value))
    )
    return drops | sets


def _apply(manifest, mutation):
    edited = {k: v for k, v in manifest.items() if k != mutation[1]}
    if mutation[0] == "set":
        edited[mutation[1]] = mutation[2]
    return edited


def _other_type(value):
    """A JSON value whose JSON type differs from value's (bool and int count
    as different; null is left out because a null split is valid)."""
    kind = lambda v: "int" if _is_int(v) else type(v).__name__
    return _JSON.filter(lambda v: v is not None and kind(v) != kind(value))


class TestLoaderFuzz:
    """Mutated model.json and dataset manifest.json files and blobs go
    through `operon eval` in process: every run exits 0, 1 or 2, and a
    failure is one `error:` line, never a traceback. Mutations that break a
    checked manifest key's type, or drop it, must fail."""

    FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

    @pytest.fixture(scope="class")
    def workspace(self, trained, dataset_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        shutil.copytree(trained, root / "model")
        shutil.copytree(dataset_dir, root / "data")
        return root

    @staticmethod
    def _eval(workspace, name, content):
        """Run eval with one file's bytes replaced; return (code, stderr)."""
        if not isinstance(content, bytes):
            content = json.dumps(content).encode()
        target = workspace / name
        original = target.read_bytes()
        target.write_bytes(content)
        out = workspace / "eval"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(
                    ["eval", "--model", str(workspace / "model"), "--data",
                     str(workspace / "data"), "--out", str(out)]
                )
        finally:
            target.write_bytes(original)
        err = err.getvalue()
        if code == 0:
            assert (out / "eval.json").exists()
        else:
            assert code in (1, 2)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        return code, err

    @staticmethod
    def _manifest(workspace, name):
        return json.loads((workspace / name).read_text())

    @given(data=st.data())
    @FUZZ
    def test_model_manifest_values(self, workspace, data):
        manifest = self._manifest(workspace, "model/model.json")
        mutation = data.draw(_mutations(manifest, sorted(manifest) + ["extra"]))
        self._eval(workspace, "model/model.json", _apply(manifest, mutation))

    @given(data=st.data())
    @FUZZ
    def test_model_manifest_types(self, workspace, data):
        manifest = self._manifest(workspace, "model/model.json")
        key = data.draw(st.sampled_from(MODEL_KEYS))
        value = data.draw(st.none() | _other_type(manifest[key]))
        edited = _apply(manifest, ("drop", key) if value is None else ("set", key, value))
        code, _ = self._eval(workspace, "model/model.json", edited)
        assert code == 1

    @given(data=st.data())
    @FUZZ
    def test_dataset_manifest_values(self, workspace, data):
        manifest = self._manifest(workspace, "data/manifest.json")
        split = manifest["split"]
        keys = sorted(manifest) + ["extra"]
        mutation = data.draw(
            _mutations(manifest, keys)
            | _mutations(split, ["train", "test"]).map(lambda m: ("set", "split", _apply(split, m)))
        )
        self._eval(workspace, "data/manifest.json", _apply(manifest, mutation))

    @given(data=st.data())
    @FUZZ
    def test_dataset_manifest_types(self, workspace, data):
        manifest = self._manifest(workspace, "data/manifest.json")
        key = data.draw(st.sampled_from(["m_x", "m_y", "K", "d_x", "d_y", "params", "split"]))
        value = data.draw(_other_type(manifest[key]))
        if key in ("m_x", "m_y", "K", "d_x", "d_y"):
            value = data.draw(st.sampled_from([value, None]))
        edited = _apply(manifest, ("drop", key) if value is None else ("set", key, value))
        code, _ = self._eval(workspace, "data/manifest.json", edited)
        assert code == 1

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("model/model.json", lambda m: {**m, "dtype": "f32be"}),
            ("model/model.json", lambda m: {k: v for k, v in m.items() if k != "dtype"}),
            ("data/manifest.json", lambda m: {**m, "dtype": "f32be"}),
            ("data/manifest.json", lambda m: {k: v for k, v in m.items() if k != "dtype"}),
            ("model/model.json", lambda m: {**m, "has_t_matrix": False}),
        ],
        ids=["model-dtype-f32be", "model-dtype-missing", "data-dtype-f32be", "data-dtype-missing",
             "t-matrix-unannounced"],
    )
    def test_manifest_disagrees_with_files(self, workspace, name, edit):
        code, err = self._eval(workspace, name, edit(self._manifest(workspace, name)))
        assert code == 1
        assert "dtype" in err or "t_matrix.bin exists" in err

    def test_target_near_float64_limit(self, workspace):
        # Squares of such an entry overflow; the errors must not.
        manifest = self._manifest(workspace, "data/manifest.json")
        k = manifest["K"]
        raw = bytearray((workspace / "data/U.bin").read_bytes())
        at = 8 * (3 * k + manifest["split"]["test"][0])  # row 3, first test column
        raw[at : at + 8] = np.array([1e308], "<f8").tobytes()
        code, _ = self._eval(workspace, "data/U.bin", bytes(raw))
        assert code == 0
        report = json.loads((workspace / "eval" / "eval.json").read_text())
        assert all(np.isfinite(report["rel_errors"] + report["optimal_errors"]))

    @given(data=st.data())
    @FUZZ
    def test_blob_bytes(self, workspace, data):
        name = data.draw(st.sampled_from(
            ["model/trunk.bin", "model/branch.bin", "model/t_matrix.bin", "data/x_sensors.bin",
             "data/y_sensors.bin", "data/F.bin", "data/U.bin"]
        ))
        raw = (workspace / name).read_bytes()
        if data.draw(st.booleans()):
            edited = (raw + bytes(16))[: data.draw(st.integers(0, len(raw) + 16))]
        else:
            special = st.sampled_from([np.nan, -np.inf, 1e308, -0.0, 5e-324])
            word = data.draw(special.map(lambda v: np.array([v], "<f8").tobytes()) | st.binary(min_size=8, max_size=8))
            at = 8 * data.draw(st.integers(0, len(raw) // 8 - 1))
            edited = raw[:at] + word + raw[at + 8:]
        self._eval(workspace, name, edited)
