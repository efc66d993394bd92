"""The benchmark's workloads.

Each workload makes its inputs from the seed, sets up (data, model init
and an untimed warm-up of each operation it times), then runs rounds of
timed operations and checks the output of every one. Shapes are fixed;
`tiny` shrinks them for the benchmark's own smoke check.

Operations call operon through module attributes (`train.train_two_step`)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from operon import construct, data, deeponet, evaluate, nn, train

# Desk-scale replica from the acceptance suite, at shortened iteration counts.
REPLICA_LR = dict(lr=1e-2, schedule_factor=2.0, schedule_every=2500)
REPLICA_ITERS = 100  # trunk and branch iterations per two-step run; van runs twice as many
SWEEP_ITERS = 150  # trunk and branch iterations per sweep run
WARMUP_ITERS = 10


@dataclass
class Op:
    """One timed operation and the verdict on its output.

    `failed` counts toward the failed share: the program raised, reported a
    failure itself (a certificate that did not pass), or a check rejected
    its output. `wrong` marks only the last case, an output the program
    handed back as good that the benchmark's checks reject."""

    kind: str
    seconds: float
    work: int
    failed: bool = False
    wrong: bool = False
    raised: bool = False
    note: str = ""
    digest: str = ""


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.tracer = None

    def _timed(self, kind: str, work: int, fn, *args, **kwargs):
        """Run one operation with tracing switched on for its duration only.
        Returns (result, Op); an exception becomes a failed Op."""
        if self.tracer is not None:
            self.tracer.op += 1
            self.tracer.active = True
        start = time.perf_counter()
        try:
            result, note = fn(*args, **kwargs), ""
        except Exception as exc:  # every failure is counted, never fatal
            result, note = None, f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
        raised = result is None
        return result, Op(kind, seconds, work, failed=raised, raised=raised, note=note)

    @staticmethod
    def _reject(op: Op, problems: list[str]) -> None:
        if problems:
            op.failed = op.wrong = True
            op.note = "; ".join(problems)


def _median_rate(ops: list[Op], kind: str) -> tuple[float, int]:
    rates = [op.work / op.seconds for op in ops if op.kind == kind and not op.failed]
    return (statistics.median(rates) if rates else 0.0), len(rates)


def _file_digest(directory: Path, extra: list[list[float] | None]) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    for trace in extra:
        h.update(np.asarray(trace if trace is not None else [], dtype="<f8").tobytes())
    return h.hexdigest()


# The acceptance replica's split seed; certify always runs on that split.
REPLICA_SPLIT_SEED = 1


def _replica_data(seed: int, tiny: bool) -> data.OperatorDataset:
    """ex1 with beta evenly spaced in [1, 100]; the seed picks the split."""
    grid, k = (9, 20) if tiny else (17, 200)
    return data.split_dataset(
        data.gen_example1(np.linspace(1.0, 100.0, k), grid), 0.9, seed=seed
    )


class ReplicaTrain(Workload):
    name = "replica"
    METHODS = (("train_2st", "two_step"), ("train_noqr", "two_step_no_qr"), ("train_van", "van"))

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.trunk_arch = (2, 8, 8, 6) if tiny else (2, 50, 50, 50, 50)
        self.branch_arch = (1, 8, 7) if tiny else (1, 64, 51)
        self.iters = 5 if tiny else REPLICA_ITERS

    def shapes(self) -> dict:
        return {
            "data": "ex1 beta in [1,100], split 0.9",
            "grid_n": self.data.meta["grid_n"],
            "m_y": self.data.m_y,
            "K": self.data.n_samples,
            "K_train": int(self.data.train_idx.size),
            "trunk_arch": list(self.trunk_arch),
            "branch_arch": list(self.branch_arch),
            "activation": "tanh",
            "iters_trunk": self.iters,
            "iters_branch": self.iters,
            "iters_mono": 2 * self.iters,
            **REPLICA_LR,
        }

    def setup(self) -> None:
        self.data = _replica_data(self.seed, self.tiny)
        self.trunk0 = nn.init_mlp(self.trunk_arch, "tanh", "he", seed=self.seed + 11)
        self.branch0 = nn.init_mlp(self.branch_arch, "tanh", "he", seed=self.seed + 12)
        for _, method in self.METHODS:
            self._fit(method)(self.data, self._model(), self._config(method, WARMUP_ITERS))

    def _config(self, method: str, iters: int) -> train.TrainConfig:
        return train.TrainConfig(
            method=method,
            iters_trunk=iters,
            iters_branch=iters,
            iters_mono=2 * iters,
            seed=self.seed + 5,
            **REPLICA_LR,
        )

    def _model(self) -> deeponet.DeepONetModel:
        return deeponet.DeepONetModel(
            nn.mlp_copy(self.trunk0), nn.mlp_copy(self.branch0), None, self.trunk_arch[-1]
        )

    @staticmethod
    def _fit(method: str):
        return train.train_monolithic if method == "van" else train.train_two_step

    def round(self) -> list[Op]:
        ops = []
        for kind, method in self.METHODS:
            cfg = self._config(method, self.iters)
            work = cfg.iters_mono if method == "van" else cfg.iters_trunk + cfg.iters_branch
            result, op = self._timed(kind, work, self._fit(method), self.data, self._model(), cfg)
            if result is not None:
                model, report = result
                self._reject(op, self._check(method, model, report, cfg))
                model_dir = self.scratch / "model"
                shutil.rmtree(model_dir, ignore_errors=True)
                deeponet.save_model(model, model_dir)
                op.digest = _file_digest(model_dir, [report.loss_trace, report.branch_trace])
            ops.append(op)
        return ops

    def _check(self, method, model, report, cfg) -> list[str]:
        problems = []
        if method == "van":
            expected = [(report.loss_trace, cfg.iters_mono)]
        else:
            expected = [(report.loss_trace, cfg.iters_trunk), (report.branch_trace, cfg.iters_branch)]
        for trace, length in expected:
            if trace is None or len(trace) != length:
                problems.append(f"loss trace length {0 if trace is None else len(trace)} != {length}")
            elif not np.all(np.isfinite(trace)):
                problems.append("loss trace is not finite")
        if not math.isfinite(report.final_monolithic_loss):
            problems.append("final loss is not finite")
        if method == "two_step":
            basis = deeponet.assemble_phi(model.trunk, self.data.y_sensors) @ model.t_matrix
            gap = float(np.linalg.norm(basis.T @ basis - np.eye(model.width + 1)))
            if not gap <= 1e-8:
                problems.append(f"||(Phi T)^T (Phi T) - I||_F = {gap:.3e} > 1e-8")
        return problems

    def summary(self, ops: list[Op]) -> dict:
        out = {}
        for kind, _ in self.METHODS:
            value, n = _median_rate(ops, kind)
            out[f"{kind}_iter_per_s"] = (value, "iter/s", n)
        return out


class SweepSmall(Workload):
    name = "sweep"

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.workers = len(os.sched_getaffinity(0))
        self.values = [4, 6, 8] if tiny else [10, 50, 250]
        self.replicates = 3
        self.settings = evaluate.SweepSettings(
            k_test=4 if tiny else 25,
            grid_n=9 if tiny else 17,
            beta_lo=1.0,
            beta_hi=100.0,
            n_width=4 if tiny else 20,
            trunk_hidden=(8,) if tiny else (40, 40, 40),
            branch_hidden=(8,) if tiny else (48,),
            activation="tanh",
            init_scheme="he",
            iters_trunk=5 if tiny else SWEEP_ITERS,
            iters_branch=5 if tiny else SWEEP_ITERS,
            lr=1e-2,
            base_seed=seed,
        )

    def shapes(self) -> dict:
        s = self.settings
        return {
            "axis": "K",
            "values": self.values,
            "replicates": self.replicates,
            "max_workers": self.workers,
            "grid_n": s.grid_n,
            "k_test": s.k_test,
            "trunk_arch": [2, *s.trunk_hidden, s.n_width],
            "branch_arch": [1, *s.branch_hidden, s.n_width + 1],
            "activation": s.activation,
            "iters_trunk": s.iters_trunk,
            "iters_branch": s.iters_branch,
            "lr": s.lr,
        }

    def setup(self) -> None:
        warm = replace(self.settings, iters_trunk=WARMUP_ITERS, iters_branch=WARMUP_ITERS)
        evaluate.run_two_step_once(warm, self.seed)

    def round(self) -> list[Op]:
        runs = len(self.values) * self.replicates
        table, op = self._timed(
            "sweep",
            runs,
            evaluate.generalization_sweep,
            self.settings,
            "K",
            self.values,
            self.replicates,
            max_workers=self.workers,
        )
        if table is not None:
            problems = []
            if [row.value for row in table.rows] != self.values:
                problems.append(f"rows {[row.value for row in table.rows]} != {self.values}")
            errors = [e for row in table.rows for e in row.replicate_errors]
            if len(errors) != runs or not all(math.isfinite(e) and e > 0.0 for e in errors):
                problems.append("replicate errors are not all finite and positive")
            self._reject(op, problems)
            op.digest = hashlib.sha256(np.asarray(errors, dtype="<f8").tobytes()).hexdigest()
        return [op]

    def summary(self, ops: list[Op]) -> dict:
        value, n = _median_rate(ops, "sweep")
        return {"sweep_runs_per_s": (value, "runs/s", n)}


class Train(Workload):
    """Replica training and the small-shape sweep, both in every round.

    The two shape ranges share one workload so that a run holds enough
    rounds for a steady median; their rates are still reported apart."""

    name = "train"

    def __init__(self, seed, tiny, scratch):
        self.parts = (ReplicaTrain(seed, tiny, scratch), SweepSmall(seed, tiny, scratch))
        super().__init__(seed, tiny, scratch)

    @property
    def tracer(self):
        return self.parts[0].tracer

    @tracer.setter
    def tracer(self, value):
        for part in self.parts:
            part.tracer = value

    def shapes(self) -> dict:
        return {part.name: part.shapes() for part in self.parts}

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def round(self) -> list[Op]:
        return [op for part in self.parts for op in part.round()]

    def summary(self, ops: list[Op]) -> dict:
        return {k: v for part in self.parts for k, v in part.summary(ops).items()}


class CertifyEval(Workload):
    name = "certify_eval"

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.grid2, self.k2 = (9, 8) if tiny else (33, 100)
        self.trunk_arch = (2, 8, 8, 6) if tiny else (2, 50, 50, 50, 50)
        self.branch_hidden = 8 if tiny else 64

    def shapes(self) -> dict:
        return {
            "generate": {"example": "ex2", "grid_n": self.grid2, "K": self.k2, "split": 0.5},
            "eval_model": {
                "trunk_arch": list(self.trunk_arch),
                "branch_arch": list(self.model.branch.arch),
                "trained": False,
            },
            "certify": {
                "data": f"replica ex1 train split, split seed {REPLICA_SPLIT_SEED}",
                "construction_seed": 0,
                "m_y": self.replica.m_y,
                "K_train": int(self.replica.train_idx.size),
                "rank_U": self.rank,
                "N": self.widths,
            },
        }

    def setup(self) -> None:
        # Certify runs on the same matrices whatever the seed, with the CLI's
        # default construction seed 0: the Jacobi SVD's sweep count depends
        # on the matrix, and per-seed splits moved certify time by +-10%.
        self.replica = _replica_data(REPLICA_SPLIT_SEED, self.tiny)
        # rank(U) with the package's relative threshold, from LAPACK so that
        # choosing the widths does not run the code under test.
        sigma = np.linalg.svd(self.replica.train_u(), compute_uv=False)
        self.rank = int(np.count_nonzero(sigma > 1e-10 * sigma[0]))
        self.widths = [max(1, self.rank - 2), self.rank, self.rank + 2]
        rng = np.random.default_rng(self.seed)
        self.betas = rng.uniform(0.01, 10.0, self.k2)
        nodes, _ = data.grid_coordinates(self.grid2)
        width = self.trunk_arch[-1]
        self.model = deeponet.DeepONetModel(
            nn.init_mlp(self.trunk_arch, "tanh", "he", seed=self.seed + 11),
            nn.init_mlp((nodes.shape[0], self.branch_hidden, width + 1), "tanh", "he", seed=self.seed + 12),
            None,
            width,
        )
        a_star = rng.normal(size=(width + 1, self.k2 // 2))
        self.model.t_matrix, _ = train.orthonormalize(self.model.trunk, a_star, nodes)
        warm = data.split_dataset(data.gen_example2(self.betas[:4], self.grid2), 0.5, seed=self.seed)
        evaluate.evaluate_model(self.model, warm)

    def _generate(self) -> data.OperatorDataset:
        generated = data.gen_example2(self.betas, self.grid2, seed=self.seed)
        data.save_dataset(data.split_dataset(generated, 0.5, seed=self.seed), self.scratch / "ex2_a")
        return data.load_dataset(self.scratch / "ex2_a")

    def round(self) -> list[Op]:
        loaded, gen_op = self._timed("generate", self.k2, self._generate)
        ops = [gen_op]
        if loaded is not None:
            data.save_dataset(loaded, self.scratch / "ex2_b")
            problems = [
                f"{path.name} differs after save -> load -> save"
                for path in sorted((self.scratch / "ex2_a").iterdir())
                if path.read_bytes() != (self.scratch / "ex2_b" / path.name).read_bytes()
            ]
            if loaded.u_matrix.shape != (self.grid2**2, self.k2) or not (
                np.all(np.isfinite(loaded.f_matrix)) and np.all(np.isfinite(loaded.u_matrix))
            ):
                problems.append("generated data has the wrong shape or is not finite")
            self._reject(gen_op, problems)
            n_test = int(loaded.test_idx.size)
            report, eval_op = self._timed("eval", n_test, evaluate.evaluate_model, self.model, loaded)
            if report is not None:
                self._reject(eval_op, self._check_eval(report, n_test))
            ops.append(eval_op)
        for width in self.widths:
            cert, op = self._timed(
                "certify", 1, construct.verify_zero_loss_pipeline, self.replica, width
            )
            if cert is not None and not cert.passed:
                op.failed = True
                op.note = (
                    f"passed=False: zero_loss_passed={cert.zero_loss_passed}, "
                    f"equivalence_passed={cert.equivalence_passed}, "
                    f"assembled_loss={cert.assembled_loss:.3e}, branch_loss={cert.branch_loss:.3e}"
                )
            op.note = f"N={width}: {op.note or 'passed'}"
            ops.append(op)
        return ops

    @staticmethod
    def _check_eval(report, n_test: int) -> list[str]:
        problems = []
        if len(report.rel_errors) != n_test or len(report.optimal_errors) != n_test:
            problems.append(f"{len(report.rel_errors)} errors for {n_test} test samples")
        pairs = list(zip(report.rel_errors, report.optimal_errors))
        if not all(math.isfinite(r) and math.isfinite(o) for r, o in pairs):
            problems.append("errors are not finite")
        above = sum(1 for r, o in pairs if not o <= r + 1e-12)
        if above:
            problems.append(f"optimal error above relative error + 1e-12 on {above} samples")
        return problems

    def summary(self, ops: list[Op]) -> dict:
        gen, n_gen = _median_rate(ops, "generate")
        ev, n_ev = _median_rate(ops, "eval")
        done = [op.seconds for op in ops if op.kind == "certify" and not op.raised]
        return {
            "generate_samples_per_s": (gen, "samples/s", n_gen),
            "eval_samples_per_s": (ev, "samples/s", n_ev),
            "certify_s": (statistics.median(done) if done else 0.0, "s", len(done)),
        }


WORKLOADS = {w.name: w for w in (Train, CertifyEval)}
