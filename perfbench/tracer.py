"""Span tracer that times operon's layers from outside the package.

`Tracer.install` replaces each listed public function by a timing wrapper
at every module attribute of the package that holds it, so both
`nn.backward(...)` and a name bound by `from .nn import backward` reach
the wrapper. Nothing under `src/` changes. Spans stay in memory until the
run ends.

Each thread keeps its own span stack, because the sweep runs its jobs on
worker threads. A span's self time is its duration minus the time its
child spans on the same thread cover. Work the wrapper itself does around
a call (hashing inputs, counting flops and bytes) is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np


def _digest(a) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a, dtype=np.float64), digest_size=16).digest()


def _backward_flop(args, kwargs) -> dict:
    """Matrix-product flops of nn.backward, which recomputes the forward
    pass: per layer 2*B*in*out for the forward product and for dW, plus
    the same again for the delta of every layer but the first."""
    net, x = args[0], args[1]
    batch = np.shape(x)[0]
    total = 0
    for layer, (fan_in, fan_out) in enumerate(zip(net.arch[:-1], net.arch[1:])):
        total += (6 if layer > 0 else 4) * batch * fan_in * fan_out
    return {"flop": total}


def _qr_flop_and_digest(args, kwargs) -> dict:
    """Householder QR flops: the trailing update of R plus forming thin Q."""
    a = args[0] if args else kwargs["a"]
    m, n = np.shape(a)
    total = sum(4 * (m - j) * (n - j - 1) + 4 * (m - j) * n for j in range(n))
    return {"flop": total, "digest": _digest(a)}


def _svd_digest(args, kwargs) -> dict:
    return {"digest": _digest(args[0] if args else kwargs["a"])}


def _adam_bytes(args, kwargs) -> dict:
    """Adam reads p, g, m, v and writes p, m, v: 7 float64 per element."""
    params = args[0]
    return {"arrays": len(params), "bytes": 56 * sum(int(p.size) for p in params)}


def _sweep_workers(args, kwargs) -> dict:
    return {"workers": int(kwargs.get("max_workers", args[4] if len(args) > 4 else 1))}


def _saved_bytes(args, kwargs, info) -> None:
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    info["bytes"] = sum(p.stat().st_size for p in Path(directory).iterdir())


PACKAGE = "operon"
# The wrapped functions, named `<module>.<function>` after the layers the
# benchmark reports. The private CG solver is included because both the
# ex1 and the ex2 generators spend their time there.
TARGETS = (
    "data.gen_example1",
    "data.gen_example2",
    "data.solve_poisson_fd",
    "data._conjugate_gradient",
    "data.split_dataset",
    "data.save_dataset",
    "data.load_dataset",
    "nn.forward",
    "nn.backward",
    "optimize.adam_step",
    "deeponet.assemble_phi",
    "deeponet.assemble_c",
    "deeponet.predict",
    "deeponet.monolithic_loss",
    "deeponet.monolithic_loss_and_grads",
    "train.train_two_step",
    "train.train_trunk_step1",
    "train.train_branch_step2",
    "train.train_monolithic",
    "train.orthonormalize",
    "train.fit_interpolating_branch",
    "train.check_two_step_equivalence",
    "linalg.householder_qr",
    "linalg.least_squares",
    "linalg.solve_upper_triangular",
    "linalg.jacobi_svd",
    "linalg.best_rank_k_error",
    "evaluate.evaluate_model",
    "evaluate.conditional_optimal",
    "evaluate.run_two_step_once",
    "evaluate.generalization_sweep",
    "construct.build_interpolating_trunk",
    "construct.verify_zero_loss_pipeline",
)
# Figures taken from a call's arguments before it runs, and after it ends.
BEFORE = {
    "nn.backward": _backward_flop,
    "optimize.adam_step": _adam_bytes,
    "linalg.householder_qr": _qr_flop_and_digest,
    "linalg.jacobi_svd": _svd_digest,
    "evaluate.generalization_sweep": _sweep_workers,
}
AFTER = {"data.save_dataset": _saved_bytes}
# Which figures each annotated function reports, and how each is formed.
FIGURES = {
    "nn.backward": ("gflop_computed",),
    "optimize.adam_step": ("arrays_per_call", "gbytes_computed"),
    "linalg.householder_qr": ("gflop_computed", "distinct_ratio"),
    "linalg.jacobi_svd": ("distinct_ratio",),
    "data.save_dataset": ("bytes",),
}
# Distinct inputs are counted within each operation, since every round
# repeats the same inputs.
_FIGURE_RULES = {
    "gflop_computed": lambda spans, rounds: sum(s.info["flop"] for s in spans) / rounds / 1e9,
    "gbytes_computed": lambda spans, rounds: sum(s.info["bytes"] for s in spans) / rounds / 1e9,
    "bytes": lambda spans, rounds: sum(s.info["bytes"] for s in spans) / rounds,
    "distinct_ratio": lambda spans, rounds: (
        len({(s.op, s.info["digest"]) for s in spans}) / max(len(spans), 1)
    ),
    "arrays_per_call": lambda spans, rounds: sum(s.info["arrays"] for s in spans) / max(len(spans), 1),
}


class Span:
    __slots__ = ("name", "span_id", "parent_id", "thread", "round", "op", "start", "end", "child_s", "info")

    def __init__(self, name, span_id, parent_id, thread, round_, op, info):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.round = round_
        self.op = op
        self.info = info
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Wraps package functions and records one Span per call while active.

    The benchmark numbers its rounds and operations in `round` and `op`;
    every span records both, so the spans of one operation share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.round = 0
        self.op = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in targets:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original, BEFORE.get(name), AFTER.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name, original, before, after):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            mark = time.perf_counter()
            info = before(args, kwargs) if before is not None else {}
            span = Span(
                name,
                next(tracer._ids),
                parent.span_id if parent else 0,
                threading.get_ident(),
                tracer.round,
                tracer.op,
                info,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, info)
                if parent is not None:
                    # The wrapper's own work before and after the call is
                    # excluded from the parent's self time as well.
                    parent.child_s += time.perf_counter() - mark
                tracer.spans.append(span)

        return wrapper

    def to_json(self) -> dict:
        """Compact span dump: one row per span, names and threads indexed."""
        names = sorted({s.name for s in self.spans})
        threads = sorted({s.thread for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        thread_ix = {t: i for i, t in enumerate(threads)}
        base = min((s.start for s in self.spans), default=0.0)
        return {
            "names": names,
            "columns": ["name", "id", "parent", "thread", "round", "op", "start_s", "end_s", "self_s"],
            "spans": [
                [
                    name_ix[s.name],
                    s.span_id,
                    s.parent_id,
                    thread_ix[s.thread],
                    s.round,
                    s.op,
                    round(s.start - base, 9),
                    round(s.end - base, 9),
                    round(s.self_s, 9),
                ]
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
        }


def _percentile_ms(durations: list[float], q: int) -> float:
    """The median, or a higher percentile q when at least ten samples lie
    beyond it, in ms; 0.0 where there are too few samples."""
    if not durations or (q != 50 and len(durations) * (100 - q) < 1000):
        return 0.0
    if q == 50:
        return 1e3 * statistics.median(durations)
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures from one traced phase. Counts, self times, flops
    and bytes are per round of the workload; ratios and per-call times
    are over the whole phase. Keys are `<module>.<function>.<figure>`."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out: dict[str, float] = {"trace.rounds": float(rounds)}
    for name in TARGETS:
        group = by_name.get(name, [])
        durations = [s.duration for s in group]
        out[f"{name}.calls"] = len(group) / rounds
        out[f"{name}.self_s"] = sum(s.self_s for s in group) / rounds
        out[f"{name}.p50_ms"] = _percentile_ms(durations, 50)
        out[f"{name}.p90_ms"] = _percentile_ms(durations, 90)
        out[f"{name}.p99_ms"] = _percentile_ms(durations, 99)
        for figure in FIGURES.get(name, ()):
            out[f"{name}.{figure}"] = _FIGURE_RULES[figure](group, rounds)
    out["evaluate.generalization_sweep.busy_share"] = _busy_share(by_name)
    return out


def _busy_share(by_name: dict[str, list[Span]]) -> float:
    """Total run_two_step_once time inside sweeps over workers x sweep wall
    time: 1.0 means every worker thread was busy for the whole sweep."""
    sweeps = by_name.get("evaluate.generalization_sweep", [])
    runs = by_name.get("evaluate.run_two_step_once", [])
    capacity = sum(s.info["workers"] * s.duration for s in sweeps)
    if capacity == 0.0:
        return 0.0
    busy = sum(
        r.duration
        for r in runs
        if any(s.start <= r.start and r.end <= s.end for s in sweeps)
    )
    return busy / capacity
