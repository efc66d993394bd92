#!/usr/bin/env python3
"""Benchmark of operon: replica training with a small-shape sweep, and
generate/eval/certify without training.

    python3 perfbench/run.py --workload train --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run from the root of a checkout; operon is imported from its `src/`.
Every operation's output is checked. Each metric is printed by name with
its unit, and the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the `end_to_end` ones of BENCHMARK.json. With --trace 1 the
first half of the run is measured untraced and the second half traced;
the metrics are the `per_layer` ones, and the end-to-end figures of both
halves are printed side by side as the tracing overhead.

Per-run records, span dumps and scratch files go to `.bench_out/`.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train", "certify_eval")
# Set-up runs in this process plus this many fresh child processes; the
# median is reported, so one slow start does not decide the figure.
SETUP_CHILDREN = 2
PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "gflop_computed": "GFLOP",
    "gbytes_computed": "GB",
    "bytes": "B",
    "distinct_ratio": "ratio",
    "arrays_per_call": "count",
    "busy_share": "ratio",
    "rounds": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported as `error:` with exit code 2."""


def _import_operon():
    src = ROOT / "src"
    if not (src / "operon" / "__init__.py").is_file():
        raise BenchError("no src/operon package in this checkout")
    sys.path.insert(0, str(src))
    import operon

    if Path(operon.__file__).resolve().parent != (src / "operon").resolve():
        raise BenchError(f"operon was imported from {operon.__file__}, not from src/")
    return operon


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _blas_threads():
    """Thread count OpenBLAS uses, asked from the library numpy loaded."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPERON_THREADS")
            if k in os.environ
        },
        "commit": _commit(),
    }


def _child_setup_s(name: str, args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a child process failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(workload, seconds: float) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if workload.tracer is not None:
            workload.tracer.round += 1
        rounds.append(workload.round())
    return rounds


def _end_to_end(workload, rounds, setup_samples) -> dict:
    """name -> (value, unit, samples). Timings are medians over the run."""
    ops = [op for r in rounds for op in r]
    failed = sum(op.failed for op in ops)
    figures = {}
    if setup_samples:
        figures["setup_s"] = (statistics.median(setup_samples), "s", len(setup_samples))
    figures["round_s"] = (statistics.median(sum(op.seconds for op in r) for r in rounds), "s", len(rounds))
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    figures.update(workload.summary(ops))
    figures["failed_share"] = (failed / len(ops), "failed/attempted", len(ops))
    return figures


def _select(produced: dict, entries: list, units) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for entry in entries:
        name = entry["name"]
        if name not in produced:
            raise BenchError(f"metric {name} is listed in BENCHMARK.json but not produced")
        value, unit = produced[name], units(name)
        if unit != entry["unit"]:
            raise BenchError(f"metric {name} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def _print_ops(rounds) -> None:
    kinds: dict[str, list] = {}
    for op in (op for r in rounds for op in r):
        kinds.setdefault(op.kind, []).append(op)
    for kind, ops in kinds.items():
        digests = {op.digest for op in ops if op.digest}
        line = (
            f"op {kind:<11} n={len(ops):<3} median {statistics.median(op.seconds for op in ops):.4f} s"
            f"  failed {sum(op.failed for op in ops)}/{len(ops)}"
        )
        if digests:
            line += f"  output sha256: {len(digests)} distinct, {sorted(digests)[0][:16]}"
        print(line)
    notes = sorted({f"{op.kind}: {op.note}" for r in rounds for op in r if op.note})
    for note in notes:
        print(f"note {note}")


def run_workload(name: str, args, spec: dict, env: dict, setup_start: float) -> dict:
    import tracer as tracing
    import workloads

    scratch = OUT / f"scratch-{os.getpid()}-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        workload = workloads.WORKLOADS[name](args.seed, args.tiny, scratch)
        workload.setup()
        setup_samples = [time.perf_counter() - setup_start]
        setup_samples += [_child_setup_s(name, args) for _ in range(SETUP_CHILDREN)]
        if args.trace:
            plain = _measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            workload.tracer = tracer
            try:
                traced = _measure(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
                workload.tracer = None
        else:
            plain, traced = _measure(workload, args.seconds), []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rounds = plain + traced
    ops = [op for r in rounds for op in r]
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
    }
    e2e = _end_to_end(workload, plain, setup_samples)
    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"why: {why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("shapes: " + json.dumps(workload.shapes(), sort_keys=True))
    _print_ops(rounds)
    for metric, (value, unit, n) in e2e.items():
        print(f"metric {metric:<24} {value:14.6g} {unit:<16} (n={n})")
    record = {
        "workload": name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        "shapes": workload.shapes(),
        "setup_samples_s": setup_samples,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "ops": [[vars(op) for op in r] for r in rounds],
        **result,
    }
    if args.trace:
        traced_e2e = _end_to_end(workload, traced, [])
        overhead = {}
        print("tracing overhead (untraced first half vs traced second half):")
        for metric, (value, unit, _) in traced_e2e.items():
            if metric in ("peak_rss_mb", "failed_share"):
                continue
            base = e2e[metric][0]
            diff = (value - base) / base if base else 0.0
            overhead[metric] = {"untraced": base, "traced": value, "unit": unit, "difference": diff}
            print(f"  {metric:<24} untraced {base:12.6g}  traced {value:12.6g} {unit:<10} {100 * diff:+.2f}%")
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        for metric, value in layers.items():
            if value:  # functions this workload never calls are left out of the report
                print(f"layer {metric:<52} {value:14.6g} {PER_LAYER_UNITS[metric.rsplit('.', 1)[1]]}")
        record.update(overhead=overhead, per_layer=layers)
        (OUT / f"{name}-seed{args.seed}-spans.json").write_text(json.dumps(tracer.to_json()))
        result["metrics"] = _select(
            layers, spec["per_layer"], lambda m: PER_LAYER_UNITS[m.rsplit(".", 1)[1]]
        )
    else:
        result["metrics"] = _select(
            {k: v[0] for k, v in e2e.items()}, spec["end_to_end"], lambda m: e2e[m][1]
        )
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for the smoke check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes a single workload")
    try:
        _import_operon()
        spec = _load_spec()
        if args.setup_only:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT).setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        OUT.mkdir(exist_ok=True)
        env = environment()
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {}
        setup_start = _T0
        for name in names:
            results[name] = run_workload(name, args, spec, env, setup_start)
            setup_start = time.perf_counter()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
