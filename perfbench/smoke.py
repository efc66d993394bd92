#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny shapes.

    python3 perfbench/smoke.py

Runs every workload with --trace 0 and --trace 1 and checks that the last
line parses as the JSON result with every metric BENCHMARK.json lists, in
its unit, and that every end-to-end figure of the workload is printed with
its unit. Then checks that the benchmark fails, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark. Exits 0
when every check holds.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COMMON = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB", "failed_share": "failed/attempted"}
PRINTED = {
    "train": {
        **COMMON,
        "train_2st_iter_per_s": "iter/s",
        "train_noqr_iter_per_s": "iter/s",
        "train_van_iter_per_s": "iter/s",
        "sweep_runs_per_s": "runs/s",
    },
    "certify_eval": {
        **COMMON,
        "generate_samples_per_s": "samples/s",
        "eval_samples_per_s": "samples/s",
        "certify_s": "s",
    },
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"{where}: last line is not JSON: {exc}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int) or not isinstance(result.get("correct"), bool):
        problems.append(f"{where}: failed/correct have the wrong types")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in listed]:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for entry in listed:
        got = metrics.get(entry["name"], {})
        value = got.get("value")
        if got.get("unit") != entry["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {entry['name']} = {got}")
    for name, unit in PRINTED[workload].items():
        if not re.search(rf"^metric {re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", proc.stdout, re.M):
            problems.append(f"{where}: no printed line for {name} in {unit}")
    if trace and "tracing overhead" not in proc.stdout:
        problems.append(f"{where}: no tracing overhead table")
    return problems


def check_fails_without_program() -> list[str]:
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in PRINTED:
        for trace in (0, 1):
            problems += check_result(workload, trace, spec)
    problems += check_fails_without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
