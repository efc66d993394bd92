#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload train --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out spread.json

Runs the benchmark once per seed and workload with --trace 0, in turn,
and prints for each metric the median and the distance between the first
and third quartile as a share of the median. The gated metrics, setup_s
excepted, are called steady when that share is below a third of their
bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The run's record holds every end-to-end figure at full precision.
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["end_to_end"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "environment": record["environment"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    report = {}
    for workload in names:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append({"seed": seed, **_run(workload, seed, seconds)})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            share = (quartiles[2] - quartiles[0]) / median if median else 0.0
            summary[metric] = {"median": median, "q1": quartiles[0], "q3": quartiles[2],
                               "iqr_share": share, "unit": runs[0]["metrics"][metric]["unit"]}
            verdict = ""
            if metric in bounds and metric != "setup_s":
                verdict = "steady" if share < bounds[metric] / 3 else f"NOT steady (bound {bounds[metric]})"
            print(f"  {metric:<24} median {median:<12.6g} iqr/median {share:.4f} {verdict}")
        report[workload] = {"seconds": seconds, "runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
