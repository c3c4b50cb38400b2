"""Run the benchmark on several seeds per workload and write the summary.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload runs once per seed (1..10) with tracing off, then once with
tracing on (seed 1) for the per-layer breakdown.  For every end-to-end
metric the summary holds the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med,
            "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    doc = {"environment": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                           "python": platform.python_version(), "numpy": np.__version__},
           "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, 1, seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name} median {s['median']:.4g} iqr/median {s['iqr_frac']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
