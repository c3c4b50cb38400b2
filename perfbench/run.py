"""End-to-end and per-layer benchmark of facnum's F2 pipeline.

    python3 perfbench/run.py --workload elem-verify --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports facnum from its `src/`.
One client, closed loop: each workload's job list goes through
`facnum.cli.main` in this process, one job at a time, every output checked.
Passes repeat while the next one is expected to end within --seconds (at
least one pass).  Set-up is timed in separate processes (prepare.py), from
interpreter start to the tables being written, ten times before the passes
and ten times after them, so its median spans the run's machine load.

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced pass after
the untraced ones and prints the per-layer metrics.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 0
SETUP_REPEATS = 10  # before the passes, and again after them

sys.path.insert(0, str(HERE))
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_job, workload_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load_facnum():
    """Import facnum from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "facnum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no facnum sources under {src}")
    sys.path.insert(0, str(src))
    import facnum.cli
    if Path(facnum.__file__).resolve().parent != (src / "facnum").resolve():
        raise SystemExit(f"perfbench: imported facnum from {facnum.__file__}, not {src}")
    return facnum.cli


def time_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return times


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    jobs: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j["problems"])


def load_digests() -> dict:
    # Without the file every job fails its digest check: nothing goes unchecked.
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def digest_problem(digests: dict, name: str, seed: int, stdout: str) -> list[str]:
    want = digests.get(name)
    if want is None:
        return [f"no stdout digest recorded for {name} in {DIGESTS.name}"]
    if not (want["seed_independent"] or seed == DIGEST_SEED):
        return []
    got = hashlib.sha256(stdout.encode()).hexdigest()
    return [] if got == want["sha256"] else [f"stdout sha256 {got} != recorded {want['sha256']}"]


def run_job(cli, job) -> tuple[int | None, str, list[str]]:
    """(exit code, stdout, problems) of one job through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a crash inside facnum is a failed job, not a failed run
        return None, out.getvalue(), [traceback.format_exc(limit=3)]
    problems = check_job(job, code, out.getvalue())
    if code and err.getvalue():
        problems.append(f"stderr: {err.getvalue().strip()}")
    return code, out.getvalue(), problems


def run_pass(cli, jobs, seed: int, digests: dict | None) -> PassResult:
    """One pass over `jobs`; `digests=None` skips the stdout digest check."""
    gc.collect()
    result = PassResult()
    w0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        t0 = time.perf_counter()
        code, stdout, problems = run_job(cli, job)
        if digests is not None:
            problems += digest_problem(digests, job.name, seed, stdout)
        result.jobs.append({"job": job.name, "exit": code,
                            "wall_s": time.perf_counter() - t0, "problems": problems})
    result.wall_s = time.perf_counter() - w0
    result.cpu_s = time.process_time() - c0
    return result


def layer_metrics(tracer, traced: PassResult, untraced_wall: float) -> dict:
    """The per_layer metrics of BENCHMARK.json, from one traced pass."""
    wall, cpu = tracer.self_times()
    m = tracer.totals()  # exact counters; a defaultdict, 0 where no span counted

    def ratio(a, b):
        return a / b if b else 0.0

    layer_wall = {layer: sum(v for (lay, _), v in wall.items() if lay == layer)
                  for layer in LAYERS}
    m.update({f"{layer}.self_s": layer_wall[layer] for layer in LAYERS})
    m["enumerate.subgroups_per_s"] = ratio(m["enumerate.subgroups"], m["enumerate.self_s"])
    m["containment.hit_ratio"] = ratio(m["containment.comparable_pairs"],
                                       m["containment.candidate_pairs"])
    m["pairs.hit_ratio"] = ratio(m["pairs.factorizations"], m["pairs.candidate_pairs"])
    m["pairs.cpu_s"] = sum(v for (lay, _), v in cpu.items() if lay == "pairs")
    m["verify.permuting_s"] = sum(v for (lay, name), v in wall.items()
                                  if lay == "verify" and name == "permuting_pairs")
    m["trace.wall_s"] = traced.wall_s
    m["trace.overhead_s"] = traced.wall_s - untraced_wall
    m["other.self_s"] = traced.wall_s - sum(layer_wall.values())
    return {metric["name"]: m[metric["name"]] for metric in SPEC["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli = load_facnum()
    setup = time_setup(args.workload, args.seed)
    jobs = workload_jobs(args.workload)
    digests = load_digests()

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, args.seed, digests))
        if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    untraced_wall = statistics.median(p.wall_s for p in passes)
    setup += time_setup(args.workload, args.seed)

    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": untraced_wall,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {m["name"]: end_to_end[m["name"]] for m in SPEC["end_to_end"]}
    spans = None
    if args.trace:
        with Tracer() as tracer:
            traced = run_pass(cli, jobs, args.seed, digests)
        passes.append(traced)
        metrics = layer_metrics(tracer, traced, untraced_wall)
        spans = tracer.dump()

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    WORK.mkdir(exist_ok=True)
    detail = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "setup_s": setup,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "jobs": p.jobs} for p in passes],
        "spans": spans}, indent=1))

    for p in passes:
        for j in p.jobs:
            for problem in j["problems"]:
                print(f"FAILED {j['job']}: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"details {detail}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    for name, value in {**end_to_end, **metrics}.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
