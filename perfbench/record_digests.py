"""Record the sha256 of every benchmark job's stdout into digests.json.

    python3 perfbench/record_digests.py

Run it at the commit whose output is the reference (once; speed-ups must not
change an output byte).  Every job runs on seeds 0 and 1: a job whose stdout
is the same on both does not depend on the relabelling and is checked on
every seed; the others (e.g. `--list`, whose pair indices follow the labels)
are checked on seed 0 only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import DIGEST_SEED, DIGESTS, ROOT, load_facnum, run_job
from workloads import WORKLOADS, workload_jobs, workload_tables, write_tables


def stdout_digests(cli, seed: int) -> dict[str, str]:
    out = {}
    for workload in WORKLOADS:
        write_tables(workload_tables(workload), seed)
        for job in workload_jobs(workload):
            code, stdout, problems = run_job(cli, job)
            if problems:
                raise SystemExit(f"{job.name} failed on seed {seed}: {problems}")
            out[job.name] = hashlib.sha256(stdout.encode()).hexdigest()
    return out


def main() -> int:
    os.chdir(ROOT)
    cli = load_facnum()
    reference = stdout_digests(cli, DIGEST_SEED)
    other = stdout_digests(cli, DIGEST_SEED + 1)
    doc = {name: {"sha256": digest, "seed_independent": other[name] == digest}
           for name, digest in sorted(reference.items())}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
