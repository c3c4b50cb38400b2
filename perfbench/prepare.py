"""Set-up step of one benchmark run, as its own process so its time counts
from interpreter start: import facnum and write the workload's seeded tables.

    python3 perfbench/prepare.py --workload elem-verify --seed 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import facnum  # noqa: F401  (its import time is part of set-up)

    from workloads import write_tables, workload_tables
    write_tables(workload_tables(args.workload), args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
