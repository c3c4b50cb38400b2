"""Workload definitions: seeded Cayley tables, CLI job lists, expected answers.

The tables are built here with plain numpy, never with facnum's own
constructors, so every commit under test reads the same input bytes.  The
seed picks a random identity-fixing relabelling of every table; F2, sd and
lattice sizes do not depend on element labels, so the expected answers are
the same for every seed.

Left out on purpose:
  * `sd` on Z2^6: its permuting-pairs route is O(m^2) pure Python over
    2 825 subgroups and runs for minutes until that route is capped.
  * the in-program `--stats` counters: the CLI has none yet; the traced run
    times the layers from outside instead (see tracer.py).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TABLE_DIR = Path(".perfbench_work") / "tables"
THREADS = "2"  # fixed, so a host with more cores does the same work

# Expected answers.  Each is the closed form named beside it; the
# benchmark's own tests re-derive them from facnum.formulas.
F2_Z2_7 = 301_528_737         # f2_elementary(7, 2)
F2_Z27xZ27 = 2179             # f2_rank2(3, 3, 3)
F2_Z1024 = 21                 # f2_cyclic(10)
F2_E27 = 121                  # f2_heisenberg_p3(3)
L_Z2_7 = 29_212               # total_subgroups_elementary(7, 2)
L_Z2_5 = 374                  # total_subgroups_elementary(5, 2)
L_Z27xZ27 = 76                # subgroup_count_rank2(3, 3, 3)
L_E27 = 19                    # lattice_size_heisenberg_p3(3)
THEOREM5_P5 = {               # check_theorem5(5, 3): every row is a closed form
    "Z5^3": 2_607,            # f2_elementary(3, 5)
    "Z5xZ25": 107,            # f2_rank2(5, 1, 2)
    "Z125": 7,                # f2_cyclic(3)
    "M(125)": 107,            # f2_modular_p3(5)
    "E(125)": 407,            # f2_heisenberg_p3(5)
}


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n, dtype=np.int64)
    return idx[:, None], idx[None, :]


def elementary2(k: int) -> np.ndarray:
    """Z2^k: bit vectors under XOR."""
    i, j = _grid(2 ** k)
    return i ^ j


def cyclic_square(m: int) -> np.ndarray:
    """Z_m x Z_m, element (a, b) at index a + m*b."""
    i, j = _grid(m * m)
    return (i % m + j % m) % m + m * ((i // m + j // m) % m)


def cyclic(m: int) -> np.ndarray:
    i, j = _grid(m)
    return (i + j) % m


def dihedral_or_quaternion(quaternion: bool) -> np.ndarray:
    """D8 or Q8 on r^a s^b at index a + 4b: s r = r^-1 s, and in Q8 s^2 = r^2."""
    i, j = _grid(8)
    a1, b1, a2, b2 = i % 4, i // 4, j % 4, j // 4
    a = a1 + np.where(b1 == 0, a2, -a2)
    b = b1 + b2
    if quaternion:
        a = a + 2 * (b // 2)
    return a % 4 + 4 * (b % 2)


def heisenberg27() -> np.ndarray:
    """E(27): (a, b, c) at 9a + 3b + c, product (a1+a2, b1+b2, c1+c2+a1*b2) mod 3."""
    i, j = _grid(27)
    a1, b1, c1 = i // 9, (i // 3) % 3, i % 3
    a2, b2, c2 = j // 9, (j // 3) % 3, j % 3
    return ((a1 + a2) % 3) * 9 + ((b1 + b2) % 3) * 3 + (c1 + c2 + a1 * b2) % 3


def modular27() -> np.ndarray:
    """M(27) = <x, y | x^9 = y^3 = 1, y^-1 x y = x^4>, x^a y^b at a + 9b;
    y^b x^a = x^(a(1-3b)) y^b, so the product is (a1 + a2(1 - 3 b1), b1 + b2)."""
    i, j = _grid(27)
    a1, b1, a2, b2 = i % 9, i // 9, j % 9, j // 9
    return (a1 + a2 * (1 - 3 * b1)) % 9 + 9 * ((b1 + b2) % 3)


TABLES = {
    "z2x7": lambda: elementary2(7),
    "z2x5": lambda: elementary2(5),
    "z27xz27": lambda: cyclic_square(27),
    "z1024": lambda: cyclic(1024),
    "e27": heisenberg27,
    "m27": modular27,
    "d8": lambda: dihedral_or_quaternion(False),
    "q8": lambda: dihedral_or_quaternion(True),
}


def relabel(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random permutation of the elements that keeps the identity at 0."""
    n = table.shape[0]
    perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def table_text(table: np.ndarray) -> str:
    rows = [" ".join(map(str, row)) for row in table.tolist()]
    return f"{table.shape[0]}\n" + "\n".join(rows) + "\n"


def write_tables(names, seed: int, directory: Path = TABLE_DIR) -> dict[str, Path]:
    """Write the named tables, each relabelled by its own stream of `seed`."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for k, name in enumerate(sorted(names)):
        rng = np.random.default_rng([seed, k])
        path = directory / f"{name}.tbl"
        path.write_text(table_text(relabel(TABLES[name](), rng)), encoding="utf-8")
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# Jobs and their checks
# ---------------------------------------------------------------------------

ALL_PASS = {"eq1": "pass", "eq2_subgroup": "pass", "eq2_quotient": "pass", "hall": "pass"}
# eq2 needs sd(H) = 1 and quotient duality, so facnum skips it for non-abelian G
NON_ABELIAN = {"eq1": "pass", "eq2_subgroup": "skipped", "eq2_quotient": "skipped",
               "hall": "pass"}


@dataclass(frozen=True)
class Job:
    """One `facnum` command line and what its output must show."""

    name: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False)
    tables: tuple[str, ...] = ()


def _table(name: str, directory: Path) -> str:
    return f"table:{(directory / f'{name}.tbl').as_posix()}"


def _f2(name, directory, f2, size, checks, *extra, pairs=None) -> Job:
    expect = {"exit": 0, "f2": f2, "lattice_size": size, "checks": checks}
    if pairs is not None:
        expect["pairs"] = pairs
    argv = ("f2", _table(name, directory), "--verify", *extra, "--threads", THREADS)
    return Job(f"f2-{name}", argv, expect, (name,))


def _sd(name, directory, permuting, size) -> Job:
    expect = {"exit": 0, "sd": (permuting, size * size)}
    return Job(f"sd-{name}", ("sd", _table(name, directory), "--threads", THREADS),
               expect, (name,))


def _theorem5(p: int, n: int, rows: dict) -> Job:
    argv = ("explore", "theorem5", "--p", str(p), "--n", str(n), "--threads", THREADS)
    return Job(f"theorem5-p{p}-n{n}", argv,
               {"exit": 0, "verdict": "verified", "rows": rows})


def workload_jobs(workload: str, directory: Path = TABLE_DIR) -> list[Job]:
    if workload == "elem-verify":
        # The only lattice (29 212 subgroups) big enough for containment and
        # pair counting to dominate; the quotient form takes the
        # correspondence route because m > 400.
        return [_f2("z2x7", directory, F2_Z2_7, L_Z2_7, ALL_PASS, "--format", "json")]
    if workload == "catalog":
        # Non-abelian enumeration on the generic closure path (E(125), M(125)
        # inside theorem5), factorization listing, and both sd routes
        # including the O(m^2) permuting-pairs scan, on small lattices where
        # containment and pair counting cost next to nothing.
        return [
            _theorem5(5, 3, THEOREM5_P5),
            _f2("e27", directory, F2_E27, L_E27, NON_ABELIAN, "--list", pairs=F2_E27),
            # sd(E(p^3)): the 12 non-central order-3 subgroups fall into 4
            # triples (one per order-9 subgroup); two from different triples
            # do not permute, so 19^2 - 12*9 = 253 ordered pairs do.
            _sd("e27", directory, 253, L_E27),
            _sd("m27", directory, 100, 10),   # M(p^3) is Iwasawa: all pairs permute
            _sd("d8", directory, 92, 10),
            _sd("q8", directory, 36, 6),      # Hamiltonian: all pairs permute
            _sd("z2x5", directory, L_Z2_5 ** 2, L_Z2_5),
        ]
    if workload == "large-order":
        # Large orders with tiny lattices: time goes to parsing, the O(n^3)
        # validation (again for G/1 in the constructed quotient route) and
        # long power chains; containment and pair counting do almost nothing.
        return [
            _f2("z27xz27", directory, F2_Z27xZ27, L_Z27xZ27, ALL_PASS),
            _f2("z1024", directory, F2_Z1024, 11, ALL_PASS),
        ]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("elem-verify", "catalog", "large-order")


def workload_tables(workload: str) -> set[str]:
    return {t for job in workload_jobs(workload) for t in job.tables}


_F2_LINE = re.compile(r"^F2 = (\d+)$", re.M)
_SIZE_LINE = re.compile(r"^\|L\| = (\d+)$", re.M)
_PAIR_ROW = re.compile(r"^  \(\d+, \d+\)  orders", re.M)
_VERIFY_LINE = re.compile(r"^verify (\w+): (\w+)", re.M)
_SD_LINE = re.compile(r"^sd = (\d+)/(\d+) = ", re.M)
_VERDICT_LINE = re.compile(r"^verdict: (.*)$", re.M)


def _first_int(pattern: re.Pattern, text: str):
    m = pattern.search(text)
    return int(m.group(1)) if m else None


def parse_output(argv, stdout: str) -> dict:
    """Pull the checked quantities out of one job's stdout."""
    command = argv[0]
    if command == "f2" and "json" in argv:
        doc = json.loads(stdout)
        got = {"f2": int(doc["f2"]), "lattice_size": int(doc["lattice_size"])}
        if "pairs" in doc:
            got["pairs"] = len(doc["pairs"])
        if "verify" in doc:
            got["checks"] = {k: v.split(":")[0] for k, v in doc["verify"]["checks"].items()}
        return got
    if command == "f2":
        got = {"f2": _first_int(_F2_LINE, stdout),
               "lattice_size": _first_int(_SIZE_LINE, stdout),
               "checks": dict(_VERIFY_LINE.findall(stdout))}
        if "--list" in argv:
            got["pairs"] = len(_PAIR_ROW.findall(stdout))
        return got
    if command == "sd":
        m = _SD_LINE.search(stdout)
        return {"sd": (int(m.group(1)), int(m.group(2))) if m else None}
    if command == "explore":
        m = _VERDICT_LINE.search(stdout)
        rows = {}
        for line in stdout.splitlines()[2:]:
            cells = line.split()
            if len(cells) == 4 and cells[3].isdigit():
                rows[cells[0]] = int(cells[3])
        return {"verdict": m.group(1) if m else None, "rows": rows}
    raise ValueError(f"no parser for command {command!r}")


def check_job(job: Job, exit_code: int, stdout: str) -> list[str]:
    """Every way this job's result differs from its expectation (empty if none)."""
    try:
        got = parse_output(job.argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        got = {"parse_error": repr(exc)}
    got["exit"] = exit_code
    return [f"{key}: expected {want!r}, got {got.get(key)!r}"
            for key, want in job.expect.items() if got.get(key) != want]
