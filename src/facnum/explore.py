"""Comparative sweeps over group catalogs.

Three questions are automated here: is the elementary abelian group the
strict maximum of F2 among p-groups of order p^2 / p^3 (it is, and the
cyclic group the minimum at 2n+1); does the elementary bound survive on
whatever groups of order p^n we can get our hands on; and is F2 monotone
along the lexicographic order on partitions of n.  The partition report
ranks under BOTH writing conventions (nondecreasing exponent tuples and
standard nonincreasing notation) because the monotonicity verdict
genuinely depends on the choice.

All three run one sweep, `_sweep`, over a catalog: a list of
`groups.GroupSpec`s, so any row can be re-run with `facnum f2 <spec>`.
Every spec whose family has a closed form in `groups.FAMILIES` carries it,
and the sweep cross-checks it against brute force on every row: a
disagreement raises `VerificationError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, VerificationError
from .formulas import PartitionType, _require_prime
from .groups import FiniteGroup, GroupSpec, _check_order_cap, load_cayley_table
from .lattice import enumerate_subgroups, f2_bruteforce


def render_aligned(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    cols = [[h] + [r[i] for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionForms:
    """One partition of n in both normal forms."""

    nondecreasing: tuple[int, ...]
    nonincreasing: tuple[int, ...]


def partitions(n: int) -> list[PartitionForms]:
    """All partitions of n, sorted by their nondecreasing form."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    acc: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            acc.append(prefix)
            return
        for part in range(minimum, remaining + 1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, 1, ())
    acc.sort()
    return [PartitionForms(q, tuple(reversed(q))) for q in acc]


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def theorem5_catalog(p: int, n: int) -> list[GroupSpec]:
    """The classified groups of order p^2 and p^3."""
    _require_prime(p)
    if n not in (2, 3):
        raise DomainError("the order-p^n classification is built in for n in {2, 3} only, "
                          f"got n={n}")
    specs = [GroupSpec.named("Elem", p, n), GroupSpec.named("Cyclic", p, n)]
    if n == 3:
        specs.insert(1, GroupSpec.abelian(PartitionType(p, (1, 2))))  # Z_p x Z_p^2
        specs += [GroupSpec.named(name, p if p > 2 else None)
                  for name in (("D8", "Q8") if p == 2 else ("M", "E"))]
    return specs


def _sweep(specs: Sequence[GroupSpec], threads: int | None, max_order: int | None,
           max_subgroups: int | None) -> list[tuple[FiniteGroup, str, int, int]]:
    """(G, source, |L|, F2) for each spec, by brute force, each group built
    under the run's order cap.  The source is the path of a table: spec and
    "builtin" otherwise.  A spec's closed form, if it has one, must agree."""
    out = []
    for spec in specs:
        G = spec.build(max_order)
        lat = enumerate_subgroups(G, max_subgroups=max_subgroups)
        f2 = f2_bruteforce(lat, threads=threads)
        closed = spec.closed()
        if closed is not None and closed != f2:
            raise VerificationError(f"closed form {closed} disagrees with "
                                    f"brute force {f2} for {G.label}")
        kind, _, path = spec.text.partition(":")
        out.append((G, path if kind == "table" else "builtin", len(lat), f2))
    return out


# ---------------------------------------------------------------------------
# Theorem-5 style extremal check
# ---------------------------------------------------------------------------

@dataclass
class Theorem5Report:
    p: int
    n: int
    rows: list[dict]
    max_label: str
    max_value: int
    cyclic_minimum: int
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "verified"

    def to_dict(self) -> dict:
        return {
            "report": "extremal_f2",
            "p": self.p,
            "n": self.n,
            "rows": self.rows,
            "max_label": self.max_label,
            "max_value": str(self.max_value),
            "cyclic_minimum": str(self.cyclic_minimum),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        table = render_aligned(
            ["group", "order", "|L|", "F2"],
            [[r["label"], str(r["order"]), r["lattice_size"], r["f2"]] for r in self.rows],
        )
        return f"{table}\nverdict: {self.verdict}"


def check_theorem5(p: int, n: int, *, threads: int | None = None,
                   max_order: int | None = None,
                   max_subgroups: int | None = None) -> Theorem5Report:
    """Brute-force F2 over the full catalog of groups of order p^n (n = 2, 3)
    and check the extremes: strict maximum at the elementary abelian group,
    minimum 2n + 1 at the cyclic group."""
    swept = _sweep(theorem5_catalog(p, n), threads, max_order, max_subgroups)
    rows = [{"label": G.label, "source": source, "order": G.order,
             "lattice_size": str(size), "f2": str(f2)} for G, source, size, f2 in swept]
    values = {G.label: f2 for G, _, _, f2 in swept}
    elem_label = swept[0][0].label
    cyclic_label = f"Z{p ** n}"
    elem_value = values[elem_label]
    problems = []
    for label, v in values.items():
        if label != elem_label and v >= elem_value:
            problems.append(f"{label} has F2 = {v} >= {elem_value}")
    if values[cyclic_label] != 2 * n + 1:
        problems.append(f"cyclic member has F2 = {values[cyclic_label]} != {2 * n + 1}")
    if min(values.values()) != 2 * n + 1:
        problems.append("cyclic member does not attain the minimum")
    verdict = "verified" if not problems else "violated: " + "; ".join(problems)
    return Theorem5Report(p=p, n=n, rows=rows, max_label=elem_label,
                          max_value=elem_value, cyclic_minimum=2 * n + 1, verdict=verdict)


# ---------------------------------------------------------------------------
# Elementary-bound sweep over order p^n
# ---------------------------------------------------------------------------

@dataclass
class Conjecture6Report:
    p: int
    n: int
    bound: int
    rows: list[dict]
    coverage_complete: bool
    coverage_note: str
    counterexamples: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def verdict(self) -> str:
        if self.counterexamples:
            return "counterexample: " + "; ".join(self.counterexamples)
        scope = "complete classification" if self.coverage_complete else "checked groups only"
        return f"verified ({scope})"

    def to_dict(self) -> dict:
        return {
            "report": "elementary_bound",
            "p": self.p,
            "n": self.n,
            "bound": str(self.bound),
            "rows": self.rows,
            "coverage_complete": self.coverage_complete,
            "coverage_note": self.coverage_note,
            "counterexamples": list(self.counterexamples),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        table = render_aligned(
            ["group", "source", "F2", "<= bound"],
            [[r["label"], r["source"], r["f2"], "yes" if r["within_bound"] else "NO"]
             for r in self.rows],
        )
        return (f"bound F2(Z{self.p}^{self.n}) = {self.bound}\n{table}\n"
                f"coverage: {self.coverage_note}\nverdict: {self.verdict}")


def check_conjecture6(p: int, n: int, extra_tables: Sequence[str] = (), *,
                      threads: int | None = None, max_order: int | None = None,
                      max_subgroups: int | None = None) -> Conjecture6Report:
    """Check F2(G) <= F2(elementary abelian of order p^n) on every group of
    that order we can construct: all abelian types, the built-in
    classification for n <= 3, plus user-supplied Cayley tables.

    The report is explicit about coverage: for n >= 4 the non-abelian
    isomorphism types are NOT enumerated.
    """
    _require_prime(p)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    order = p**n
    tables = []
    for path in extra_tables:
        G = load_cayley_table(path, max_order=max_order)
        if G.order != order:
            raise DomainError(f"{path}: table has order {G.order}, expected p^n = {order}")
        tables.append(GroupSpec(f"table:{path}", lambda max_order, G=G: G))
    _check_order_cap(order, max_order)  # before the bound and partitions(n): both grow fast
    bound = GroupSpec.named("Elem", p, n).closed()
    specs = theorem5_catalog(p, n) if n in (2, 3) else [
        GroupSpec.abelian(PartitionType(p, pf.nondecreasing)) for pf in partitions(n)]
    rows = [{"label": G.label, "source": source, "order": G.order, "f2": str(f2),
             "within_bound": f2 <= bound}
            for G, source, _, f2 in _sweep(specs + tables, threads, max_order, max_subgroups)]
    counterexamples = [f"{r['label']} has F2 = {r['f2']} > {bound}"
                       for r in rows if not r["within_bound"]]
    complete = n <= 3
    if complete:
        note = f"all isomorphism types of order {p}^{n} are covered"
    else:
        note = (f"all abelian types of order {p}^{n} plus {len(extra_tables)} "
                "user-supplied table(s); other isomorphism types are not enumerated")
    return Conjecture6Report(p=p, n=n, bound=bound, rows=rows,
                             coverage_complete=complete, coverage_note=note,
                             counterexamples=counterexamples)


# ---------------------------------------------------------------------------
# Partition-order monotonicity
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    """F2 across all abelian types of order p^n, ranked in lexicographic
    order under both partition-writing conventions, with a monotonicity
    verdict (F2 nonincreasing along increasing lex) for each."""

    p: int
    n: int
    rows: list[dict]
    verdicts: dict[str, dict]

    @property
    def passed(self) -> bool:
        """Monotone under at least one writing convention."""
        return any(v["monotone"] for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "report": "partition_monotonicity",
            "p": self.p,
            "n": self.n,
            "rows": self.rows,
            "verdicts": self.verdicts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        table = render_aligned(
            ["partition", "standard form", "F2", "closed form", "rank nondec-lex", "rank noninc-lex"],
            [[
                ",".join(map(str, r["nondecreasing"])),
                ",".join(map(str, r["nonincreasing"])),
                r["f2"],
                r["closed_form"] if r["closed_form"] is not None else "-",
                str(r["rank_nondecreasing_lex"]),
                str(r["rank_nonincreasing_lex"]),
            ] for r in self.rows],
        )
        lines = [table]
        for name, v in self.verdicts.items():
            if v["monotone"]:
                lines.append(f"{name}: monotone")
            else:
                a, b = v["violated_at"]
                lines.append(f"{name}: violated at {a} vs {b}")
        return "\n".join(lines)


def open_problem_table(p: int, n: int, *, threads: int | None = None,
                       max_order: int | None = None,
                       max_subgroups: int | None = None) -> MonotonicityReport:
    """Brute-force F2 for every abelian type of order p^n and test whether
    F2 is monotone along the lexicographic order on partitions, under both
    writing conventions."""
    _require_prime(p)
    _check_order_cap(p**n, max_order)  # before partitions(n), which grows fast with n
    forms = partitions(n)
    specs = [GroupSpec.abelian(PartitionType(p, pf.nondecreasing)) for pf in forms]
    rows = [{
        "nondecreasing": list(pf.nondecreasing),
        "nonincreasing": list(pf.nonincreasing),
        "label": G.label,
        "lattice_size": str(size),
        "f2": str(f2),
        # _sweep has checked that a closed form equals F2
        "closed_form": None if spec.closed() is None else str(f2),
    } for pf, spec, (G, _, size, f2) in zip(forms, specs,
                                            _sweep(specs, threads, max_order, max_subgroups))]

    verdicts: dict[str, dict] = {}
    for name, key in (("nondecreasing_lex", "nondecreasing"),
                      ("nonincreasing_lex", "nonincreasing")):
        ordering = sorted(range(len(rows)), key=lambda i: tuple(rows[i][key]))
        for rank, i in enumerate(ordering):
            rows[i][f"rank_{name}"] = rank
        monotone = True
        violated_at = None
        for a, b in zip(ordering, ordering[1:]):
            if int(rows[a]["f2"]) < int(rows[b]["f2"]):
                monotone = False
                violated_at = (tuple(rows[a][key]), tuple(rows[b][key]))
                break
        verdicts[name] = {
            "monotone": monotone,
            "violated_at": None if violated_at is None else [list(violated_at[0]), list(violated_at[1])],
        }
    return MonotonicityReport(p=p, n=n, rows=rows, verdicts=verdicts)
