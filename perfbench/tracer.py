"""Per-layer spans around facnum's public entry points, installed from outside.

The tracer replaces each traced function at every name a caller looks it up
by (the `facnum` package and its `cli`, `explore`, `lattice`, `groups` and
`formulas` modules), plus `FiniteGroup.__init__` and the four containment
properties of `SubgroupLattice`.  Spans stay in memory with their parent ids;
self time is a span's duration minus its direct children's.  Counters are
computed from what the traced call returned or from state the call itself
built, so the traced run never forces lazy work the job would not do.

Spans are kept on one stack: facnum calls its layer entry points from the
main thread only (worker threads run `_count_block`, which is not traced).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

MODULES = ("facnum", "facnum.cli", "facnum.explore", "facnum.lattice",
           "facnum.groups", "facnum.formulas")
CONTAINMENT_PROPERTIES = ("up_lists", "down_lists", "up_degrees", "down_degrees")
LAYERS = ("groups", "enumerate", "containment", "pairs", "mobius", "verify",
          "explore", "formulas", "cli")
BOOKKEEPING = "trace"  # the tracer's own counter arithmetic, reported in other.self_s


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    t0: float
    c0: float
    t1: float = 0.0
    c1: float = 0.0
    counts: dict = field(default_factory=dict)


# -- counters ----------------------------------------------------------------

def _classes(orders: np.ndarray) -> dict[int, int]:
    values, sizes = np.unique(orders, return_counts=True)
    return dict(zip(values.tolist(), sizes.tolist()))


def containment_candidates(orders: np.ndarray) -> int:
    """Pairs (H, K) that Lagrange leaves possible for H <= K: H = K, or
    |H| a proper divisor of |K|."""
    cls = _classes(orders)
    return len(orders) + sum(na * nb for da, na in cls.items() for db, nb in cls.items()
                             if db > da and db % da == 0)


def pair_candidates(orders: np.ndarray, full_order: int) -> tuple[int, int]:
    """(ordered pairs, block cells) that pass the order filter for HK = G:
    |H||K| = |G||H n K| needs |G| to divide |H||K| and the quotient to divide
    gcd(|H|, |K|).  A block of two order classes covers each unordered
    pair once."""
    cls = _classes(orders)
    ordered = cells = 0
    for da, na in cls.items():
        for db, nb in cls.items():
            prod = da * db
            if prod % full_order or math.gcd(da, db) % (prod // full_order):
                continue
            ordered += na * nb
            if da <= db:
                cells += na * nb
    return ordered, cells


def _pairs_counts(lat, member: int | None, result) -> dict:
    if member is None:
        orders, full = lat.orders, lat.group.order
    else:
        # f2_of_member has already built down_lists to find the members of H
        orders, full = lat.orders[lat.down_lists[member]], int(lat.orders[member])
    ordered, cells = pair_candidates(orders, full)
    found = len(result) if isinstance(result, list) else int(result)
    return {"candidate_pairs": ordered, "factorizations": found,
            "bytes_computed": cells * 8 * ((lat.group.order + 63) // 64)}


# -- the tracer ----------------------------------------------------------------

class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.self_times()`, `tr.totals()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._contained: weakref.WeakSet = weakref.WeakSet()
        self._f2_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # spans

    def _open(self, layer: str, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    layer, name, time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.t1, span.c1 = time.perf_counter(), time.process_time()
        self._stack.pop()

    def _count(self, span: Span, counter, *args) -> None:
        if counter is None:
            return
        book = self._open(BOOKKEEPING, span.name)
        try:
            span.counts.update(counter(*args))
        finally:
            self._close(book)

    def wrap(self, layer: str, fn, counter=None):
        """`fn` timed as a span of `layer`; `counter(args, kwargs, result)`
        returns the span's counters."""
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._count(span, counter, args, kwargs, result)
            return result

        return traced

    # installation

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_functions(self, table: dict) -> None:
        """table: {original function: wrapper}; rebinds every module-level name
        that refers to an original."""
        by_id = {id(fn): wrapper for fn, wrapper in table.items()}
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._set(module, attr, by_id[id(value)])

    def install(self) -> None:
        from facnum import cli, explore, formulas, groups, lattice

        def f2_counts(args, kwargs, result):
            lat = args[0]
            member = int(args[1]) if len(args) > 1 else None  # f2_of_member(lat, h)
            counts = _pairs_counts(lat, member, result)
            seen = self._f2_seen.setdefault(lat, set())
            key = lat.index_of_full if member is None else member
            counts["duplicate_calls"] = int(key in seen)
            seen.add(key)
            return counts

        def mobius_terms(degrees):
            def counter(args, kwargs, result):
                lat = args[0]
                return {"terms": int(getattr(lat, degrees).sum()) - len(lat)}
            return counter

        specs = [
            ("groups", groups.parse_cayley_table, None),
            ("groups", groups.load_cayley_table, None),
            ("groups", groups.build_named, None),
            ("groups", groups.build_abelian, None),
            ("groups", groups.cyclic_group, None),
            ("groups", groups.elementary_abelian_group, None),
            ("groups", groups.dihedral8, None),
            ("groups", groups.quaternion8, None),
            ("groups", groups.modular_p3, None),
            ("groups", groups.heisenberg_p3, None),
            ("groups", groups.permute_elements, None),
            ("groups", groups.quotient, lambda a, k, r: {"quotients": 1}),
            ("enumerate", lattice.enumerate_subgroups,
             lambda a, k, r: {"subgroups": len(r)}),
            ("pairs", lattice.f2_bruteforce, f2_counts),
            ("pairs", lattice.list_factorizations, f2_counts),
            ("pairs", lattice.f2_of_member, f2_counts),
            ("mobius", lattice.mobius_to_top, mobius_terms("up_degrees")),
            ("mobius", lattice.mobius_from_bottom, mobius_terms("down_degrees")),
            ("verify", lattice.verify_inversion, None),
            ("verify", lattice.verify_hall, None),
            ("verify", lattice.sd, None),
            ("verify", lattice.permuting_pairs, None),
            ("explore", explore.check_theorem5, None),
            ("explore", explore.check_conjecture6, None),
            ("explore", explore.open_problem_table, None),
            ("cli", cli.main, None),
        ]
        # Every public closed form.  is_prime is left out: it is an arithmetic
        # helper called once per extension inside the enumeration loop, not a
        # layer entry point, and timing it would split enumerate into
        # hundreds of thousands of spans.
        for attr, value in vars(formulas).items():
            if (callable(value) and not isinstance(value, type) and attr != "is_prime"
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == formulas.__name__):
                specs.append(("formulas", value, None))
        self._patch_functions({fn: self.wrap(layer, fn, counter)
                               for layer, fn, counter in specs})

        init = groups.FiniteGroup.__init__
        traced_init = self.wrap("groups", init, lambda a, k, r: {
            "built": 1, "assoc_triples": a[0].order ** 3})
        self._set(groups.FiniteGroup, "__init__", traced_init)

        for attr in CONTAINMENT_PROPERTIES:
            prop = lattice.SubgroupLattice.__dict__[attr]
            self._set(lattice.SubgroupLattice, attr, property(self._containment(prop.fget)))

    def _containment(self, fget):
        """The first containment access on a lattice builds the structure; it
        is the span.  Later accesses only read it and are not traced."""
        def counter(args, kwargs, result):
            lat = args[0]
            return {"comparable_pairs": int(lat.up_degrees.sum()),
                    "candidate_pairs": containment_candidates(lat.orders)}

        build = self.wrap("containment", fget, counter)

        @functools.wraps(fget)
        def getter(lat):
            if lat in self._contained:
                return fget(lat)
            self._contained.add(lat)
            return build(lat)

        return getter

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # results

    def self_times(self) -> tuple[dict, dict]:
        """(wall, cpu) self time per (layer, span name), over every span."""
        child_wall = defaultdict(float)
        child_cpu = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_wall[s.parent] += s.t1 - s.t0
                child_cpu[s.parent] += s.c1 - s.c0
        wall = defaultdict(float)
        cpu = defaultdict(float)
        for s in self.spans:
            key = (s.layer, s.name)
            wall[key] += (s.t1 - s.t0) - child_wall[s.id]
            cpu[key] += (s.c1 - s.c0) - child_cpu[s.id]
        return wall, cpu

    def totals(self) -> dict:
        """Counter sums per `layer.counter`, plus span counts as `layer.calls`."""
        out = defaultdict(int)
        for s in self.spans:
            if s.layer == BOOKKEEPING:
                continue
            out[f"{s.layer}.calls"] += 1
            for key, value in s.counts.items():
                out[f"{s.layer}.{key}"] += value
        return out

    def dump(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
                 "start_s": s.t0, "wall_s": s.t1 - s.t0, "cpu_s": s.c1 - s.c0,
                 **({"counts": s.counts} if s.counts else {})} for s in self.spans]
