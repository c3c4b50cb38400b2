"""Concrete finite groups as fully validated Cayley tables.

A group of order n is an n x n table of element indices with the
identity normalized to index 0.  Construction always runs the complete
validation (identity laws, inverses, row/column permutations,
associativity), so downstream code can trust any FiniteGroup it is
handed.  The named non-abelian families self-check their defining
relations on top of that; presentation bugs are the classic failure
mode, so the realizations are verified rather than trusted.

Every built-in group, abelian or named, is generator data for one
polycyclic presentation builder (Sims, Computation with Finitely
Presented Groups, the chapter on polycyclic groups).  Generator g, in
order, is (m, power, images) over N = <earlier generators>: g has
relative order m, g^m = power and g g_j g^-1 = images[j], both indices in
N.  Element n g^e sits at index n + |N| e, so the first generator runs
fastest.  The data is not trusted either: an inconsistent presentation
gives a table that is not a group, and validation rejects it.

Associativity is decided exactly by Light's test (Clifford & Preston,
The Algebraic Theory of Semigroups I, 1.2) in O(n^2 log n) lookups
instead of n^3.  Call a passing when (xa)y = x(ay) for all x, y.  If a
and b pass, so does ab: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
= x((ab)y).  The validator keeps R, the elements reached from the
identity by right multiplication with passing generators.  R is closed
under the product, contains the identity and, being part of a Latin
square, is cancellative, so it is a subgroup.  While R != G it checks the
least a outside R: a failing a names a witness triple (x, a, y); a
passing a joins the generators and adds the coset Ra, which is disjoint
from R (r a = r' would put a = r^-1 r' in R), so R at least doubles.
After at most log2(n) checks R = G, and every element passes.

A Cayley table file's body is read by a byte pass, in row blocks of about
_LIGHT_BLOCK_ELEMS bytes, each a numpy array of its bytes.  A block must
hold only the digits 0-9, spaces and "\n"; its tokens are the runs
between the edges of its digits; each of the first n lines must hold n
tokens and every later line none; each value is built by Horner's rule in
int64 from at most 18 digits and must lie below n.  When any check fails
anywhere, the byte pass declines without a message, and the per-row reader
reads the whole body again line by line, as str.split and int() read it,
and names the first bad row in its error.  So either reader gives the same
table, or the same error, for every input.
"""

from __future__ import annotations

import math
import os
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ResourceLimitError, ValidationError, VerificationError
from .formulas import (PartitionType, _require_prime, f2_corollary4, f2_corollary4_poly, f2_cyclic,
                       f2_elementary, f2_elementary_poly, f2_heisenberg_p3, f2_heisenberg_p3_poly,
                       f2_modular_p3, f2_modular_p3_poly, f2_rank2, f2_rank2_poly)

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "FACNUM_MAX_ORDER"

# table entries per row block in Light's associativity test (1 MiB of int32)
# and in the normality check of quotient
_LIGHT_BLOCK_ELEMS = 1 << 18


def resolve_max_order(explicit: int | None = None) -> int:
    """Order cap: explicit argument, else FACNUM_MAX_ORDER, else 4096."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_ORDER_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"{MAX_ORDER_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_MAX_ORDER


def _check_order_cap(order: int, max_order: int | None) -> None:
    cap = resolve_max_order(max_order)
    if order > cap:
        raise ResourceLimitError(
            f"group order {order} exceeds the safety cap {cap} "
            f"(pass max_order or set {MAX_ORDER_ENV} to override)"
        )


def _pack(mask: np.ndarray) -> int:
    """Bitset of a boolean element mask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unpack(bits: int, n: int) -> np.ndarray:
    """Boolean element mask of a bitset over n elements."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _right_cosets(G: FiniteGroup, h_idx: np.ndarray, gens) -> np.ndarray:
    """Right-coset labels of J = <H, gens> for the subgroup H with elements
    h_idx: label[y] = k for y in the k-th coset Hx found (H itself is 0),
    -1 outside J.  J is reached from H by right multiplication with gens,
    since Hx*s is the coset H(xs); that needs gens to generate H (the
    elements of H among gens do) unless each generator normalizes H.  With
    gens = [g] normalizing H, the k-th coset is Hg^k.  Each coset costs one
    gather of its representative's products and one gather of its
    elements."""
    t = G.table
    gens = np.asarray(gens, dtype=np.int64)
    label = np.full(G.order, -1, dtype=np.int64)
    label[h_idx] = 0
    reps = [0]
    k = 0
    while reps:
        products = t[reps.pop(), gens]
        for x in products[label[products] < 0].tolist():
            if label[x] < 0:
                k += 1
                label[t[h_idx, x]] = k
                reps.append(x)
    return label


def _pth_powers(G: FiniteGroup, p: int) -> np.ndarray:
    """x^p for every element x, in p - 1 gathers."""
    x = np.arange(G.order)
    y = x
    for _ in range(p - 1):
        y = G.table[y, x]
    return y


class FiniteGroup:
    """Immutable finite group on elements 0..order-1 with identity 0."""

    __slots__ = ("order", "table", "inverses", "label", "is_commutative",
                 "_rows", "_element_orders")

    def __init__(self, table, label: str = "G", *, max_order: int | None = None):
        t = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValidationError(f"Cayley table must be square, got shape {t.shape}")
        n = int(t.shape[0])
        if n == 0:
            raise ValidationError("a group has at least one element")
        _check_order_cap(n, max_order)
        self.order = n
        self.table = t
        self.label = label
        self._rows = None
        self._element_orders = None
        self.inverses = self._validate()
        self.is_commutative = bool(np.array_equal(t, t.T))

    # -- validation ----------------------------------------------------------

    def _validate(self) -> np.ndarray:
        t, n = self.table, self.order
        if int(t.min()) < 0 or int(t.max()) >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise ValidationError(
                f"entry out of range at ({bad[0]}, {bad[1]}): {t[bad[0], bad[1]]}"
            )
        idx = np.arange(n, dtype=np.int32)
        if not np.array_equal(t[0], idx):
            j = int(np.argmax(t[0] != idx))
            raise ValidationError(
                f"identity law fails: table[0][{j}] = {t[0, j]}, expected {j}"
            )
        if not np.array_equal(t[:, 0], idx):
            i = int(np.argmax(t[:, 0] != idx))
            raise ValidationError(
                f"identity law fails: table[{i}][0] = {t[i, 0]}, expected {i}"
            )
        if not np.array_equal(np.sort(t, axis=1), np.broadcast_to(idx, t.shape)):
            i = int(np.argmax(~(np.sort(t, axis=1) == idx).all(axis=1)))
            raise ValidationError(f"row {i} is not a permutation of 0..{n - 1}")
        if not np.array_equal(np.sort(t, axis=0), np.broadcast_to(idx[:, None], t.shape)):
            j = int(np.argmax(~(np.sort(t, axis=0) == idx[:, None]).all(axis=0)))
            raise ValidationError(f"column {j} is not a permutation of 0..{n - 1}")
        inverses = np.argmax(t == 0, axis=1).astype(np.int32)
        if not np.all(t[inverses, idx] == 0):
            i = int(np.argmax(t[inverses, idx] != 0))
            raise ValidationError(f"element {i} has no two-sided inverse")
        # Light's test (module docstring): check (x*a)*y == x*(a*y) for the
        # least a outside R, the subgroup the passing generators reach, until
        # R = G; at most log2(n) checks, each in cache-sized row blocks
        step = max(1, _LIGHT_BLOCK_ELEMS // n)
        gens: list[int] = []
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        while not reached.all():
            a = int(np.argmin(reached))
            col, row = t[:, a], t[a]
            for start in range(0, n, step):
                left = t[col[start:start + step]]                   # (x*a)*y
                right = np.take(t[start:start + step], row, axis=1)  # x*(a*y)
                if not np.array_equal(left, right):
                    i, y = (int(v) for v in np.argwhere(left != right)[0])
                    raise ValidationError(
                        f"associativity fails at triple ({i + start}, {a}, {y}): "
                        f"(a*b)*c = {left[i, y]}, a*(b*c) = {right[i, y]}"
                    )
            gens.append(a)
            reached = _right_cosets(self, np.flatnonzero(reached), gens) >= 0
        return inverses

    def validate(self) -> None:
        """Re-run the full construction-time validation."""
        self._validate()

    # -- element-level operations ---------------------------------------------

    @property
    def rows(self) -> list[list[int]]:
        """Table as nested Python lists; built lazily, fast for tight loops."""
        if self._rows is None:
            self._rows = self.table.tolist()
        return self._rows

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def element_order(self, a: int) -> int:
        t = self.table
        x = int(t[a, a])
        k = 1
        while True:
            if a == 0:
                return 1
            k += 1
            if x == 0:
                return k
            x = int(t[x, a])

    def element_orders(self) -> np.ndarray:
        """Order of every element: one power step a^k -> a^(k+1) per gather,
        over the elements whose power has not yet reached the identity."""
        if self._element_orders is None:
            orders = np.empty(self.order, dtype=np.int64)
            pending = np.arange(self.order)
            power = pending
            k = 1
            while pending.size:
                done = power == 0
                orders[pending[done]] = k
                pending, power = pending[~done], power[~done]
                power = self.table[power, pending]
                k += 1
            self._element_orders = orders
        return self._element_orders

    # -- export ----------------------------------------------------------------

    def to_table_text(self) -> str:
        lines = [str(self.order)]
        lines.extend(" ".join(str(int(v)) for v in row) for row in self.table)
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, label={self.label!r})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _presented_table(gens, max_order: int | None) -> np.ndarray:
    """Cayley table of a polycyclic presentation (module docstring)."""
    _check_order_cap(math.prod(m for m, _, _ in gens), max_order)
    table = np.zeros((1, 1), dtype=np.int32)
    orders: list[int] = []  # relative orders of the generators of N
    for m, power, images in gens:
        k = len(table)
        # conjugation by g over N, one generator of N at a time:
        # n' g_j^e -> conj(n') images[j]^e
        conj = np.zeros(1, dtype=np.int32)
        for m_j, image in zip(orders, images):
            image_powers = [0]
            for _ in range(m_j - 1):
                image_powers.append(table[image_powers[-1], image])
            conj = table[conj[None, :], np.array(image_powers)[:, None]].ravel()
        # (n1 g^e1)(n2 g^e2) = n1 (g^e1 n2 g^-e1) g^(e1+e2), where a power
        # g^(m+e) is power g^e, so N's part picks up a right factor power
        new = np.empty((k * m, k * m), dtype=np.int32)
        offsets = k * np.arange(m, dtype=np.int32)[:, None]
        times_power = table[:, power]
        moved = np.arange(k)  # conjugation by g^e1
        for e1 in range(m):
            low = table[:, moved]
            rows = new[k * e1:k * (e1 + 1)].reshape(k, m, k)
            rows[:, :m - e1] = low[:, None, :] + offsets[e1:]
            rows[:, m - e1:] = times_power[low][:, None, :] + offsets[:e1]
            moved = conj[moved]
        table = new
        orders.append(m)
    return table


def build_abelian(ptype: PartitionType, *, label: str | None = None,
                  max_order: int | None = None) -> FiniteGroup:
    """Direct product of cyclic groups of orders p**a_i, elements in
    mixed-radix order (first coordinate fastest), identity at index 0."""
    moduli = [ptype.p ** a for a in ptype.alphas]
    weights = [math.prod(moduli[:i]) for i in range(len(moduli))]
    table = _presented_table([(m, 0, weights[:i]) for i, m in enumerate(moduli)], max_order)
    return FiniteGroup(table, label or ptype.label(), max_order=max_order)


def cyclic_group(p: int, n: int, *, max_order: int | None = None) -> FiniteGroup:
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    t = PartitionType(p, (n,) if n else ())
    return build_abelian(t, label=f"Z{p ** n}" if n else "Z1", max_order=max_order)


def elementary_abelian_group(p: int, n: int, *, max_order: int | None = None) -> FiniteGroup:
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    t = PartitionType(p, (1,) * n)
    if n == 0:
        label = "Z1"
    elif n == 1:
        label = f"Z{p}"
    else:
        label = f"Z{p}^{n}"
    return build_abelian(t, label=label, max_order=max_order)


def _self_check(G: FiniteGroup, ok: bool, relation: str) -> None:
    """A named group's defining relation, checked so that python -O keeps it."""
    if not ok:
        raise VerificationError(f"{G.label} self-check failed: {relation}")


def dihedral8(*, max_order: int | None = None) -> FiniteGroup:
    """D8 = <r, s | r^4 = s^2 = 1, s r s = r^-1>; element (a, b) = r^a s^b
    at index a + 4b."""
    G = FiniteGroup(_presented_table([(4, 0, []), (2, 0, [3])], max_order), "D8",
                    max_order=max_order)
    r, s = 1, 4
    _self_check(G, G.element_order(r) == 4 and G.element_order(s) == 2, "r^4 = s^2 = 1")
    _self_check(G, G.mult(G.mult(s, r), s) == G.inv(r), "s r s = r^-1")
    _self_check(G, not G.is_commutative, "non-abelian")
    return G


def quaternion8(*, max_order: int | None = None) -> FiniteGroup:
    """Q8 = <x, y | x^4 = 1, x^2 = y^2, y^-1 x y = x^-1>; element (a, b) =
    x^a y^b at index a + 4b."""
    G = FiniteGroup(_presented_table([(4, 0, []), (2, 2, [3])], max_order), "Q8",
                    max_order=max_order)
    x, y = 1, 4
    _self_check(G, G.mult(x, x) == G.mult(y, y), "x^2 = y^2")
    _self_check(G, G.mult(G.mult(G.inv(y), x), y) == G.inv(x), "y^-1 x y = x^-1")
    _self_check(G, not G.is_commutative, "non-abelian")
    return G


def modular_p3(p: int, *, max_order: int | None = None) -> FiniteGroup:
    """M(p^3) = <x, y | x^(p^2) = y^p = 1, y^-1 x y = x^(p+1)>, p odd,
    realized as x^a y^b at index a + p^2*b.  Since (1+p)(1-p) = 1 mod p^2,
    y x y^-1 = x^(1-p)."""
    _require_prime(p)
    if p == 2:
        raise DomainError(
            "M(p^3) requires an odd prime: at p=2 the presentation collapses "
            "to D8, whose factorization number is 41, not 3p^2+5p+7"
        )
    p2 = p * p
    table = _presented_table([(p2, 0, []), (p, 0, [p2 - p + 1])], max_order)
    G = FiniteGroup(table, f"M({p2 * p})", max_order=max_order)
    x, y = 1, p2
    _self_check(G, G.element_order(x) == p2 and G.element_order(y) == p,
                "x^(p^2) = y^p = 1")
    conj = G.mult(G.mult(G.inv(y), x), y)
    xp1 = 0
    for _ in range(p + 1):
        xp1 = G.mult(xp1, x)
    _self_check(G, conj == xp1, "y^-1 x y = x^(p+1)")
    _self_check(G, not G.is_commutative, "non-abelian")
    return G


def heisenberg_p3(p: int, *, max_order: int | None = None) -> FiniteGroup:
    """E(p^3): upper unitriangular 3x3 matrices over the p-element field,
    p odd.  Element (a, b, c) is the matrix [[1,a,c],[0,1,b],[0,0,1]] at
    index a*p^2 + b*p + c; product adds coordinates with c picking up a1*b2.
    It is z^c y^b x^a for x = (1,0,0), y = (0,1,0) and the central
    z = (0,0,1), and x y x^-1 = z y.

    Extraspecial of exponent p: every non-identity element has order p and
    the commutator [x, y] is central of order p.
    """
    _require_prime(p)
    if p == 2:
        raise DomainError(
            "E(p^3) requires an odd prime: at p=2 the exponent-p extraspecial "
            "presentation degenerates (the order-8 candidates are D8 and Q8)"
        )
    table = _presented_table([(p, 0, []), (p, 0, [1]), (p, 0, [1, 1 + p])], max_order)
    G = FiniteGroup(table, f"E({p ** 3})", max_order=max_order)
    _self_check(G, bool(np.all(G.element_orders()[1:] == p)), "exponent p")
    x, y = p * p, p  # (1,0,0) and (0,1,0)
    comm = G.mult(G.mult(G.inv(x), G.inv(y)), G.mult(x, y))
    _self_check(G, comm != 0 and G.element_order(comm) == p, "[x, y] of order p")
    _self_check(G, np.array_equal(G.table[comm], G.table[:, comm]), "[x, y] central")
    _self_check(G, not G.is_commutative, "non-abelian")
    return G


# One row per family: its named: key and its `formula` name (None where it has
# none), its declared parameters (p first), its constructor, which takes them
# and max_order, and F2 as a function of them and as a polynomial in p of the
# ones after p (None where no closed form is known).  Specs, `formula`, the
# explore catalogs and `f2 --verify` all read a family's forms from its row.
FAMILIES = (
    ("Cyclic", "cyclic", ("p", "n"), cyclic_group, lambda p, n: f2_cyclic(n), None),
    ("Elem", "elementary", ("p", "n"), elementary_abelian_group,
     lambda p, n: f2_elementary(n, p), f2_elementary_poly),
    (None, "rank2", ("p", "a1", "a2"), lambda p, a1, a2, **kw: build_abelian(
        PartitionType(p, (a1, a2)), **kw), f2_rank2, f2_rank2_poly),
    (None, "corollary4", ("p", "n"), lambda p, n, **kw: build_abelian(
        PartitionType(p, (1, n)), **kw), f2_corollary4, f2_corollary4_poly),
    ("D8", None, (), dihedral8, None, None),
    ("Q8", None, (), quaternion8, None, None),
    ("M", "Mp3", ("p",), modular_p3, f2_modular_p3, f2_modular_p3_poly),
    ("E", "Ep3", ("p",), heisenberg_p3, f2_heisenberg_p3, f2_heisenberg_p3_poly),
)


def named_family(name: str, p: int | None = None, n: int | None = None):
    """The constructor (taking max_order) and the closed form (taking nothing,
    giving None without one) of the FAMILIES row with the named: key `name`,
    both bound to its declared parameters, taken from p and n.  A family
    takes exactly its declared parameters, all required."""
    rows = [row for row in FAMILIES if row[0] and row[0] == name]
    if not rows:
        raise DomainError(f"unknown named family {name!r} "
                          f"(expected {', '.join(row[0] for row in FAMILIES if row[0])})")
    _, _, required, build, f2, _ = rows[0]
    given = {"p": p, "n": n}
    for key, value in given.items():
        if value is not None and key not in required:
            raise DomainError(f"{name} takes no parameter {key}")
    args = [given[k] for k in required]
    if None in args:
        both = "both " if len(required) > 1 else ""
        raise DomainError(f"{name} requires {both}{' and '.join(required)}")
    return partial(build, *args), partial(f2, *args) if f2 else lambda: None


def build_named(name: str, p: int | None = None, n: int | None = None, *,
                max_order: int | None = None) -> FiniteGroup:
    """The group of a named family: Cyclic(p,n), Elem(p,n), D8, Q8, M(p), E(p)."""
    return named_family(name, p, n)[0](max_order=max_order)


def abelian_closed_form(t: PartitionType) -> int | None:
    """F2 of the abelian group of type t by the closed form of its family
    in FAMILIES (cyclic, rank 2 or elementary), or None when it has none."""
    forms = {row[1]: row[4] for row in FAMILIES}
    if t.rank in (1, 2):
        return forms["cyclic" if t.rank == 1 else "rank2"](t.p, *t.alphas)
    return forms["elementary"](t.p, t.rank) if set(t.alphas) == {1} else None


# ---------------------------------------------------------------------------
# Cayley table files
# ---------------------------------------------------------------------------

def _lines(text: str):
    """text.splitlines(keepends=True), one line at a time: cutting after
    each "\n" never separates a "\r\n"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield from text[start:end].splitlines(keepends=True)
        start = end


def _read_row_blocks(text: str, start: int, n: int) -> np.ndarray | None:
    """The byte pass (module docstring): the body text[start:] as an n x n
    table, or None when a check fails, with no message."""
    table = np.empty(n * n, dtype=np.int32)
    line = 0  # lines before the block
    while start < len(text):
        cut = text.find("\n", start + _LIGHT_BLOCK_ELEMS - 1)
        end = len(text) if cut < 0 else cut + 1
        try:
            block = np.frombuffer(text[start:end].encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            return None
        start = end
        digits = block - 48  # uint8: every non-digit wraps to 10 or more
        is_digit = digits < 10
        breaks = np.flatnonzero(block == 10)
        if np.count_nonzero(is_digit) + np.count_nonzero(block == 32) + len(breaks) != len(block):
            return None
        # tokens run from a rise to the next fall of is_digit
        edges = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
        first, stop = edges[0::2], edges[1::2]
        # entries per line, and an empty segment after a final "\n"; a block
        # not ending in "\n" ends the body
        per_line = np.diff(np.searchsorted(first, breaks), prepend=0, append=len(first))
        lines = len(breaks) + int(block[-1] != 10)
        rows = min(max(n - line, 0), lines)
        if np.any(per_line[:rows] != n) or np.any(per_line[rows:]):
            return None
        if len(first):
            width = int((stop - first).max())
            if width > 18:  # 19 digits may not fit in int64
                return None
            # Horner's rule over every token left-padded with zeros to width
            value = np.zeros(len(first), dtype=np.int64)
            at = stop - width
            for _ in range(width):
                value *= 10
                value += np.where(at >= first, digits.take(at, mode="clip"), 0)
                at += 1
            if int(value.max()) >= n:
                return None
            table[line * n:(line + rows) * n] = value
        line += lines
    return table.reshape(n, n) if line >= n else None


def _read_rows(body: str, n: int) -> np.ndarray:
    """The per-row reader: the body as an n x n table, read line by line,
    raising a ParseError that names the first bad row."""
    lines = body.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != n:
        raise ParseError(f"expected {n} table rows, found {len(lines)}")
    table = np.empty((n, n), dtype=np.int32)
    for i, line in enumerate(lines):
        fields = line.split()
        if len(fields) != n:
            raise ParseError(f"row {i}: expected {n} entries, found {len(fields)}")
        try:
            row = np.array(fields, dtype=np.int64)
        except (ValueError, OverflowError):
            # numpy reads what int() reads, short of int64 overflow
            try:
                row = np.array([int(f) for f in fields], dtype=object)
            except ValueError as exc:
                raise ParseError(f"row {i}: non-integer entry") from exc
        bad = np.argwhere((row < 0) | (row >= n))
        if bad.size:
            j = int(bad[0, 0])
            raise ParseError(f"row {i}, column {j}: entry {row[j]} out of range [0, {n})")
        table[i] = row
    return table


def parse_cayley_table(text: str, *, label: str = "table",
                       max_order: int | None = None) -> FiniteGroup:
    """Parse the textual Cayley-table format.

    Leading '#' comment lines (and blank lines) are allowed before the
    header; after that the file is strict: line 1 is the decimal order n,
    followed by exactly n rows of n space-separated indices in [0, n).
    The identity may sit at any index e (row e and column e must act as
    the identity); it is renumbered to 0 on load.  The body goes through
    the byte pass, and through the per-row reader when the byte pass
    declines (module docstring).
    """
    offset = 0
    for pos, line in enumerate(_lines(text)):
        if line.strip() and not line.lstrip().startswith("#"):
            break
        offset += len(line)
    else:
        raise ParseError("no order line found")
    header = line.strip()
    try:
        n = int(header)
    except ValueError as exc:
        raise ParseError(f"line {pos + 1}: order must be a decimal integer, got {header!r}") from exc
    if n < 1:
        raise ParseError(f"line {pos + 1}: order must be positive, got {n}")
    _check_order_cap(n, max_order)
    start = offset + len(line)
    table = _read_row_blocks(text, start, n)
    if table is None:
        table = _read_rows(text[start:], n)

    idx = np.arange(n, dtype=np.int32)
    e = -1
    for cand in range(n):
        if np.array_equal(table[cand], idx) and np.array_equal(table[:, cand], idx):
            e = cand
            break
    if e < 0:
        raise ValidationError("no identity element: no index acts as identity on rows and columns")
    if e != 0:
        perm = idx.copy()
        perm[0], perm[e] = e, 0  # transposition sending e -> 0
        relabeled = np.empty_like(table)
        relabeled[perm[:, None], perm[None, :]] = perm[table]
        table = relabeled
    return FiniteGroup(table, label, max_order=max_order)


def load_cayley_table(source, *, max_order: int | None = None) -> FiniteGroup:
    """Load a Cayley table from a path, labelled by the file's stem, or from
    a readable text/byte stream, labelled "table".  A source that cannot be
    read, or that is not UTF-8 text, raises a ParseError naming it."""
    stream = hasattr(source, "read")
    where = "stream" if stream else f"file {str(source)!r}"
    try:
        raw = source.read() if stream else Path(source).read_text(encoding="utf-8")
        text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
    except OSError as exc:
        raise ParseError(f"cannot read the table {where}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"the table {where} is not UTF-8 text: {exc}") from exc
    return parse_cayley_table(text, label="table" if stream else Path(source).stem,
                              max_order=max_order)


# ---------------------------------------------------------------------------
# Derived groups
# ---------------------------------------------------------------------------

def _subgroup_bits(G: FiniteGroup, members) -> int:
    bits = getattr(members, "bits", None)
    if bits is None:
        bits = 0
        for i in members:
            bits |= 1 << int(i)
    bits |= 1
    if bits >> G.order:
        raise DomainError("subgroup contains an index outside the group")
    return bits


def quotient(G: FiniteGroup, N) -> FiniteGroup:
    """Quotient of G by a normal subgroup N (a Subgroup, bitmask int, or an
    iterable of element indices).  Cosets are numbered in order of first
    appearance, so the identity coset is index 0."""
    in_n = _unpack(_subgroup_bits(G, N), G.order)
    n_idx = np.flatnonzero(in_n)
    k = len(n_idx)
    t = G.table
    # N must be a subgroup to begin with
    if not in_n[t[np.ix_(n_idx, n_idx)]].all():
        raise DomainError("the given element set is not closed under the group operation")
    if G.order % k:
        raise DomainError("subgroup size does not divide the group order")
    # normality: g N g^-1 inside N (so equal to it) for every g, in row blocks
    if not G.is_commutative:
        step = max(1, _LIGHT_BLOCK_ELEMS // k)
        for s in range(0, G.order, step):
            g = np.arange(s, min(s + step, G.order))
            moved = ~in_n[t[t[g[:, None], n_idx], G.inverses[g][:, None]]].all(axis=1)
            if moved.any():
                raise DomainError(f"subgroup is not normal: conjugation by element "
                                  f"{s + int(moved.argmax())} moves it")
    coset_id = np.full(G.order, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(G.order):
        if coset_id[x] < 0:
            coset_id[t[x, n_idx]] = len(reps)
            reps.append(x)
    reps_arr = np.array(reps, dtype=np.int64)
    qtable = coset_id[t[np.ix_(reps_arr, reps_arr)]].astype(np.int32)
    # no larger than G, which was admitted under the cap
    Q = FiniteGroup(qtable, f"{G.label}/(order-{k} subgroup)", max_order=G.order)
    if Q.order * k != G.order:
        raise VerificationError(
            f"|G/N| * |N| = {Q.order} * {k}, but |G| = {G.order}"
        )
    return Q


def permute_elements(G: FiniteGroup, perm) -> FiniteGroup:
    """Relabel elements by a permutation fixing the identity (perm[0] == 0).
    Factorization counts and lattice shape are invariant under this."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (G.order,) or not np.array_equal(np.sort(p), np.arange(G.order)):
        raise DomainError("perm must be a permutation of 0..order-1")
    if p[0] != 0:
        raise DomainError("perm must fix the identity (perm[0] == 0)")
    t = G.table
    new = np.empty_like(t)
    new[p[:, None], p[None, :]] = p[t]
    return FiniteGroup(new, f"{G.label}~relabeled", max_order=G.order)


def is_elementary_abelian(G: FiniteGroup) -> tuple[bool, int | None, int | None]:
    """(True, p, n) when G is elementary abelian of order p**n; the trivial
    group reports (True, None, 0)."""
    if G.order == 1:
        return True, None, 0
    pk = prime_power(G.order)
    if pk is None or not G.is_commutative:
        return False, None, None
    p, n = pk
    # exponent p: x^p = 1 for every x
    if np.any(_pth_powers(G, p)):
        return False, None, None
    return True, p, n


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p**k (k >= 1), or None.  n = 1 returns None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)
