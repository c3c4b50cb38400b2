"""Independent oracles for cross-validating the package.

These deliberately avoid the algorithms under test: subgroups are found
by checking closure of raw subsets, factorizations by materializing
literal product sets, and Moebius values by inverting the zeta matrix
with sympy.  Keep them dumb.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np

from facnum.errors import ResourceLimitError
from facnum.groups import FiniteGroup
from facnum.intpoly import IntPolynomial
from facnum.lattice import _ordered_pairs, _pair_tasks

SUBSET_ORACLE_MAX_ORDER = 16


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def subgroups_by_subsets(G: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups, by testing every identity-containing subset whose size
    divides the group order for closure.  Exponential; order <= 16 only."""
    n = G.order
    assert n <= SUBSET_ORACLE_MAX_ORDER, "subset oracle is exponential"
    rows = G.rows
    others = list(range(1, n))
    found = []
    for d in divisors(n):
        for extra in combinations(others, d - 1):
            subset = frozenset((0,) + extra)
            if all(rows[a][b] in subset for a in subset for b in subset):
                found.append(subset)
    return found


def product_set(G: FiniteGroup, A, B) -> frozenset[int]:
    rows = G.rows
    return frozenset(rows[a][b] for a in A for b in B)


def f2_by_product_sets(G: FiniteGroup, subgroups=None) -> int:
    """Count ordered subgroup pairs whose literal product set is the whole
    group.  No order-arithmetic shortcut anywhere."""
    subs = subgroups if subgroups is not None else subgroups_by_subsets(G)
    everything = frozenset(range(G.order))
    return sum(
        1 for H in subs for K in subs if product_set(G, H, K) == everything
    )


def permuting_pairs_by_product_sets(G: FiniteGroup, subgroups=None) -> int:
    subs = subgroups if subgroups is not None else subgroups_by_subsets(G)
    return sum(
        1
        for H in subs
        for K in subs
        if product_set(G, H, K) == product_set(G, K, H)
    )


def zeta_inverse(lat):
    """The exact inverse of the lattice's zeta matrix (sympy), whose entry
    (H, K) is mu(H, K)."""
    from sympy import Matrix

    m = len(lat)
    zeta = Matrix(m, m, lambda i, j: 1 if lat.leq(i, j) else 0)
    return zeta.inv()


def mobius_oracle(lat, mu=None) -> list[int]:
    """mu(H, G) for every lattice member via exact zeta-matrix inversion
    (mu: a zeta_inverse already computed)."""
    mu = zeta_inverse(lat) if mu is None else mu
    top = lat.index_of_full
    return [int(mu[h, top]) for h in range(len(lat))]


def mobius_bottom_oracle(lat, mu=None) -> list[int]:
    """mu(1, H) for every lattice member, from the same inverse."""
    mu = zeta_inverse(lat) if mu is None else mu
    return [int(mu[0, h]) for h in range(len(lat))]


def check_recursion(lat, mu_top) -> bool:
    """mu_top (mu(K, G) for every member K) satisfies the defining
    recursion: the sum over K >= H is 1 at H = G and 0 below it."""
    top = lat.index_of_full
    return all(sum(mu_top[k] for k in lat.up_lists[h].tolist()) == int(h == top)
               for h in range(len(lat)))


def permutation_group(generators, label: str = "perm") -> FiniteGroup:
    """Cayley table of the permutation group generated by the given tuples
    (images of 0..d-1), identity at index 0, elements in discovery order."""
    d = len(generators[0])
    identity = tuple(range(d))
    elements = [identity]
    index = {identity: 0}
    for x in elements:  # grows while iterated: breadth-first closure
        for g in generators:
            y = tuple(g[x[i]] for i in range(d))
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    table = [[index[tuple(b[a[i]] for i in range(d))] for b in elements] for a in elements]
    return FiniteGroup(table, label)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with element (g, h) at index g * |H| + h."""
    m = H.order
    table = [[G.rows[a // m][b // m] * m + H.rows[a % m][b % m]
              for b in range(G.order * m)] for a in range(G.order * m)]
    return FiniteGroup(table, f"{G.label}x{H.label}")


def abelian_table_by_coordinates(moduli) -> list[list[int]]:
    """Cayley table of Z_m1 x ... x Z_mk, element x = sum x_i * m_1...m_(i-1)
    (first coordinate fastest), one coordinate sum per entry."""
    def coords(x):
        out = []
        for m in moduli:
            x, r = divmod(x, m)
            out.append(r)
        return out

    def index(c):
        x = 0
        for m, ci in zip(reversed(moduli), reversed(c)):
            x = x * m + ci
        return x

    cs = [coords(x) for x in range(math.prod(moduli))]
    return [[index([(a + b) % m for a, b, m in zip(ca, cb, moduli)]) for cb in cs] for ca in cs]


def cyclic_group_of_order(n: int) -> FiniteGroup:
    """Z_n as addition mod n, for any n."""
    i = np.arange(n)
    return FiniteGroup((i[:, None] + i[None, :]) % n, f"Z{n}")


def dihedral_group(m: int) -> FiniteGroup:
    """D_2m with r^i s^e at index e * m + i, from r^i s^e * r^j s^f =
    r^(i + (-1)^e j) s^(e + f)."""
    e, i = np.divmod(np.arange(2 * m), m)
    rot = (i[:, None] + np.where(e[:, None] == 1, -1, 1) * i[None, :]) % m
    return FiniteGroup((e[:, None] + e[None, :]) % 2 * m + rot, f"D{2 * m}")


def associative_bruteforce(table) -> bool:
    """Whether (ab)c == a(bc) for all n^3 triples, by one full gather."""
    t = np.asarray(table)
    return bool(np.array_equal(t[t], np.take(t, t, axis=1)))


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and first column are
    0..n-1 in order, filled cell by cell in row-major order."""
    square = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        i, j = cells[k]
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                yield from fill(k + 1)
        square[i][j] = -1

    yield from fill(0)


def order8_table(y_squared: int) -> np.ndarray:
    """<x, y | x^4 = 1, y^2 = x^y_squared, y^-1 x y = x^-1> on x^a y^b at
    index a + 4b: D8 for y_squared 0, Q8 for 2.  Moving y^b1 past x^a2
    negates a2 when b1 = 1; y^2 turns into x^y_squared."""
    b, a = np.divmod(np.arange(8), 4)
    a1, b1, a2, b2 = a[:, None], b[:, None], a[None, :], b[None, :]
    return (a1 + (1 - 2 * b1) * a2 + y_squared * (b1 * b2)) % 4 + 4 * ((b1 + b2) % 2)


def modular_p3_table(p: int) -> np.ndarray:
    """M(p^3) on x^a y^b at index a + p^2 b, one coordinate rule:
    (a1, b1)(a2, b2) = (a1 + a2 (1 - b1 p) mod p^2, b1 + b2 mod p)."""
    b, a = np.divmod(np.arange(p**3), p * p)
    a1, b1, a2, b2 = a[:, None], b[:, None], a[None, :], b[None, :]
    return (a1 + a2 * (1 - b1 * p)) % (p * p) + p * p * ((b1 + b2) % p)


def heisenberg_p3_table(p: int) -> np.ndarray:
    """Unitriangular matrices [[1,a,c],[0,1,b],[0,0,1]] over Z_p at index
    a p^2 + b p + c: (a1 + a2, b1 + b2, c1 + c2 + a1 b2)."""
    i = np.arange(p**3)
    a, b, c = i // (p * p), i // p % p, i % p
    return (((a[:, None] + a) % p) * p * p + ((b[:, None] + b) % p) * p
            + (c[:, None] + c + a[:, None] * b) % p)


def meet_index(lat, i: int, j: int) -> int:
    """Lattice index of H_i ∩ H_j, looked up by its bitset."""
    return lat.index_of(lat.subgroups[i].bits & lat.subgroups[j].bits)


def intersection_closed(lat) -> bool:
    """Every pairwise AND of members is a member (exhaustive)."""
    bits = {s.bits for s in lat.subgroups}
    return all(a & b in bits for a, b in combinations(bits, 2))


def index_p_joins_per_member(G: FiniteGroup, p: int, powers, h_bits: int) -> list[int]:
    """Bitsets of the joins J = H u Hg u ... u Hg^(p-1) of one member H of
    a p-group, for the g outside H with g^p in H that normalize H, each
    from the least element of J \\ H, g ascending: numpy calls per member."""
    t = G.table
    nbytes = ((G.order + 63) // 64) * 8
    raw = np.frombuffer(h_bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    in_h = np.unpackbits(raw, count=G.order, bitorder="little").view(bool)
    h_idx = np.flatnonzero(in_h)
    g = np.flatnonzero(in_h[powers] & ~in_h)
    if not G.is_commutative:
        conj = t[t[g[:, None], h_idx[None, :]], G.inverses[g][:, None]]
        g = g[in_h[conj].all(axis=1)]
    x, cosets = g, []
    for _ in range(p - 1):
        cosets.append(t[h_idx[None, :], x[:, None]])
        x = t[x, g]
    block = np.concatenate(cosets, axis=1)
    outside = block[block.min(axis=1) == g]
    member = np.zeros((len(outside), nbytes * 8), dtype=bool)
    member[:, h_idx] = True
    member[np.arange(len(outside))[:, None], outside] = True
    packed = np.packbits(member, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i:i + nbytes], "little") for i in range(0, len(packed), nbytes)]


def discovery_per_member(G: FiniteGroup, p: int, cap: int = 100_000):
    """Members of a p-group in discovery order, from a breadth-first queue
    that extends one member at a time with index_p_joins_per_member; the
    same ResourceLimitError text as enumerate_subgroups past the cap."""
    powers = np.arange(G.order)
    for _ in range(p - 1):
        powers = G.table[powers, np.arange(G.order)]
    full = (1 << G.order) - 1
    found = {1}
    members = [1]
    queue = deque([1] if G.order > 1 else [])
    while queue:
        h_bits = queue.popleft()
        for j_bits in index_p_joins_per_member(G, p, powers, h_bits):
            if j_bits not in found:
                found.add(j_bits)
                members.append(j_bits)
                if len(members) > cap:
                    raise ResourceLimitError(
                        f"subgroup count exceeded the cap {cap}: stopped after "
                        f"{len(members)} subgroups, the largest of order "
                        f"{max(b.bit_count() for b in members)} (pass max_subgroups to override)"
                    )
                if j_bits != full:
                    queue.append(j_bits)
    return members


def gaussian_row_by_division(n: int) -> list[IntPolynomial]:
    """[n, i] for every i <= n, each from the one before by the product
    formula: [n, i] = [n, i-1] (p^(n-i+1) - 1) / (p^i - 1), an exact_div."""
    x = IntPolynomial.x()
    row = [IntPolynomial.constant(1)]
    for i in range(1, n + 1):
        row.append((row[-1] * (x ** (n - i + 1) - 1)).exact_div(x**i - 1))
    return row


def bit_indices(bits: int) -> list[int]:
    """The set bits of an int, ascending, one lowest bit at a time."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def f2_of_member_by_tasks(lat, h: int) -> int:
    """F2 of member h task by task: each order-class task (_pair_tasks) of
    its down-list counted by _ordered_pairs, the route f2_of_member keeps
    for a member larger than one pair block.  The reference for the flat
    member kernel, _member_f2s."""
    down = lat.down_lists[h]
    words = lat.words[down]
    return sum(_ordered_pairs(words, task) for task in _pair_tasks(lat.orders[down], int(lat.orders[h])))
