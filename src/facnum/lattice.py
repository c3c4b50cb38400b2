"""Subgroup lattices: enumeration, Moebius values, factorization counting.

Subgroups are bitsets over element indices (Python ints), mirrored into
a numpy uint64 word matrix for pair counting, which is blocked by
subgroup order: a product set satisfies |HK| = |H||K| / |H∩K| for any
two subgroups, so HK = G is equivalent to |H|*|K| == |G|*|H∩K| and only
the intersection popcount is ever materialized.

Enumeration is cyclic extension: a member is extended by normal index-p
steps, one order class and prime at a time, which reaches every subgroup
of a solvable group; a group it does not reach is not solvable, and the
generic extension <H, g> enumerates it instead.  Containment is not
scanned for pair by pair: in a group of prime-power order it follows from
the extension edges, and otherwise from the pair kernel, run once over the
order-class pairs whose orders divide.  Joins follow from containment.

All aggregate arithmetic (Moebius values, inversion sums) runs on plain
Python ints; the numpy side only ever produces bounded popcounts.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import repeat

import numpy as np

from .errors import DomainError, ResourceLimitError, VerificationError
from .formulas import hall_mobius, is_prime
from .groups import (FiniteGroup, _pack, _pth_powers, _right_cosets, _unpack,
                     is_elementary_abelian, prime_power, quotient)

DEFAULT_MAX_SUBGROUPS = 100_000
# unordered member pairs sd may take: its permuting-pairs route tests
# each pair in Python, a few microseconds a pair
MAX_SD_PAIRS = 10_000_000
# members up to which verify_inversion computes sd(H) member by member on an
# abelian lattice; above it, it takes sd(H) = 1
SD_ABELIAN_CAP = 64
# members up to which verify_inversion builds each quotient G/H; above it,
# |L(G/H)| comes from the correspondence theorem
QUOTIENT_CAP = 400

# cells per temporary block of the index-p level pass
_LEVEL_CELLS = 1 << 16
# uint64 cells per temporary block of the pair kernel: 2 MiB, one core's L2
_PAIR_CELLS = 1 << 18
# cells per temporary of the containment pass: a chunk's mark block, and the
# up-list entries its edge targets gather
_CONTAIN_CELLS = 1 << 20


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a bitset over element indices (bit 0 = identity)."""

    bits: int
    order: int

    def indices(self) -> list[int]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out


class SubgroupLattice:
    """The complete subgroup lattice of a FiniteGroup.

    Members are sorted canonically by (order, bitset value) ascending, so
    index 0 is the trivial subgroup and the last index is the full group.
    Pairwise intersections of members are members; inclusion is a two-int
    bit test.  Containment lists are derived from edges H -> J that chain
    every pair H < K: the extension edges enumerate_subgroups records for a
    group of prime-power order, or else every pair H < K, taken from the
    pair kernel on first use (_inclusions).
    """

    def __init__(self, group: FiniteGroup, found: list[int],
                 edges: tuple[np.ndarray, np.ndarray] | None):
        """found: member bitsets in discovery order; edges: (source, target)
        arrays of discovery numbers, one entry per recorded extension, or
        None to take containment from the pair kernel."""
        self.group = group
        nbytes = ((group.order + 63) // 64) * 8
        self._nbytes = nbytes
        words = (np.frombuffer(b"".join(b.to_bytes(nbytes, "little") for b in found),
                               dtype=np.uint8).reshape(len(found), nbytes).view(np.uint64))
        orders = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        keys = np.empty((words.shape[1] + 1, len(found)), dtype=np.uint64)
        keys[:-1], keys[-1] = words.T, orders  # by order, then by bitset value
        order = np.lexsort(keys)
        self._words, self.orders = words[order], orders[order]
        self._bits = [found[i] for i in order.tolist()]
        self.subgroups = [Subgroup(b, o) for b, o in zip(self._bits, self.orders.tolist())]
        self._edges = None
        if edges is not None:
            rank = np.empty(len(found), dtype=np.int64)
            rank[order] = np.arange(len(found), dtype=np.int64)
            self._edges = (rank[edges[0]], rank[edges[1]])
        ends = (np.flatnonzero(np.diff(self.orders)) + 1).tolist() + [len(found)]
        self._classes = list(zip([0] + ends[:-1], ends))  # (start, end) per order
        self._index = {s.bits: i for i, s in enumerate(self.subgroups)}
        self.index_of_trivial = 0
        self.index_of_full = len(self.subgroups) - 1
        if self.subgroups[0].bits != 1:
            raise VerificationError("the least lattice member is not the trivial subgroup")
        if self.subgroups[-1].order != group.order:
            raise VerificationError(f"the largest lattice member has order "
                                    f"{self.subgroups[-1].order}, not the group order {group.order}")
        self._up: list[np.ndarray] | None = None
        self._down: list[np.ndarray] | None = None
        self._up_flat: np.ndarray | None = None
        self._down_flat: np.ndarray | None = None
        self._up_degrees: np.ndarray | None = None
        self._down_degrees: np.ndarray | None = None
        self._mobius_top: tuple[int, ...] | None = None
        self._up_sets: list[int] | None = None

    def __len__(self) -> int:
        return len(self.subgroups)

    def index_of(self, member) -> int:
        bits = getattr(member, "bits", member)
        try:
            return self._index[bits]
        except KeyError:
            raise KeyError("not a member of the lattice") from None

    def leq(self, i: int, j: int) -> bool:
        """Inclusion H_i <= H_j, O(words)."""
        bi = self._bits[i]
        return bi & self._bits[j] == bi

    def join_index(self, i: int, j: int) -> int:
        """Smallest member containing both: members are sorted by order, so
        the join is the lowest common member of their up-sets."""
        both = self.up_sets[i] & self.up_sets[j]
        if not both:
            raise VerificationError(f"members {i} and {j} have no common upper member: "
                                    "an up-list lost the full group")
        return (both & -both).bit_length() - 1

    @property
    def words(self) -> np.ndarray:
        """(members, words) uint64 matrix of the bitsets (little-endian)."""
        return self._words

    # -- containment structure ------------------------------------------------

    def _ensure_containment(self) -> None:
        """Up-lists from the edges (_up_lists), each a view into one flat
        int64 array; the down-lists are their transpose (_transpose), each
        member first."""
        if self._up is not None:
            return
        src, dst = self._edges or _inclusions(self.words, self.orders, self._classes)
        self._edges = None  # only the up-lists need the edges, sorted by source
        by_src = np.argsort(src, kind="stable")
        src, dst = src[by_src], dst[by_src]
        del by_src
        up, self._up_degrees = _up_lists(len(self), src, dst, self._classes)
        del src, dst
        self._up_flat, self._up = up, _split(up, self._up_degrees)
        down, self._down_degrees = _transpose(up, self._up_degrees)
        self._down_flat, self._down = down, _split(down, self._down_degrees)

    @property
    def up_lists(self) -> list[np.ndarray]:
        """For each member H, indices of all members K with H <= K (incl. H)."""
        self._ensure_containment()
        return self._up

    @property
    def down_lists(self) -> list[np.ndarray]:
        """For each member K, indices of all members H with H <= K (incl. K)."""
        self._ensure_containment()
        return self._down

    @property
    def up_degrees(self) -> np.ndarray:
        self._ensure_containment()
        return self._up_degrees

    @property
    def down_degrees(self) -> np.ndarray:
        """down_degrees[h] = number of lattice members inside H = |L(H)|."""
        self._ensure_containment()
        return self._down_degrees

    @property
    def up_sets(self) -> list[int]:
        """For each member H, its up-list as a bitset over member indices,
        packed on first use (m^2 bits in all, so not with the lists)."""
        if self._up_sets is None:
            mark = np.zeros(len(self), dtype=bool)
            sets = []
            for u in self.up_lists:
                mark[u] = True
                sets.append(_pack(mark))
                mark[u] = False
            self._up_sets = sets
        return self._up_sets

    @property
    def mobius_top(self) -> tuple[int, ...]:
        """mu(H, G) for every member, computed once per lattice."""
        if self._mobius_top is None:
            self._mobius_top = mobius_to_top(self)
        return self._mobius_top

    def maximal_indices(self) -> list[int]:
        """Members covered only by the full group: every proper member's
        up-list holds itself and the full group, and a maximal one's holds
        nothing else."""
        return np.flatnonzero(self.up_degrees[:-1] == 2).tolist()


def _up_lists(m: int, src: np.ndarray, dst: np.ndarray,
              classes: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(flat, degrees): the up-list of every member, member by member in one
    flat int64 array, from the edges src -> dst sorted by source.  The lists
    are built one order class at a time from the top class down.  Members
    of one order are pairwise incomparable, so every edge target of a class
    lies in a class already done, and up[h] is h followed by the union of
    its edge targets' up-lists.  Each chunk of a class gathers its targets'
    up-lists with one ragged index, marks them in a (rows, m - lo) bool
    block (lo: the end of the class), reads the marks back in order by
    skipping zero 8-byte words, and puts each member first.  A chunk's
    block and its gathered entries stay within _CONTAIN_CELLS cells (a
    chunk has at least one row)."""
    first_edge = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=first_edge[1:])
    degrees = np.zeros(m, dtype=np.int64)
    where = np.zeros(m, dtype=np.int64)  # start of each up-list in buf
    buf = np.empty(4 * m, dtype=np.int64)  # the lists by class, top class first
    mark = np.zeros(0, dtype=bool)  # grown on demand, cleared after each chunk
    used = 0
    spans = []
    for a, lo in reversed(classes):
        width = (m - lo + 7) // 8 * 8  # whole words per block row
        rows_cap = _CONTAIN_CELLS // max(width, 1)
        gathered = np.zeros(first_edge[lo] - first_edge[a] + 1, dtype=np.int64)
        np.cumsum(degrees[dst[first_edge[a]:first_edge[lo]]], out=gathered[1:])
        gathered = gathered[first_edge[a:lo + 1] - first_edge[a]]  # before each row
        spans.append(used)
        r = a
        while r < lo:
            # as many rows as the block and the gathered entries allow
            end = a - 1 + int(np.searchsorted(gathered, gathered[r - a] + _CONTAIN_CELLS,
                                              side="right"))
            end = max(r + 1, min(lo, r + rows_cap, end))
            rows = end - r
            e0, e1 = first_edge[r], first_edge[end]
            t = dst[e0:e1]
            d = degrees[t]
            entry = np.arange(int(d.sum())) + np.repeat(where[t] - (np.cumsum(d) - d), d)
            if len(mark) < rows * width:
                mark = np.zeros(rows * width, dtype=bool)
            block = mark[:rows * width]
            block[np.repeat((src[e0:e1] - r) * width - lo, d) + buf[entry]] = True
            words = block.view(np.uint64)
            word = np.flatnonzero(words != 0)
            bit = np.flatnonzero(words[word].view(bool))
            cell = word[bit >> 3] * 8 + (bit & 7)
            block[cell] = False
            row, col = np.divmod(cell, width)
            need = used + rows + len(cell)
            if need > len(buf):
                grown = np.empty(max(2 * len(buf), need), dtype=np.int64)
                grown[:used] = buf[:used]
                buf = grown
            deg = np.bincount(row, minlength=rows) + 1
            head = used + np.cumsum(deg) - deg
            buf[head] = np.arange(r, end)
            buf[used + 1 + row + np.arange(len(cell))] = col + lo
            where[r:end], degrees[r:end] = head, deg
            used, r = need, end
    spans.append(used)
    pieces = [buf[s:e] for s, e in zip(spans[:-1], spans[1:])]
    return np.concatenate(pieces[::-1]), degrees


def _inclusions(words: np.ndarray, orders: np.ndarray,
                classes: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of every pair H < K, from the pair kernel: H <= K
    iff |H n K| = |H|, tested over the order-class pairs with |H| a proper
    divisor of |K|."""
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i, (a, b) in enumerate(classes):
        for c, d in classes[i + 1:]:
            if orders[c] % orders[a] == 0:
                for s, hit in _pair_hits(words, np.arange(a, b), np.arange(c, d), orders[a]):
                    row, col = np.nonzero(hit)
                    src.append(row + a + s)
                    dst.append(col + c)
    return np.concatenate(src), np.concatenate(dst)


def _transpose(up: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(flat, degrees) of the down-lists from the flat up-lists.  One sort of
    the keys sup*m + sub puts the subgroups of each member in an ascending
    run, the member itself last (a member is the largest index among its
    subgroups); moving it to the front of its run gives its down-list."""
    m = len(degrees)
    # the sorted runs lie one place right of their place in down, which
    # leaves the first slot of each run free for its member
    down = np.empty(len(up) + 1, dtype=np.int64)
    keys = down[1:]
    np.multiply(up, m, out=keys)
    keys += np.repeat(np.arange(m, dtype=np.int64), degrees)
    keys.sort()
    keys %= m
    down_degrees = np.bincount(up, minlength=m)
    down[np.cumsum(down_degrees) - down_degrees] = np.arange(m)
    return down[:-1], down_degrees


def _split(flat: np.ndarray, degrees: np.ndarray) -> list[np.ndarray]:
    """flat as consecutive views of the given lengths."""
    bounds = np.cumsum(degrees).tolist()
    return [flat[s:e] for s, e in zip([0] + bounds[:-1], bounds)]


def _index_p_level(G: FiniteGroup, p: int, powers: np.ndarray, raw: np.ndarray,
                   series: np.ndarray, indices: np.ndarray):
    """Index-p joins of one order class, whose bitsets are the rows of raw
    (whole 8-byte words), as (positions in raw, g, join rows), sources in
    row order and g ascending within a source.  For every H and every g
    outside H with g^p in H that normalizes H, J = H u Hg u ... u Hg^(p-1);
    J \\ H consists of such g, so J is taken once, from its least element.

    The rows of series and indices are a composition series of each H:
    H_i = H_(i-1)<series[:, i]> has the prime index indices[:, i] over
    H_(i-1).  In a non-abelian G, g normalizes H when it conjugates each
    series[:, i] into H.  In an abelian G, the least element of every coset
    Hy is tabulated one step at a time: the least of H_i y is the least,
    over j < indices[:, i], of the least of H_(i-1) h_i^j y.  Sources and
    (H, g) pairs go in chunks of about _LEVEL_CELLS cells, and the joins
    are yielded in batches of about _LEVEL_CELLS bytes."""
    n = G.order
    flat = G.table.ravel()
    q = int(np.bitwise_count(raw[0]).sum())
    sources = max(1, _LEVEL_CELLS // n)
    pairs = max(1, _LEVEL_CELLS // max(series.shape[1], p - 1))
    rows = max(1, _LEVEL_CELLS // max((p - 1) * q, raw.shape[1]))
    held, size = [], 0  # joins not yet yielded
    for base in range(0, len(raw), sources):
        chunk = raw[base:base + sources]
        gens, steps = series[base:base + sources], indices[base:base + sources]
        in_h = np.unpackbits(chunk, axis=1, count=n, bitorder="little").view(bool)
        # row offsets of each source's elements in the flat table, (q, sources)
        h_rows = np.ascontiguousarray(np.nonzero(in_h)[1].reshape(len(chunk), q).T) * n
        if G.is_commutative:
            least = np.tile(np.arange(n), (len(chunk), 1))
            for i in range(series.shape[1]):
                below, y = least.copy(), np.arange(n)
                for j in range(1, int(steps[:, i].max())):
                    y = flat[gens[:, i, None] * n + y]  # h_i^j y
                    np.minimum(least, np.take_along_axis(below, y, axis=1), out=least,
                               where=j < steps[:, i, None])
        pair_rows, pair_g = np.nonzero(in_h[:, powers] & ~in_h)
        for s in range(0, len(pair_rows), pairs):
            r, g = pair_rows[s:s + pairs], pair_g[s:s + pairs]
            if G.is_commutative:  # g is the least of J \\ H = Hg u ... u Hg^(p-1)
                x, low = g, least[r, g]
                for _ in range(p - 2):
                    x = flat[x * n + g]
                    low = np.minimum(low, least[r, x])
                r, g = r[low == g], g[low == g]
            else:  # g^-1 h_i g in H for every h_i of the series
                conj = flat[G.inverses[g, None] * n + flat[gens[r] * n + g[:, None]]]
                normal = in_h[r[:, None], conj].all(axis=1)
                r, g = r[normal], g[normal]
            for t in range(0, len(r), rows):
                rt, gt = r[t:t + rows], g[t:t + rows]
                h, x, cosets = np.take(h_rows, rt, axis=1), gt, []
                for _ in range(p - 1):
                    cosets.append(flat[h + x])  # H g^j
                    x = flat[x * n + gt]
                outside = np.concatenate(cosets)  # J \\ H, element axis first
                if not G.is_commutative:  # g is the least of J \\ H
                    keep = outside.min(axis=0) == gt
                    rt, gt, outside = rt[keep], gt[keep], outside[:, keep]
                mask = np.zeros((len(rt), 8 * raw.shape[1]), dtype=bool)
                mask[np.arange(len(rt)), outside] = True
                joins = chunk[rt] | np.packbits(mask, axis=1, bitorder="little")
                held.append((rt + base, gt, joins))
                size += joins.size
                if size >= _LEVEL_CELLS:
                    yield tuple(map(np.concatenate, zip(*held)))
                    held, size = [], 0
    if held:
        yield tuple(map(np.concatenate, zip(*held)))


def _cyclic_extension(G: FiniteGroup, cap: int):
    """(members in discovery order, edges): the edges are (source, target)
    arrays of discovery numbers, one entry per extension, when |G| is a
    prime power, and None otherwise.  Each generation is extended by
    _index_p_level once per order class q and prime p dividing |G|/q, and
    the joins not seen before form the next generation.  Each batch of
    joins is made unique by one sort, and its distinct rows are looked up
    as ints in one dict from member bitset to discovery number; the new
    ones are numbered in the order they first occur."""
    n = G.order
    nbytes = (n + 63) // 64 * 8
    row = np.dtype(f"V{nbytes}")
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    powers = {p: _pth_powers(G, p) for p in primes}
    number_of = {1: 0}  # member bitset -> discovery number, in discovery order
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    level = np.zeros((int(n > 1), nbytes), dtype=np.uint8)  # rows of the generation
    level[:, 0] = 1
    # and their composition series: generators, and the prime index of each step
    series = indices = np.zeros((len(level), 0), dtype=np.int64)
    start = 0  # discovery number of its first member
    while len(level):
        fresh_rows = []  # the next generation
        orders = np.bitwise_count(level).sum(axis=1)
        for q in np.unique(orders).tolist():
            where = np.flatnonzero(orders == q)
            for p in (p for p in primes if n // q % p == 0):
                for r, g, joins in _index_p_level(G, p, powers[p], level[where],
                                                  series[where], indices[where]):
                    uniq, first, inverse = np.unique(joins.view(row).ravel(),
                                                     return_index=True, return_inverse=True)
                    keys = list(map(int.from_bytes, uniq.tolist(), repeat("little")))
                    number = np.fromiter(map(number_of.get, keys, repeat(-1)), np.int64, len(keys))
                    fresh = np.flatnonzero(number < 0)
                    fresh = fresh[np.argsort(first[fresh])]  # first-occurrence order
                    fresh = fresh[:max(1, cap + 1 - len(number_of))]
                    number[fresh] = len(number_of) + np.arange(len(fresh))
                    number_of.update(zip(map(keys.__getitem__, fresh.tolist()),
                                         number[fresh].tolist()))
                    if len(number_of) > cap:
                        raise _cap_error(cap, number_of)
                    take = first[fresh]
                    source = where[r[take]]
                    fresh_rows.append((joins[take], np.column_stack((series[source], g[take])),
                                       np.column_stack((indices[source], np.full(len(take), p)))))
                    src.append(start + where[r])
                    dst.append(number[inverse])
        start += len(level)
        if not fresh_rows:
            break
        level, series, indices = map(np.concatenate, zip(*fresh_rows))
    return list(number_of), (np.concatenate(src), np.concatenate(dst)) if len(primes) < 2 else None


def _cap_error(cap: int, members: Collection[int]) -> ResourceLimitError:
    return ResourceLimitError(
        f"subgroup count exceeded the cap {cap}: stopped after {len(members)} subgroups, "
        f"the largest of order {max(b.bit_count() for b in members)} "
        "(pass max_subgroups to override)")


def _generic_joins(G: FiniteGroup, h_bits: int) -> list[int]:
    """Bitsets of <H, g> for every g outside H, skipping the elements x
    with <H, x> equal to a join already taken.  If g normalizes H (always,
    when G is commutative or H trivial), J = <H, g> is the union of the
    cosets Hg^k, k < m = |J:H|, and the skipped x are those in the cosets
    with k prime to m.  Otherwise they are the x in the double cosets HyH
    for y a generator of <g>, or all of J \\ H when m is prime (Lagrange
    inside J)."""
    t = G.table
    in_h = _unpack(h_bits, G.order)
    h_idx = np.flatnonzero(in_h)
    covered = h_bits
    joins = []
    for g in range(1, G.order):
        if (covered >> g) & 1:
            continue
        if G.is_commutative or in_h[t[t[g, h_idx], G.inverses[g]]].all():
            label = _right_cosets(G, h_idx, [g])
            skip = (label > 0) & (np.gcd(label, label.max() + 1) == 1)
        else:
            label = _right_cosets(G, h_idx, np.append(h_idx[1:], g))
            if is_prime(int(label.max()) + 1):
                skip = label > 0
            else:
                chain, x = [0], g
                while x:
                    chain.append(x)
                    x = int(t[x, g])
                y = np.array([x for k, x in enumerate(chain) if math.gcd(k, len(chain)) == 1])
                skip = np.isin(label, label[t[y[:, None], h_idx[None, :]]])
        joins.append(_pack(label >= 0))
        covered |= _pack(skip)
    return joins


def enumerate_subgroups(G: FiniteGroup, *, max_subgroups: int | None = None) -> SubgroupLattice:
    """Materialize the full subgroup lattice by extension from the trivial
    subgroup.

    Cyclic extension (Neubueser) comes first: a member H of order q is
    extended by the elements g outside H with g^p in H that normalize H,
    for each prime p dividing |G|/q, so every join J = H<g> has index p
    over H and is the coset-power union H u Hg u ... u Hg^(p-1).  One
    generation is extended one order class and prime at a time, each in a
    vectorised pass over all (H, g) pairs in chunks (_index_p_level), and
    repeated joins are dropped by one sort per batch and one dict over the
    whole enumeration (_cyclic_extension).  This finds
    every solvable subgroup: a solvable J > 1 has a normal subgroup H of
    prime index p, and J = H<g> for any g in J \\ H.  So it reaches G
    exactly when G is solvable.  Otherwise the members are found again by
    the generic extension <H, g>, member by member, built coset by coset of
    H, for every g outside H except those that provably regenerate a join
    already taken.

    In a group of prime-power order every extension H -> J is kept as a
    containment edge; these edges chain every pair H < K, since the
    normalizer of H in K is larger than H.  Other orders keep no edges, and
    SubgroupLattice takes their containment from the pair kernel.
    """
    cap = DEFAULT_MAX_SUBGROUPS if max_subgroups is None else int(max_subgroups)
    members, edges = _cyclic_extension(G, cap)
    if members[-1] != (1 << G.order) - 1:  # G is not solvable
        members, edges, found = [1], None, {1}
        for h_bits in members:  # grows while iterated: breadth-first
            for j_bits in _generic_joins(G, h_bits):
                if j_bits not in found:
                    found.add(j_bits)
                    members.append(j_bits)
                    if len(members) > cap:
                        raise _cap_error(cap, members)
    return SubgroupLattice(G, members, edges)


# ---------------------------------------------------------------------------
# Moebius functions of the lattice
# ---------------------------------------------------------------------------

def _mobius_recursion(flat: np.ndarray, degrees: np.ndarray,
                      classes: list[tuple[int, int]]) -> tuple[int, ...]:
    """The defining Moebius recursion, summed one order class at a time.
    flat holds each member's list (its degrees[h] entries: h first, then the
    members between h and the endpoint) member by member.  The endpoint is
    the one member of classes[0] and gets mu = 1; each member h of a later
    class gets minus the sum of mu over its list.  Members of one class are
    incomparable, so a class reads only classes already done, and h's own
    entry adds 0 because its mu is still unset.  The sums run over an
    object array of Python ints, so they stay exact."""
    ends = np.cumsum(degrees)
    starts = ends - degrees
    mu = np.zeros(len(degrees), dtype=object)
    mu[classes[0][0]] = 1
    for a, b in classes[1:]:
        terms = mu[flat[starts[a]:ends[b - 1]]]
        mu[a:b] = -np.add.reduceat(terms, starts[a:b] - starts[a])
    return tuple(mu.tolist())


def mobius_to_top(lat: SubgroupLattice) -> tuple[int, ...]:
    """mu(H, G) for every member H via the defining recursion mu(G,G) = 1,
    mu(H,G) = -sum_{H < K <= G} mu(K,G)."""
    degrees = lat.up_degrees  # builds containment on first use
    return _mobius_recursion(lat._up_flat, degrees, lat._classes[::-1])


def mobius_from_bottom(lat: SubgroupLattice) -> tuple[int, ...]:
    """mu(1, H) for every member H, computed inside the interval [1, H]."""
    degrees = lat.down_degrees  # builds containment on first use
    return _mobius_recursion(lat._down_flat, degrees, lat._classes)


# ---------------------------------------------------------------------------
# Factorization pair counting
# ---------------------------------------------------------------------------

def _pair_tasks(orders: np.ndarray, full_order: int):
    classes: dict[int, np.ndarray] = {}
    for o in np.unique(orders):
        classes[int(o)] = np.nonzero(orders == o)[0]
    values = sorted(classes)
    for ai, da in enumerate(values):
        for db in values[ai:]:
            prod = da * db
            if prod < full_order or prod % full_order:
                continue
            target = prod // full_order
            if math.gcd(da, db) % target:
                continue
            yield classes[da], classes[db], target, da == db


def _popcount_dtype(bits: int) -> np.dtype:
    """Smallest unsigned dtype that holds a popcount of up to `bits` bits."""
    return np.min_scalar_type(bits)


def _pair_hits(words: np.ndarray, A: np.ndarray, B: np.ndarray, target: int):
    """The one pair kernel: yields (s, hit) per row block, where hit[i, j]
    says |A[s+i] ∩ B[j]| == target.  Words lie on the leading axis, so the
    popcount sum adds whole contiguous (rows, |B|) slabs."""
    wa = np.ascontiguousarray(words[A].T)
    wb = np.ascontiguousarray(words[B].T)
    nwords = wa.shape[0]
    acc = _popcount_dtype(64 * nwords)
    step = max(1, _PAIR_CELLS // (nwords * wb.shape[1]))
    for s in range(0, wa.shape[1], step):
        counts = np.bitwise_count(wa[:, s:s + step, None] & wb[:, None, :]).sum(axis=0, dtype=acc)
        yield s, counts == target


def _ordered_pairs(words: np.ndarray, task) -> int:
    """Ordered factorization pairs of one task of _pair_tasks."""
    A, B, target, same = task
    count = sum(int(np.count_nonzero(hit)) for _, hit in _pair_hits(words, A, B, target))
    return count if same else 2 * count


def f2_bruteforce(lat: SubgroupLattice, *, threads: int | None = None) -> int:
    """Number of ordered pairs (H, K) of members with HK = G, decided by the
    exact criterion |H|*|K| == |G|*|H∩K|.  Pairs are grouped by the order
    pair (|H|, |K|) with the necessary condition |H||K| >= |G| applied first.
    """
    run = partial(_ordered_pairs, lat.words)
    tasks = list(_pair_tasks(lat.orders, lat.group.order))
    if threads and threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(run, tasks))
    return sum(map(run, tasks))


def list_factorizations(lat: SubgroupLattice) -> list[tuple[int, int]]:
    """Every ordered factorization pair as (member index, member index),
    sorted; its length equals f2_bruteforce."""
    pairs: list[tuple[int, int]] = []
    for A, B, target, same in _pair_tasks(lat.orders, lat.group.order):
        for s, hit in _pair_hits(lat.words, A, B, target):
            ii, jj = np.nonzero(hit)
            i, j = A[s + ii].tolist(), B[jj].tolist()
            pairs += zip(i, j)
            if not same:
                pairs += zip(j, i)
    pairs.sort()
    return pairs


def f2_of_member(lat: SubgroupLattice, h: int) -> int:
    """Number of ordered pairs (A, B) of members with A, B <= H and AB = H,
    decided inside the lattice (no group reconstruction)."""
    down = lat.down_lists[h]
    run = partial(_ordered_pairs, lat.words[down])
    return sum(map(run, _pair_tasks(lat.orders[down], int(lat.orders[h]))))


def permuting_pairs(lat: SubgroupLattice) -> int:
    """Number of ordered pairs (H, K) with HK = KH, i.e. with the product
    set as large as the join: |H||K| == |<H, K>||H∩K|.  Comparable pairs
    satisfy it with <H, K> and H∩K the two members themselves."""
    m = len(lat)
    bits = lat._bits
    orders = lat.orders.tolist()
    join = lat.join_index
    count = m  # (H, H) always permutes
    for i in range(m):
        bi = bits[i]
        oi = orders[i]
        for j in range(i + 1, m):
            if oi * orders[j] == orders[join(i, j)] * (bi & bits[j]).bit_count():
                count += 2
    return count


def sd(lat: SubgroupLattice) -> Fraction:
    """Subgroup commutativity degree as an exact rational.

    Computed as sum_H F2(H) / |L|^2 and, independently, as the fraction of
    permuting ordered pairs; the two routes must agree exactly.  Lattices
    with more than MAX_SD_PAIRS unordered member pairs are refused.
    """
    m = len(lat)
    pairs = m * (m - 1) // 2
    if pairs > MAX_SD_PAIRS:
        raise ResourceLimitError(
            f"sd over {m} subgroups would compare {pairs} unordered pairs, "
            f"more than the limit {MAX_SD_PAIRS}"
        )
    via_f2 = sum(f2_of_member(lat, h) for h in range(m))
    via_pairs = permuting_pairs(lat)
    if via_f2 != via_pairs:
        raise VerificationError(
            f"sd routes disagree: sum of member F2 = {via_f2}, "
            f"permuting pairs = {via_pairs}"
        )
    return Fraction(via_f2, m * m)


def frattini_index(lat: SubgroupLattice) -> int:
    """Index of the Frattini subgroup: the intersection of all maximal
    members (the full group itself when there are no proper subgroups)."""
    maxima = lat.maximal_indices()
    if not maxima:
        return lat.index_of_full
    bits = lat._bits[maxima[0]]
    for h in maxima[1:]:
        bits &= lat._bits[h]
    return lat.index_of(bits)


# ---------------------------------------------------------------------------
# Identity verification reports
# ---------------------------------------------------------------------------

@dataclass
class InversionReport:
    """Cross-check of brute-force F2 against the Moebius-inversion forms.

    eq1 is sum_H sd(H) |L(H)|^2 mu(H, G) (always computed); for abelian G
    the two specializations are added: eq2_subgroup = sum |L(H)|^2 mu(H,G)
    and eq2_quotient = sum |L(G/H)|^2 mu(1,H).  `checks` holds the verdict
    of each check, in the order eq1, eq2_subgroup, eq2_quotient, hall:
    "pass", "FAIL" or "skipped: <reason>".
    """

    label: str
    order: int
    abelian: bool
    f2: int
    eq1: int
    eq2_subgroup: int | None = None
    eq2_quotient: int | None = None
    quotient_method: str | None = None
    sd_mode: str = "definitional"
    hall_consistent: bool | None = None
    skipped: dict[str, str] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    checks: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def check(self, name: str, ok: bool, mismatch: str) -> None:
        """Record one comparison of the check `name`, which fails as soon
        as one of its comparisons does."""
        if not ok:
            self.mismatches.append(mismatch)
        if self.checks.get(name) != "FAIL":
            self.checks[name] = "pass" if ok else "FAIL"

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "abelian": self.abelian,
            "f2_bruteforce": str(self.f2),
            "eq1": str(self.eq1),
            "eq2_subgroup": None if self.eq2_subgroup is None else str(self.eq2_subgroup),
            "eq2_quotient": None if self.eq2_quotient is None else str(self.eq2_quotient),
            "quotient_method": self.quotient_method,
            "sd_mode": self.sd_mode,
            "hall_consistent": self.hall_consistent,
            "skipped": dict(self.skipped),
            "mismatches": list(self.mismatches),
            "passed": self.passed,
        }


def verify_inversion(G: FiniteGroup, *, lattice: SubgroupLattice | None = None,
                     threads: int | None = None) -> InversionReport:
    """Verify F2 = sum_H sd(H)|L(H)|^2 mu(H,G) on a concrete lattice, and for
    abelian G the specializations sum |L(H)|^2 mu(H,G) and
    sum |L(G/H)|^2 mu(1,H); for a p-group also Hall's formula for mu(1, G),
    and for an abelian p-group for mu(1, H) of every member H.

    The quotient form builds every quotient G/H with mu(1,H) != 0 when the
    lattice has at most QUOTIENT_CAP members; above that, |L(G/H)| is the
    number of members containing H (the correspondence theorem), which is
    cross-checked against the constructed route whenever both run.  sd(H)
    is computed definitionally per member unless G is abelian and the
    lattice is larger than SD_ABELIAN_CAP, in which case sd(H) = 1
    (subgroups of an abelian group commute elementwise).
    """
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    m = len(lat)
    report = InversionReport(label=G.label, order=G.order, abelian=G.is_commutative,
                             f2=f2_bruteforce(lat, threads=threads), eq1=0)
    mu_top = lat.mobius_top
    down = lat.down_lists
    dd = lat.down_degrees.tolist()

    if G.is_commutative:
        report.eq2_subgroup = sum(dd[h] * dd[h] * mu_top[h] for h in range(m) if mu_top[h])
    if G.is_commutative and m > SD_ABELIAN_CAP:
        report.sd_mode = "abelian (sd = 1)"
        report.eq1 = report.eq2_subgroup
    else:
        f2m = [f2_of_member(lat, h) for h in range(m)]
        # sd(H) * |L(H)|^2 == sum of F2 over members of H, exactly
        report.eq1 = sum(
            mu_top[h] * sum(map(f2m.__getitem__, down[h].tolist()))
            for h in range(m) if mu_top[h]
        )
    report.check("eq1", report.eq1 == report.f2, f"eq1 = {report.eq1} != F2 = {report.f2}")

    if G.is_commutative:
        report.check("eq2_subgroup", report.eq2_subgroup == report.f2,
                     f"eq2_subgroup = {report.eq2_subgroup} != F2 = {report.f2}")
        mu_bot = mobius_from_bottom(lat)
        ud = lat.up_degrees.tolist()
        corr = sum(ud[h] * ud[h] * mu_bot[h] for h in range(m) if mu_bot[h])
        if m <= QUOTIENT_CAP:
            report.quotient_method = "constructed"
            total = 0
            for h in range(m):
                if not mu_bot[h]:
                    continue
                # G/1 is G, whose lattice is already here
                qsize = m if h == 0 else len(enumerate_subgroups(quotient(G, lat.subgroups[h])))
                report.check("eq2_quotient", qsize == ud[h],
                             f"|L(G/H)| = {qsize} but {ud[h]} members contain H (member {h})")
                total += qsize * qsize * mu_bot[h]
            report.check("eq2_quotient", total == corr,
                         f"quotient route {total} != correspondence route {corr}")
        else:
            report.quotient_method = "correspondence"
            total = corr
        report.eq2_quotient = total
        report.check("eq2_quotient", total == report.f2,
                     f"eq2_quotient = {total} != F2 = {report.f2}")
    else:
        reason = ("group is not abelian: the lattice forms require sd(H) = 1 "
                  "and quotient duality")
        for key in ("eq2_subgroup", "eq2_quotient"):
            report.skipped[key] = reason
            report.checks[key] = f"skipped: {reason}"

    pk = (1, 0) if G.order == 1 else prime_power(G.order)  # (1, 0): only mu(1, 1) = 1
    if pk is None:
        report.checks["hall"] = "skipped: order is not a prime power"
        return report
    top = verify_hall(G, lattice=lat)
    report.check("hall", top.passed,
                 f"mu(1,G) = {top.mu_lattice} disagrees with Hall's formula {top.mu_hall}")
    if G.is_commutative:
        # every member H is an abelian p-group, so Hall's formula pins
        # mu(1, H): H is elementary iff it lies inside {x : x^p = 1}
        p, n = pk
        log_p = {p ** k: k for k in range(n + 1)}
        roots = _pack(_pth_powers(G, p) == 0).to_bytes(lat._nbytes, "little")
        elementary = ~(lat.words & ~np.frombuffer(roots, dtype=np.uint64)).any(axis=1)
        keys = list(zip(map(log_p.__getitem__, lat.orders.tolist()), elementary.tolist()))
        hall = {(k, e): hall_mobius(k, p, e) for k, e in set(keys)}
        report.hall_consistent = mu_bot == tuple(map(hall.__getitem__, keys))
        report.check("hall", report.hall_consistent,
                     "mu(1,H) disagrees with Hall's formula on some member")
    return report


@dataclass
class HallReport:
    """mu(1, G) from the lattice recursion versus Hall's closed form."""

    label: str
    order: int
    p: int | None
    n: int
    elementary: bool
    mu_lattice: int
    mu_hall: int

    @property
    def passed(self) -> bool:
        return self.mu_lattice == self.mu_hall

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"{self.label}: mu(1,G) = {self.mu_lattice}, Hall = {self.mu_hall} ({state})"


def verify_hall(G: FiniteGroup, *, lattice: SubgroupLattice | None = None) -> HallReport:
    """Compare mu(1, G) from the lattice recursion against Hall's formula.
    Only defined for p-groups (prime-power order)."""
    if G.order == 1:
        p, k = None, 0
    else:
        pk = prime_power(G.order)
        if pk is None:
            raise DomainError(f"order {G.order} is not a prime power")
        p, k = pk
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    mu1G = lat.mobius_top[0]
    elementary, _, _ = is_elementary_abelian(G)
    expected = hall_mobius(k, p, elementary)
    return HallReport(label=G.label, order=G.order, p=p, n=k,
                      elementary=bool(elementary), mu_lattice=mu1G, mu_hall=expected)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def lattice_document(lat: SubgroupLattice) -> dict:
    """Lattice as a JSON-ready document.  Bitsets are hex strings; every
    count that can get big (Moebius values, F2, sd) is a decimal string so
    nothing is ever squeezed through a float."""
    return {
        "label": lat.group.label,
        "order": lat.group.order,
        "size": len(lat),
        "subgroups": [
            {"bits": hex(s.bits), "order": s.order} for s in lat.subgroups
        ],
        "mobius_to_top": [str(v) for v in lat.mobius_top],
        "f2": str(f2_bruteforce(lat)),
        "sd": str(sd(lat)),
    }


def lattice_json(lat: SubgroupLattice) -> str:
    return json.dumps(lattice_document(lat), indent=2)
