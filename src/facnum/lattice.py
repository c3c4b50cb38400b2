"""Subgroup lattices: enumeration, Moebius values, factorization counting.

Subgroups are bitsets over element indices (Python ints), mirrored into
a numpy uint64 word matrix.  |HK| = |H||K| / |H∩K| for any two
subgroups, so HK = G iff |H|*|K| == |G|*|H∩K|.  Pairs are counted by
order class, in one of two ways: a blocked kernel of intersection
popcounts, _pair_counts, which gives every pair's |H∩K| to the
factorization list, sd's permuting pairs and every small task; and,
for a count of a task that spans several of its blocks, when it reads
fewer words, saturating counters over the element incidence of the
second class (_incidence_pairs).  F2 of a member H counts the pairs
below H: every member whose down-list fits one block of _pair_counts
is counted at once, in one flat kernel over all their pairs
(_member_f2s); a larger member goes task by task as G does.

Enumeration is cyclic extension: a member is extended by normal index-p
steps, one order class and prime at a time, which reaches every subgroup
of a solvable group; a group it does not reach is not solvable, and the
generic extension <H, g> enumerates it instead.  Containment comes from
its definition, for every group: H <= K iff every element of H lies in K,
read off one table of the members that contain each element.  Joins
follow from containment.

Aggregate arithmetic (inversion sums) runs on plain Python ints, and the
Moebius sums run in int64 only under a checked bound; the numpy side
otherwise produces bounded popcounts.
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
# unordered member pairs sd may take; permuting_pairs takes 0.15-0.3 us a pair
MAX_SD_PAIRS = 10_000_000
# factorization pairs f2 --list may print
MAX_LIST_PAIRS = 10_000_000
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
# uint64 cells per temporary block of the permuting-pairs and member kernels
_JOIN_CELLS = 1 << 14
# |mu| times list length below which the Moebius sums run in int64
_MU_INT64_BOUND = 1 << 63
# cells per temporary of the containment pass: the bools of a chunk of the
# incidence table, and the incidence words a chunk of one order class gathers
_CONTAIN_CELLS = 1 << 20


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a bitset over element indices (bit 0 = identity)."""

    bits: int
    order: int

    def indices(self) -> list[int]:
        return np.flatnonzero(_unpack(self.bits, self.bits.bit_length())).tolist()


class SubgroupLattice:
    """The complete subgroup lattice of a FiniteGroup.

    Members are sorted canonically by (order, bitset value) ascending, so
    index 0 is the trivial subgroup and the last index is the full group.
    Pairwise intersections of members are members; inclusion is a two-int
    bit test.  The containment lists are built on first use from element
    incidence (_up_lists): the members containing H are those that contain
    every element of H.
    """

    def __init__(self, group: FiniteGroup, found: list[int]):
        """found: the member bitsets, in any order."""
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
        self._member_f2: list[int] | None = None

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

    @property
    def words(self) -> np.ndarray:
        """(members, words) uint64 matrix of the bitsets (little-endian)."""
        return self._words

    # -- containment structure ------------------------------------------------

    def _ensure_containment(self) -> None:
        """Up-lists from element incidence (_up_lists), each a view into one
        flat int64 array; the down-lists are their transpose (_transpose),
        each member first."""
        if self._up is not None:
            return
        up, self._up_degrees = _up_lists(self.words, self.orders, self.group.order, self._classes)
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
    def mobius_top(self) -> tuple[int, ...]:
        """mu(H, G) for every member, computed once per lattice."""
        if self._mobius_top is None:
            self._mobius_top = mobius_to_top(self)
        return self._mobius_top

    @property
    def member_f2(self) -> list[int]:
        """F2 of every member of at most one pair block (_member_f2s), 0 for
        the larger ones, computed once per lattice."""
        if self._member_f2 is None:
            self._member_f2 = _member_f2s(self).tolist()
        return self._member_f2

    def maximal_indices(self) -> list[int]:
        """Members covered only by the full group: every proper member's
        up-list holds itself and the full group, and a maximal one's holds
        nothing else."""
        return np.flatnonzero(self.up_degrees[:-1] == 2).tolist()


def _incidence(words: np.ndarray, n: int) -> np.ndarray:
    """inc[g]: the bitset, over members, of the members that contain element
    g, as an n x ceil(m / 64) uint64 array.  Built from the member words in
    chunks of a multiple of 64 members by unpack, transpose and pack, each
    within _CONTAIN_CELLS bools (a chunk has at least 64 members)."""
    m = len(words)
    inc = np.zeros((n, (m + 63) // 64 * 8), dtype=np.uint8)
    step = max(1, _CONTAIN_CELLS // (64 * n)) * 64
    for s in range(0, m, step):
        bits = np.unpackbits(words[s:s + step].view(np.uint8), axis=1, count=n, bitorder="little")
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        inc[:, s // 8:s // 8 + packed.shape[1]] = packed
    return inc.view(np.uint64)


def _up_lists(words: np.ndarray, orders: np.ndarray, n: int,
              classes: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(flat, degrees): the up-list of every member, member by member in one
    flat int64 array.  H <= K iff every element of H lies in K, so the
    members containing H are the AND of inc[h] over the elements h of H
    (_incidence).  Members of one order are pairwise incomparable, so a
    class ending at lo reads only the words from lo // 64 onward, with the
    bits below lo cleared.  Set bits are read as nonzero words, then their
    nonzero bytes, and each member goes first.  A chunk of a class of order
    q gathers q words above the class per row, within _CONTAIN_CELLS cells
    (a chunk has at least one row)."""
    m = len(words)
    inc = _incidence(words, n)
    degrees = np.empty(m, dtype=np.int64)
    pieces = []
    for a, lo in classes:
        q, first = int(orders[a]), lo // 64  # first: the word that holds lo
        above = inc[:, first:]
        low = ~np.uint64((1 << lo % 64) - 1)  # the bits of the first word from lo on
        rows = max(1, _CONTAIN_CELLS // max(q * above.shape[1], 1))
        for r in range(a, lo, rows):
            end = min(lo, r + rows)
            bits = np.unpackbits(words[r:end].view(np.uint8), axis=1, count=n, bitorder="little")
            elements = np.nonzero(bits)[1].reshape(end - r, q).T
            both = np.bitwise_and.reduce(above[elements], axis=0)
            both[:, :1] &= low
            word = np.flatnonzero(both)
            byte = np.flatnonzero(both.ravel()[word].view(np.uint8))
            byte = word[byte >> 3] * 8 + (byte & 7)  # into the bytes of both
            bit = np.flatnonzero(np.unpackbits(both.view(np.uint8).ravel()[byte], bitorder="little"))
            row, col = np.divmod(byte[bit >> 3] * 8 + (bit & 7), 64 * above.shape[1])
            deg = np.bincount(row, minlength=end - r) + 1
            piece = np.empty(end - r + len(row), dtype=np.int64)
            piece[np.cumsum(deg) - deg] = np.arange(r, end)
            piece[1 + row + np.arange(len(row))] = col + 64 * first
            degrees[r:end] = deg
            pieces.append(piece)
    return np.concatenate(pieces), degrees


def _transpose(up: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(flat, degrees) of the down-lists from the flat up-lists.  One sort of
    the keys sup*m + sub puts the subgroups of each member in an ascending
    run, the member itself last (a member is the largest index among its
    subgroups); moving it to the front of its run gives its down-list.  The
    subs are added whole members at a time, about _CONTAIN_CELLS keys each."""
    m = len(degrees)
    # the sorted runs lie one place right of their place in down, which
    # leaves the first slot of each run free for its member
    down = np.empty(len(up) + 1, dtype=np.int64)
    keys = down[1:]
    np.multiply(up, m, out=keys)
    ends = np.cumsum(degrees)
    cuts = np.unique(np.searchsorted(ends, np.arange(0, len(up), _CONTAIN_CELLS), side="right"))
    for a, b in zip(cuts.tolist(), cuts[1:].tolist() + [m]):
        keys[ends[a] - degrees[a]:ends[b - 1]] += np.repeat(np.arange(a, b), degrees[a:b])
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
    """Member bitsets in discovery order.  Each generation is extended by
    _index_p_level once per order class q and prime p dividing |G|/q, and
    the joins not seen before form the next generation.  Each batch of
    joins is made unique by one sort, and its distinct rows are looked up
    as ints in one dict of the members in discovery order; the new ones go
    in in the order they first occur."""
    n = G.order
    nbytes = (n + 63) // 64 * 8
    row = np.dtype(f"V{nbytes}")
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    powers = {p: _pth_powers(G, p) for p in primes}
    found = {1: None}  # member bitsets, in discovery order
    level = np.zeros((int(n > 1), nbytes), dtype=np.uint8)  # rows of the generation
    level[:, 0] = 1
    # and their composition series: generators, and the prime index of each step
    series = indices = np.zeros((len(level), 0), dtype=np.int64)
    while len(level):
        fresh_rows = []  # the next generation
        orders = np.bitwise_count(level).sum(axis=1)
        for q in np.unique(orders).tolist():
            where = np.flatnonzero(orders == q)
            for p in (p for p in primes if n // q % p == 0):
                for r, g, joins in _index_p_level(G, p, powers[p], level[where],
                                                  series[where], indices[where]):
                    uniq, first = np.unique(joins.view(row).ravel(), return_index=True)
                    keys = list(map(int.from_bytes, uniq.tolist(), repeat("little")))
                    known = np.fromiter(map(found.__contains__, keys), bool, len(keys))
                    fresh = np.flatnonzero(~known)
                    fresh = fresh[np.argsort(first[fresh])]  # first-occurrence order
                    fresh = fresh[:max(1, cap + 1 - len(found))]
                    found.update(dict.fromkeys(map(keys.__getitem__, fresh.tolist())))
                    if len(found) > cap:
                        raise _cap_error(cap, found)
                    take = first[fresh]
                    source = where[r[take]]
                    fresh_rows.append((joins[take], np.column_stack((series[source], g[take])),
                                       np.column_stack((indices[source], np.full(len(take), p)))))
        if not fresh_rows:
            break
        level, series, indices = map(np.concatenate, zip(*fresh_rows))
    return list(found)


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
    already taken.  Containment is left to SubgroupLattice, which builds it
    from the members alone.
    """
    cap = DEFAULT_MAX_SUBGROUPS if max_subgroups is None else int(max_subgroups)
    members = _cyclic_extension(G, cap)
    if members[-1] != (1 << G.order) - 1:  # G is not solvable
        members, found = [1], {1}
        for h_bits in members:  # grows while iterated: breadth-first
            for j_bits in _generic_joins(G, h_bits):
                if j_bits not in found:
                    found.add(j_bits)
                    members.append(j_bits)
                    if len(members) > cap:
                        raise _cap_error(cap, members)
    return SubgroupLattice(G, members)


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
    entry adds 0 because its mu is still unset.  The sums run in int64
    while max |mu| times the class's longest list stays below _MU_INT64_BOUND,
    which bounds every sum; from the first class where it does not, they run
    over an object array of Python ints.  Either way they stay exact."""
    ends = np.cumsum(degrees)
    starts = ends - degrees
    mu = np.zeros(len(degrees), dtype=np.int64)
    mu[classes[0][0]] = 1
    largest = 1  # max |mu| so far, while mu is int64
    for a, b in classes[1:]:
        if mu.dtype != object and largest * int(degrees[a:b].max()) >= _MU_INT64_BOUND:
            mu = mu.astype(object)
        terms = mu[flat[starts[a]:ends[b - 1]]]
        mu[a:b] = -np.add.reduceat(terms, starts[a:b] - starts[a])
        if mu.dtype != object:
            largest = max(largest, int(np.abs(mu[a:b]).max()))
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


def _pair_counts(words: np.ndarray, A: np.ndarray, B: np.ndarray, same: bool,
                 cells: int | None = None, up_width: int = 0):
    """The one pair kernel: yields (s, e, counts) per row block of A, with
    counts[i, j] = |A[s+i] ∩ B[lo+j]| in the least dtype that holds it; lo = s
    when same (B is A), so a block takes its square s..e x s..e, which holds
    both orders of its pairs, and the columns after it.  A block has about
    `cells` (_PAIR_CELLS) cells as wide as the words or the up_width words
    _joins reads from word s // 64 on; words lead, so sums add whole slabs."""
    wa = np.ascontiguousarray(words[A].T)
    wb = wa if same else np.ascontiguousarray(words[B].T)
    acc, cells, s = np.min_scalar_type(64 * len(wa)), cells or _PAIR_CELLS, 0
    while s < len(A):
        lo = s if same else 0
        e = min(len(A), s + max(1, cells // ((len(B) - lo) * max(len(wa), up_width - s // 64))))
        yield s, e, np.bitwise_count(wa[:, s:e, None] & wb[:, None, lo:]).sum(axis=0, dtype=acc)
        s = e


def _popcount_pairs(words: np.ndarray, task) -> int:
    """Ordered factorization pairs of one task of _pair_tasks, by _pair_counts."""
    A, B, target, same = task
    count = 0
    for s, e, counts in _pair_counts(words, A, B, same):
        hit = counts == target
        count += 2 * np.count_nonzero(hit) - (np.count_nonzero(hit[:, :e - s]) if same else 0)
    return int(count)


def _bit_words(lo: int, hi: int, nwords: int) -> np.ndarray:
    """nwords uint64 words with the bits lo..hi-1 set."""
    bits = (1 << hi) - (1 << lo)
    return np.frombuffer(bits.to_bytes(8 * nwords, "little"), dtype=np.uint64)


def _incidence_pairs(words: np.ndarray, task) -> int:
    """Ordered factorization pairs of one task of _pair_tasks, by element
    incidence: a pair is a factorization iff |a ∩ b| = t, i.e. a and b share
    exactly t - 1 non-identity elements.  Row x of inc = _incidence(B) is the
    set of members of B that contain x, so a block of rows a of A walks the
    non-identity elements x of a and keeps t saturating planes over B, c_k
    holding the members that share more than k of them: c_k |= c_(k-1) & inc[x]
    for k from t-1 down to 1, then c_0 |= inc[x].  Plane k is still empty
    before the k-th element, so it is set there, and skipped before.  The
    hits are c_(t-2) & ~c_(t-1), or ~c_0 when t = 1.  A same-class block
    reads the columns from s on and counts its square once, as _pair_counts
    does.  The planes and scratch are t + 2 buffers of _PAIR_CELLS cells in
    all, reused block after block."""
    A, B, target, same = task
    inc = _incidence(words[B], 64 * words.shape[1])
    per = max(_PAIR_CELLS // (target + 2), inc.shape[1])
    buffers = np.empty((target + 2, per), dtype=np.uint64)
    count, s = 0, 0
    while s < len(A):
        lo = s if same else 0
        first = lo // 64
        above = np.ascontiguousarray(inc[:, first:])  # np.take copies a strided source whole
        width = above.shape[1]
        e = min(len(A), s + per // width)
        bits = np.unpackbits(words[A[s:e]].view(np.uint8), axis=1, bitorder="little")
        flat = np.flatnonzero(bits.view(bool)).reshape(e - s, -1)  # each row's elements, ascending
        elements = (flat[:, 1:] - flat[:, :1]).T  # less the row's offset; column 0 is the identity
        *planes, row, both = buffers[:, :(e - s) * width].reshape(target + 2, e - s, width)
        for plane in planes[len(elements):]:  # never set: t = |a| when B = {G}, or a = 1
            plane.fill(0)
        if len(elements):
            np.take(above, elements[0], axis=0, out=planes[0])
        for j, x in enumerate(elements[1:], 1):
            np.take(above, x, axis=0, out=row)
            if j < target:
                np.bitwise_and(planes[j - 1], row, out=planes[j])
            for k in range(min(j, target) - 1, 0, -1):
                np.bitwise_and(planes[k - 1], row, out=both)
                np.bitwise_or(planes[k], both, out=planes[k])
            np.bitwise_or(planes[0], row, out=planes[0])
        if target == 1:
            np.invert(planes[0], out=both)
        else:
            np.bitwise_and(planes[-2], np.invert(planes[-1], out=both), out=both)
        both &= _bit_words(lo - 64 * first, len(B) - 64 * first, width)
        hits = 2 * int(np.bitwise_count(both).sum())
        if same:  # less the square, whose pairs are there in both orders
            hits -= int(np.bitwise_count(both & _bit_words(0, e - 64 * first, width)).sum())
        count += hits
        s = e
    return count


def _ordered_pairs(words: np.ndarray, task) -> int:
    """Ordered factorization pairs of one task of _pair_tasks.  A task that
    spans more than one block of _pair_counts goes by _incidence_pairs when
    that takes fewer word operations: |A| ((|a| - 1) 2t ceil(|B| / 64) + 2n),
    2t per element of a and the unpacking of a's n bits, against
    |A| |B| (2 ceil(n / 64) + 1) for the AND and popcount of each pair of
    words and the pass over the counts."""
    A, B, target, _ = task
    if len(A) * len(B) > _PAIR_CELLS:
        nwords = words.shape[1]
        order = int(np.bitwise_count(words[A[0]]).sum())
        incidence = (order - 1) * 2 * target * ((len(B) + 63) // 64) + 2 * 64 * nwords
        if incidence < len(B) * (2 * nwords + 1):
            return _incidence_pairs(words, task)
    return _popcount_pairs(words, task)


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
        for s, e, counts in _pair_counts(lat.words, A, B, same):
            ii, jj = np.nonzero(counts == target)
            i, j = A[s + ii].tolist(), B[jj + (s if same else 0)].tolist()
            pairs += zip(i, j)
            if same:  # mirror only right of the square, column by column to stay sorted
                jj, ii = np.nonzero(counts[:, e - s:].T == target)
                j, i = B[e + jj].tolist(), A[s + ii].tolist()
            pairs += zip(j, i)
    pairs.sort()
    return pairs


def _member_f2s(lat: SubgroupLattice) -> np.ndarray:
    """F2 of every member H whose down-list fits one block of _pair_counts,
    len(down(H))^2 <= _PAIR_CELLS, as int64 counts (0 for the others), all
    in one blocked kernel.  Each down-list holds H first and its subgroups
    ascending, so H moved to its end sorts it by order.  Position i of H's
    sorted list (member A) pairs with the positions j >= i whose order
    reaches ceil(|H| / |A|), found by one searchsorted on (list, order)
    keys; the cells (H, i, j) run in blocks of about _JOIN_CELLS gathered
    words, and a cell is a hit iff |A||B| = |H||A ∩ B|.  The hits count per
    member once, and once more where j != i, so the ordered pairs off the
    diagonal count in both orders."""
    m, words, orders = len(lat), lat.words, lat.orders
    down = lat.down_lists
    degrees = np.fromiter(map(len, down), dtype=np.int64, count=m)
    small = np.flatnonzero(degrees * degrees <= _PAIR_CELLS)
    sizes = degrees[small]
    ends = np.cumsum(sizes)
    take = np.arange(1, ends[-1] + 1)
    take[ends - 1] = ends - sizes
    members = np.concatenate([down[h] for h in small.tolist()])[take]
    owner = np.repeat(small, sizes)
    a, full = orders[members], orders[owner]
    keys = np.repeat(np.arange(len(small)) * (lat.group.order + 1), sizes)
    first = np.searchsorted(keys + a, keys - (-full // a))  # keys + ceil(|H| / |A|)
    first = np.maximum(first, np.arange(len(members)))
    offsets = np.concatenate(([0], np.cumsum(np.repeat(ends, sizes) - first)))
    total, step = int(offsets[-1]), max(1, _JOIN_CELLS // words.shape[1])
    counts = np.zeros(m, dtype=np.int64)
    for c0 in range(0, total, step):
        c1 = min(c0 + step, total)
        lo, hi = np.searchsorted(offsets, [c0, c1 - 1], side="right").tolist()
        rows = np.arange(lo - 1, hi)  # the positions whose cells meet c0..c1
        i = np.repeat(rows, np.minimum(offsets[rows + 1], c1) - np.maximum(offsets[rows], c0))
        j = first[i] + np.arange(c0, c1) - offsets[i]
        both = np.bitwise_count(words[members[i]] & words[members[j]]).sum(axis=1, dtype=np.int64)
        hit = a[i] * a[j] == full[i] * both
        counts += np.bincount(owner[i[hit]], minlength=m)
        counts += np.bincount(owner[i[hit & (i != j)]], minlength=m)
    return counts


def f2_of_member(lat: SubgroupLattice, h: int) -> int:
    """Number of ordered pairs (A, B) of members with A, B <= H and AB = H,
    decided inside the lattice (no group reconstruction).  A member whose
    down-list fits one block of _pair_counts reads lat.member_f2, which
    _member_f2s fills for every such member at once; a larger one counts
    the order-class tasks of its down-list, as f2_bruteforce does for G."""
    down = lat.down_lists[h]
    if len(down) ** 2 <= _PAIR_CELLS:
        return lat.member_f2[h]
    run = partial(_ordered_pairs, lat.words[down])
    return sum(map(run, _pair_tasks(lat.orders[down], int(lat.orders[h]))))


def _up_words(up_lists: list[np.ndarray]) -> np.ndarray:
    """(m, ceil(m / 64)) uint64: bit k of row h is set iff member k contains h."""
    m, cols = len(up_lists), np.concatenate(up_lists)
    rows = np.repeat(np.arange(m), list(map(len, up_lists)))
    out = np.zeros((m, (m + 63) // 64 * 8), dtype=np.uint8)
    np.bitwise_or.at(out, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))
    return out.view(np.uint64)


def _joins(up: np.ndarray, s: int, e: int) -> np.ndarray:
    """Joins of the members s..e with s..m (up: _up_words).  Members are sorted
    by order, so a join is the lowest member in both up-sets, at index s or
    above: the lowest bit of the first nonzero word of the AND from s // 64."""
    first = s // 64
    both = up[s:e, None, first:] & up[None, s:, first:]
    k = (both != 0).argmax(axis=2)
    word = np.take_along_axis(both, k[..., None], axis=2)[..., 0]
    if not word.all():
        i, j = np.argwhere(word == 0)[0].tolist()
        raise VerificationError(f"members {s + i} and {s + j} have no common upper member: "
                                "an up-list lost the full group")
    return (first + k) * 64 + np.bitwise_count((word - np.uint64(1)) & ~word)


def permuting_pairs(lat: SubgroupLattice) -> int:
    """Number of ordered pairs (H, K) with HK = KH, i.e. with the product
    set as large as the join: |H||K| == |<H, K>||H∩K|, as a comparable pair
    is.  The members are one same-class task of _pair_counts, in blocks of
    about _JOIN_CELLS cells as wide as the up-words that _joins reads."""
    up, orders, members = _up_words(lat.up_lists), lat.orders, np.arange(len(lat))
    count = 0
    for s, e, both in _pair_counts(lat.words, members, members, True, _JOIN_CELLS, up.shape[1]):
        hit = orders[s:e, None] * orders[None, s:] == orders[_joins(up, s, e)] * both
        count += 2 * np.count_nonzero(hit) - np.count_nonzero(hit[:, :e - s])
    return int(count)


def sd(lat: SubgroupLattice) -> Fraction:
    """Subgroup commutativity degree as an exact rational.

    Computed as sum_H F2(H) / |L|^2 and, independently, as the fraction of
    permuting ordered pairs; the two routes must agree exactly.  The first
    takes F2(H) from f2_of_member (the down-lists and the order criterion),
    the second from the joins of permuting_pairs (the up-lists); they share
    only the intersection popcount.  Lattices with more than MAX_SD_PAIRS
    unordered member pairs are refused.
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
    of each check, in the order eq1, eq2_subgroup, eq2_quotient, hall, then
    closed_form where `f2 --verify` adds it for a spec whose family has one:
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
    mismatches: list[str] = field(default_factory=list)
    checks: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def skipped(self) -> dict[str, str]:
        """The reason for each skipped check, read from checks."""
        return {name: state.removeprefix("skipped: ") for name, state in self.checks.items()
                if state.startswith("skipped: ")}

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
            "skipped": self.skipped,
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
