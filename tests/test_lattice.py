import hashlib
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from facnum import lattice
from facnum.errors import DomainError, ResourceLimitError
from facnum.formulas import (
    PartitionType,
    f2_elementary,
    hall_mobius,
    lattice_size_heisenberg_p3,
    subgroup_count_rank2,
    total_subgroups_elementary,
)
from facnum.groups import (
    _pack,
    _right_cosets,
    build_abelian,
    cyclic_group,
    dihedral8,
    elementary_abelian_group,
    heisenberg_p3,
    modular_p3,
    parse_cayley_table,
    permute_elements,
    prime_power,
    quaternion8,
)
from facnum.lattice import (
    Subgroup,
    SubgroupLattice,
    _pair_hits,
    _popcount_dtype,
    enumerate_subgroups,
    f2_bruteforce,
    f2_of_member,
    frattini_index,
    lattice_document,
    lattice_json,
    list_factorizations,
    mobius_from_bottom,
    mobius_to_top,
    permuting_pairs,
    sd,
    verify_hall,
    verify_inversion,
)

from helpers import (
    SUBSET_ORACLE_MAX_ORDER,
    check_recursion,
    cyclic_group_of_order,
    dihedral_group,
    direct_product,
    discovery_per_member,
    f2_by_product_sets,
    intersection_closed,
    meet_index,
    mobius_bottom_oracle,
    mobius_oracle,
    permutation_group,
    permuting_pairs_by_product_sets,
    subgroups_by_subsets,
    zeta_inverse,
)


def bits_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def closure(G, seed, base=Subgroup(1, 1)) -> Subgroup:
    """<base, seed> through _right_cosets, the one closure routine, called as
    enumeration extends a member: a non-normal base's generators go along."""
    h_idx = base.indices()
    gens = list(seed) if G.is_commutative else h_idx[1:] + list(seed)
    bits = _pack(_right_cosets(G, np.array(h_idx), gens) >= 0)
    return Subgroup(bits, bits.bit_count())


class TestClosure:
    def test_empty_seed_is_trivial(self):
        sub = closure(dihedral8(), [])
        assert sub.bits == 1 and sub.order == 1

    def test_generator_of_cyclic(self):
        sub = closure(cyclic_group(2, 2), [1])
        assert sub.order == 4

    def test_two_reflections_generate_d8(self):
        G = dihedral8()
        # s (index 4) and rs (index 5) lie in different Klein subgroups
        sub = closure(G, [4, 5])
        assert sub.order == 8

    def test_extends_a_base_subgroup(self):
        G = dihedral8()
        rotations = closure(G, [1])
        assert rotations.order == 4
        assert closure(G, [4], base=rotations) == closure(G, [1, 4])
        assert closure(G, [], base=rotations) == rotations

    def test_non_normal_base_matches_closure_of_generators(self):
        G = permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])  # S4
        for a in range(1, G.order):
            base = closure(G, [a])
            for g in range(G.order):
                assert closure(G, [g], base=base) == closure(G, [a, g])


SMALL_GROUPS = [
    ("Z2xZ4", lambda: build_abelian(PartitionType(2, (1, 2)))),
    ("Z2^3", lambda: elementary_abelian_group(2, 3)),
    ("Z2^4", lambda: elementary_abelian_group(2, 4)),
    ("Z3^2", lambda: elementary_abelian_group(3, 2)),
    ("Z4xZ4", lambda: build_abelian(PartitionType(2, (2, 2)))),
    ("Z2^2xZ4", lambda: build_abelian(PartitionType(2, (1, 1, 2)))),
    ("D8", dihedral8),
    ("Q8", quaternion8),
    ("Z9", lambda: cyclic_group(3, 2)),
]


def relabeled(builder, seed):
    def build():
        G = builder()
        rng = random.Random(seed)
        return permute_elements(G, [0] + rng.sample(range(1, G.order), G.order - 1))
    return build


def z8_semidirect(multiplier: int):
    """Z8 x| Z2 with the involution acting as i -> multiplier * i: D16 (7),
    the semidihedral group (3) and the modular group M16 (5)."""
    return lambda: permutation_group(
        [tuple((i + 1) % 8 for i in range(8)), tuple(multiplier * i % 8 for i in range(8))])


# Orders that are not prime powers: the cyclic extension runs per order class
# and prime, and containment comes from the pair kernel.
NON_PRIME_POWER = [
    ("S3", lambda: permutation_group([(1, 0, 2), (1, 2, 0)], "S3")),
    ("Z6", lambda: permutation_group([(1, 2, 3, 4, 5, 0)], "Z6")),
    ("A4", lambda: permutation_group([(1, 2, 0, 3), (1, 0, 3, 2)], "A4")),
    ("D12", lambda: permutation_group([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)], "D12")),
]

# Groups of order <= 16, within reach of the subset oracle; the non-abelian
# p-groups exercise the normalizer test.
ORACLE_GROUPS = SMALL_GROUPS + NON_PRIME_POWER + [
    ("Z1", lambda: cyclic_group(2, 0)),
    ("Z2", lambda: cyclic_group(2, 1)),
    ("Z4", lambda: cyclic_group(2, 2)),
    ("Z16", lambda: cyclic_group(2, 4)),
    ("Z7", lambda: cyclic_group(7, 1)),
    ("Z13", lambda: cyclic_group(13, 1)),
    ("Z2xZ8", lambda: build_abelian(PartitionType(2, (1, 3)))),
    ("D16", z8_semidirect(7)),
    ("SD16", z8_semidirect(3)),
    ("M16", z8_semidirect(5)),
    ("Z2xD8", lambda: direct_product(cyclic_group(2, 1), dihedral8())),
    ("Z2xQ8", lambda: direct_product(cyclic_group(2, 1), quaternion8())),
] + [
    (f"{label}~{seed}", relabeled(builder, seed))
    for label, builder in [("D8", dihedral8), ("Q8", quaternion8),
                           ("Z4xZ4", SMALL_GROUPS[4][1]), ("A4", NON_PRIME_POWER[2][1]),
                           ("D12", NON_PRIME_POWER[3][1]), ("M16", z8_semidirect(5))]
    for seed in (1, 2)
]


class TestEnumeration:
    def test_cyclic_chain(self):
        for p, n in [(2, 3), (3, 2), (5, 1), (2, 0)]:
            lat = enumerate_subgroups(cyclic_group(p, n))
            assert len(lat) == n + 1

    def test_d8_census(self):
        lat = enumerate_subgroups(dihedral8())
        assert len(lat) == 10
        by_order = {}
        for s in lat.subgroups:
            by_order[s.order] = by_order.get(s.order, 0) + 1
        assert by_order == {1: 1, 2: 5, 4: 3, 8: 1}

    def test_heisenberg_27(self):
        lat = enumerate_subgroups(heisenberg_p3(3))
        assert len(lat) == 19  # p^2 + 2p + 4

    @pytest.mark.parametrize("label,builder", ORACLE_GROUPS)
    def test_exact_subgroup_sets_against_subset_oracle(self, label, builder):
        G = builder()
        lat = enumerate_subgroups(G)
        expected = {bits_of(s) for s in subgroups_by_subsets(G)}
        assert {s.bits for s in lat.subgroups} == expected

    def test_canonical_sort_and_endpoints(self):
        lat = enumerate_subgroups(dihedral8())
        orders = [s.order for s in lat.subgroups]
        assert orders == sorted(orders)
        assert lat.index_of_trivial == 0 and lat.subgroups[0].bits == 1
        assert lat.index_of_full == len(lat) - 1
        for a, b in zip(lat.subgroups, lat.subgroups[1:]):
            assert (a.order, a.bits) < (b.order, b.bits)

    def test_lagrange_and_intersection_closed(self):
        for label, builder in SMALL_GROUPS:
            G = builder()
            lat = enumerate_subgroups(G)
            assert all(G.order % s.order == 0 for s in lat.subgroups)
            assert intersection_closed(lat)

    def test_subgroup_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_subgroups(elementary_abelian_group(2, 3), max_subgroups=5)

    def test_cap_reports_progress_in_bounded_time(self):
        G = elementary_abelian_group(2, 8)  # 417 199 subgroups
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=r"after 1001 subgroups, the largest of order 4"):
            enumerate_subgroups(G, max_subgroups=1000)
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("label,builder,size", [
        ("E(125)", lambda: heisenberg_p3(5), lattice_size_heisenberg_p3(5)),
        # M(p^3) is modular with the lattice of Z_p x Z_p^2: 2p + 4 members
        ("M(125)", lambda: modular_p3(5), subgroup_count_rank2(5, 1, 2)),
        ("Z27xZ27", lambda: build_abelian(PartitionType(3, (3, 3))),
         subgroup_count_rank2(3, 3, 3)),
        ("Z2^6", lambda: elementary_abelian_group(2, 6), total_subgroups_elementary(6, 2)),
    ])
    def test_sizes_against_closed_forms(self, label, builder, size):
        assert len(enumerate_subgroups(builder())) == size

    @pytest.mark.parametrize("label,builder,size", [
        # D_2m has tau(m) + sigma(m) subgroups, Z_n has tau(n)
        ("D60", lambda: dihedral_group(30), 8 + 72),
        ("D200", lambda: dihedral_group(100), 9 + 217),
        ("Z360", lambda: cyclic_group_of_order(360), 24),
        ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)]), 30),
        ("A5", lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]), 59),
        # not solvable: the cyclic pass stops at 154 and 488 members
        ("S5", lambda: permutation_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]), 156),
        ("A6", lambda: permutation_group([(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]), 501),
    ])
    def test_composite_orders_in_bounded_time(self, label, builder, size):
        G = builder()
        t0 = time.perf_counter()
        assert len(enumerate_subgroups(G)) == size
        assert time.perf_counter() - t0 < 20

    def test_inclusion_queries(self):
        lat = enumerate_subgroups(dihedral8())
        full = lat.index_of_full
        assert all(lat.leq(h, full) for h in range(len(lat)))
        assert all(lat.leq(0, h) for h in range(len(lat)))
        assert meet_index(lat, full, 3) == 3
        assert lat.join_index(0, 3) == 3


def discovery(G, **kwargs):
    """Members in discovery order and the edge arrays, as enumerate_subgroups
    hands them to SubgroupLattice."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "SubgroupLattice",
                   lambda group, found, edges: (found, edges[0].tolist(), edges[1].tolist()))
        return enumerate_subgroups(G, **kwargs)


def prime_of(G) -> int:
    return prime_power(G.order)[0] if G.order > 1 else 2


COMPOSITE = {label for label, _ in NON_PRIME_POWER}
P_GROUPS = [(label, builder) for label, builder in ORACLE_GROUPS
            if label.split("~")[0] not in COMPOSITE] + [
    ("E27", lambda: heisenberg_p3(3)),
    ("M27", lambda: modular_p3(3)),
    ("Z2^5", lambda: elementary_abelian_group(2, 5)),
    ("E125", lambda: heisenberg_p3(5)),
    ("M125", lambda: modular_p3(5)),
    ("Z27xZ27", lambda: build_abelian(PartitionType(3, (3, 3)))),
    ("Z2^6", lambda: elementary_abelian_group(2, 6)),
]


class TestLevelPass:
    """The index-p level pass against the per-member pass it replaced:
    the same members in the same discovery order, the same edges."""

    @pytest.mark.parametrize("label,builder", P_GROUPS + [
        ("E2197", lambda: heisenberg_p3(13)),
        ("M2197", lambda: modular_p3(13)),
        ("Z2^7~5", relabeled(lambda: elementary_abelian_group(2, 7), 5)),
    ])
    def test_against_per_member_pass(self, label, builder):
        G = builder()
        assert discovery(G) == discovery_per_member(G, prime_of(G))

    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("label,builder", [
        group for group in P_GROUPS
        if group[0] in {"D8~1", "Q8~2", "M16", "Z2xD8", "E27", "M27", "Z2^5", "E125"}])
    def test_every_chunk_boundary(self, label, builder, cells, monkeypatch):
        monkeypatch.setattr(lattice, "_LEVEL_CELLS", cells)
        G = builder()
        assert discovery(G) == discovery_per_member(G, prime_of(G))

    @pytest.mark.parametrize("n,cap", [(8, 1000), (8, 100_000), (12, None)])
    def test_cap_message_matches_per_member_pass(self, n, cap):
        G = elementary_abelian_group(2, n)
        with pytest.raises(ResourceLimitError) as expected:
            discovery_per_member(G, 2, cap or lattice.DEFAULT_MAX_SUBGROUPS)
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as raised:
            enumerate_subgroups(G, max_subgroups=cap)
        assert time.perf_counter() - t0 < 5
        assert str(raised.value) == str(expected.value)


def generic_members(G) -> set[int]:
    """Member bitsets from the generic extension alone: a cyclic pass that
    never leaves the trivial group sends enumerate_subgroups to it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_cyclic_extension", lambda G, cap: ([1], None))
        return {s.bits for s in enumerate_subgroups(G).subgroups}


SOLVABLE_COMPOSITE = [
    ("D60", lambda: dihedral_group(30)),
    ("D120", lambda: dihedral_group(60)),
    ("Z360", lambda: cyclic_group_of_order(360)),
    ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])),
    ("D60xZ3", lambda: direct_product(dihedral_group(30), cyclic_group_of_order(3))),
]
A5 = ("A5", lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]))


class TestCyclicExtension:
    """The index-p pass per order class and prime on orders that are not
    prime powers, and the generic fallback when it does not reach G."""

    @pytest.mark.parametrize("label,builder", SOLVABLE_COMPOSITE + [A5])
    def test_members_and_lists_against_generic_path_and_leq(self, label, builder):
        G = builder()
        lat = enumerate_subgroups(G)
        assert {s.bits for s in lat.subgroups} == generic_members(G)
        assert_lists_match_leq(lat)

    def test_reaches_g_exactly_when_solvable(self):
        for label, builder in SOLVABLE_COMPOSITE + [A5]:
            G = builder()
            members, edges = lattice._cyclic_extension(G, lattice.DEFAULT_MAX_SUBGROUPS)
            assert (members[-1] == (1 << G.order) - 1) == (label != "A5")
            assert edges is None  # two primes or more: no edges kept
            if label == "A5":
                assert len(members) == 58  # every subgroup but A5 itself

    @pytest.mark.parametrize("label,builder", SOLVABLE_COMPOSITE[:2] + SOLVABLE_COMPOSITE[3:4])
    def test_every_chunk_boundary(self, label, builder, monkeypatch):
        """One join per batch against the default batches: the same members,
        and at small caps, which cut a default batch, the same cap message."""
        def cap_messages():
            messages = []
            for cap in (7, 20):
                with pytest.raises(ResourceLimitError) as raised:
                    lattice._cyclic_extension(G, cap)
                messages.append(str(raised.value))
            return messages

        G = builder()
        members, _ = lattice._cyclic_extension(G, lattice.DEFAULT_MAX_SUBGROUPS)
        messages = cap_messages()
        monkeypatch.setattr(lattice, "_LEVEL_CELLS", 1)
        assert lattice._cyclic_extension(G, lattice.DEFAULT_MAX_SUBGROUPS)[0] == members
        assert cap_messages() == messages

    def test_d2520_in_bounded_time(self):
        G = dihedral_group(1260)
        t0 = time.perf_counter()
        lat = enumerate_subgroups(G)
        assert time.perf_counter() - t0 < 10
        assert len(lat) == 36 + 4368  # tau(1260) + sigma(1260)

    def test_d2520_cap_in_bounded_time(self):
        G = dihedral_group(1260)
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"after 1001 subgroups"):
            enumerate_subgroups(G, max_subgroups=1000)
        assert time.perf_counter() - t0 < 5


class TestContainment:
    @pytest.mark.parametrize("label,builder", ORACLE_GROUPS + [
        ("E27", lambda: heisenberg_p3(3)),
        ("M27", lambda: modular_p3(3)),
        ("Z2^5", lambda: elementary_abelian_group(2, 5)),
        ("D60", lambda: dihedral_group(30)),
        ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])),
        ("Z60", lambda: cyclic_group_of_order(60)),
    ])
    def test_lists_against_leq_oracle(self, label, builder):
        lat = enumerate_subgroups(builder())
        m = len(lat)
        for h in range(m):
            above = [k for k in range(m) if lat.leq(h, k)]
            below = [h] + [k for k in range(m) if k != h and lat.leq(k, h)]
            assert lat.up_lists[h].tolist() == above
            assert lat.down_lists[h].tolist() == below
            assert lat.up_degrees[h] == len(above)
            assert lat.down_degrees[h] == len(below)


# Lattices the containment tests cut into small chunks.  D60, S4 and A5
# have orders that are not prime powers: their edges are every pair H < K.
CHUNKED_GROUPS = [
    ("Z2^5", lambda: elementary_abelian_group(2, 5)),
    ("Z2^6", lambda: elementary_abelian_group(2, 6)),
    ("Z3^3", lambda: elementary_abelian_group(3, 3)),
    ("E125", lambda: heisenberg_p3(5)),
    ("D60", lambda: dihedral_group(30)),
    ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])),
    ("A5", lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])),
]


def assert_lists_match_leq(lat):
    """Up- and down-lists against the bit test of leq, run over the word
    matrix: contents, ascending order with each member first, int64 dtype,
    and the degrees."""
    w = lat.words
    for h in range(len(lat)):
        above = np.flatnonzero(~(w[h] & ~w).any(axis=1)).tolist()
        below = np.flatnonzero(~(w & ~w[h]).any(axis=1)).tolist()
        up, down = lat.up_lists[h], lat.down_lists[h]
        assert up.dtype == np.int64 and down.dtype == np.int64
        assert up.tolist() == above  # h is the least member above h
        assert down.tolist() == [h] + below[:-1]  # and the greatest below it
        assert below[-1] == h
        assert lat.up_degrees[h] == len(above)
        assert lat.down_degrees[h] == len(below)


def costliest_row(lat) -> int:
    """Cells of the costliest member in the containment pass: its mark row,
    at most the member count rounded up to whole words, or the up-list
    entries its edge targets gather."""
    src, dst = lat._edges or lattice._inclusions(lat.words, lat.orders, lat._classes)
    gathered = np.zeros(len(lat), dtype=np.int64)
    np.add.at(gathered, src, lat.up_degrees[dst])
    return max(len(lat) + 7, int(gathered.max()))


def lists_digest(lat) -> str:
    h = hashlib.sha256()
    for lists in (lat.up_lists, lat.down_lists):
        for u in lists:
            h.update(len(u).to_bytes(4, "little"))
            h.update(u.astype("<i8").tobytes())
    return h.hexdigest()


class TestChunkedContainment:
    """The class-by-class containment pass under small cell budgets: one row
    per chunk, and at least three (exactly three in the class of the
    costliest row), so every class of more than three members is cut into
    several chunks that must be put back in order."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("label,builder", CHUNKED_GROUPS)
    def test_every_chunk_boundary(self, label, builder, rows, monkeypatch):
        G = builder()
        cells = 1 if rows == 1 else rows * costliest_row(enumerate_subgroups(G))
        monkeypatch.setattr(lattice, "_CONTAIN_CELLS", cells)
        assert_lists_match_leq(enumerate_subgroups(G))

    def test_relabeled_z2_7_against_recorded_digests(self):
        # digests of the lists and Moebius tuples that the member-by-member
        # containment loop and Moebius sums built before the class passes
        lat = enumerate_subgroups(relabeled(lambda: elementary_abelian_group(2, 7), 5)())
        assert all(u.dtype == np.int64 for u in lat.up_lists + lat.down_lists)
        assert lists_digest(lat) == (
            "dce4d97f0fa10f20ca1881a57ed744a2c61c946080b554d02ae596461c132246")
        mu = repr((mobius_to_top(lat), mobius_from_bottom(lat))).encode()
        assert hashlib.sha256(mu).hexdigest() == (
            "68a1c237c92029ba80f2eba1c9fe7034b3aa294ec1bc6eba2f180295a9d00b85")


class TestJoins:
    @pytest.mark.parametrize("label,builder", ORACLE_GROUPS + [
        ("E27", lambda: heisenberg_p3(3)),
        ("M27", lambda: modular_p3(3)),
        ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])),
        ("D60", lambda: dihedral_group(30)),
        ("Z60", lambda: cyclic_group_of_order(60)),
    ])
    def test_join_index_against_oracle(self, label, builder):
        # the join is the smallest-order member containing both
        lat = enumerate_subgroups(builder())
        bits = [s.bits for s in lat.subgroups]
        for i in range(len(lat)):
            for j in range(len(lat)):
                union = bits[i] | bits[j]
                above = [k for k, b in enumerate(bits) if b & union == union]
                assert lat.join_index(i, j) == min(above, key=lambda k: lat.subgroups[k].order)

    def test_up_sets_built_on_first_join_only(self):
        # m^2 bits: containment and pair counting must not pay for them
        lat = enumerate_subgroups(dihedral8())
        f2_bruteforce(lat)
        mobius_to_top(lat)
        assert lat._up_sets is None
        lat.join_index(1, 2)
        assert len(lat._up_sets) == len(lat)


class TestMobius:
    def test_chain_mu_is_zero(self):
        lat = enumerate_subgroups(cyclic_group(2, 2))
        assert mobius_to_top(lat)[0] == 0

    def test_elementary_rank2(self):
        for p in (2, 3, 5):
            lat = enumerate_subgroups(elementary_abelian_group(p, 2))
            assert mobius_to_top(lat)[0] == p

    def test_elementary_rank3(self):
        lat = enumerate_subgroups(elementary_abelian_group(2, 3))
        assert mobius_to_top(lat)[0] == -8

    @pytest.mark.parametrize("label,builder", SMALL_GROUPS[:8] + [
        group for group in CHUNKED_GROUPS if group[0] != "Z2^6"])
    def test_against_zeta_inverse_oracle(self, label, builder):
        lat = enumerate_subgroups(builder())
        inverse = zeta_inverse(lat)
        top, bottom = mobius_to_top(lat), mobius_from_bottom(lat)
        assert list(top) == mobius_oracle(lat, inverse)
        assert list(bottom) == mobius_bottom_oracle(lat, inverse)
        assert all(type(v) is int for v in top + bottom)
        assert check_recursion(lat, top)

    def test_both_recursions_against_hall_on_z2_6(self):
        # sympy inverts the 2 825-member zeta matrix in about a minute;
        # every member is elementary abelian, and so is every G/H, so
        # Hall's formula gives mu(1, H) and mu(H, G) = mu(1, G/H)
        lat = enumerate_subgroups(elementary_abelian_group(2, 6))
        top, bottom = mobius_to_top(lat), mobius_from_bottom(lat)
        ranks = [s.order.bit_length() - 1 for s in lat.subgroups]
        assert list(top) == [hall_mobius(6 - k, 2, True) for k in ranks]
        assert list(bottom) == [hall_mobius(k, 2, True) for k in ranks]
        assert all(type(v) is int for v in top + bottom)
        assert check_recursion(lat, top)

    def test_names_the_tracer_rebinds(self):
        # perfbench/tracer.py rebinds these by name: it wraps the four
        # properties' getters and the two functions
        for attr in ("up_lists", "down_lists", "up_degrees", "down_degrees"):
            assert isinstance(vars(SubgroupLattice)[attr], property)
        assert callable(lattice.mobius_to_top) and callable(lattice.mobius_from_bottom)

    @pytest.mark.parametrize("fn", [mobius_to_top, mobius_from_bottom])
    def test_builds_containment_through_a_property(self, fn, monkeypatch):
        # the tracer times containment as the first property access on a
        # lattice, so the recursions must not build it behind the properties
        builds = []
        for attr in ("up_lists", "down_lists", "up_degrees", "down_degrees"):
            def getter(lat, fget=vars(SubgroupLattice)[attr].fget):
                builds.append(lat._up is None)
                return fget(lat)
            monkeypatch.setattr(SubgroupLattice, attr, property(getter))
        fn(enumerate_subgroups(dihedral8()))
        assert builds and builds[0]

    def test_from_bottom_matches_hall_on_elementary(self):
        lat = enumerate_subgroups(elementary_abelian_group(2, 3))
        mu = mobius_from_bottom(lat)
        # mu(1, H) for H of order 2^k elementary abelian is (-1)^k 2^C(k,2)
        for h, s in enumerate(lat.subgroups):
            k = s.order.bit_length() - 1
            assert mu[h] == hall_mobius(k, 2, True)


class TestF2Bruteforce:
    def test_order_two(self):
        lat = enumerate_subgroups(cyclic_group(2, 1))
        assert f2_bruteforce(lat) == 3

    def test_trivial_group(self):
        lat = enumerate_subgroups(cyclic_group(2, 0))
        assert f2_bruteforce(lat) == 1
        assert list_factorizations(lat) == [(0, 0)]

    def test_paper_anchors(self):
        assert f2_bruteforce(enumerate_subgroups(quaternion8())) == 17
        assert f2_bruteforce(enumerate_subgroups(build_abelian(PartitionType(2, (1, 2))))) == 29

    @pytest.mark.parametrize("label,builder", SMALL_GROUPS)
    def test_against_product_set_oracle(self, label, builder):
        G = builder()
        lat = enumerate_subgroups(G)
        assert f2_bruteforce(lat) == f2_by_product_sets(G)

    def test_threads_match_serial(self):
        lat = enumerate_subgroups(elementary_abelian_group(3, 3))
        assert f2_bruteforce(lat) == f2_bruteforce(lat, threads=4)

    def test_relabeling_invariance_quick(self):
        rng = random.Random(7)
        for label, builder in [("Z2xZ4", SMALL_GROUPS[0][1]), ("D8", dihedral8)]:
            G = builder()
            base = f2_bruteforce(enumerate_subgroups(G))
            for _ in range(5):
                perm = [0] + rng.sample(range(1, G.order), G.order - 1)
                H = permute_elements(G, perm)
                assert f2_bruteforce(enumerate_subgroups(H)) == base


class TestListFactorizations:
    def test_lengths_match_counts(self):
        for label, builder in SMALL_GROUPS:
            lat = enumerate_subgroups(builder())
            pairs = list_factorizations(lat)
            assert len(pairs) == f2_bruteforce(lat)
            assert pairs == sorted(pairs)

    def test_d8_has_41(self):
        lat = enumerate_subgroups(dihedral8())
        assert len(list_factorizations(lat)) == 41

    def test_heisenberg_has_121(self):
        lat = enumerate_subgroups(heisenberg_p3(3))
        assert len(list_factorizations(lat)) == 121


class TestF2OfMember:
    def test_trivial_member(self):
        lat = enumerate_subgroups(dihedral8())
        assert f2_of_member(lat, 0) == 1

    def test_full_member_matches_f2(self):
        for label, builder in SMALL_GROUPS[:6]:
            lat = enumerate_subgroups(builder())
            assert f2_of_member(lat, lat.index_of_full) == f2_bruteforce(lat)

    def test_klein_inside_d8(self):
        lat = enumerate_subgroups(dihedral8())
        G = lat.group
        kleins = [
            h for h, s in enumerate(lat.subgroups)
            if s.order == 4 and all(G.element_order(i) <= 2 for i in s.indices())
        ]
        assert len(kleins) == 2
        assert all(f2_of_member(lat, h) == 15 for h in kleins)


def set_oracle_pairs(sets, full_order):
    """Ordered pairs (i, j) with |Hi||Hj| == |G||Hi ∩ Hj|, by Python sets."""
    return [(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets)
            if len(a) * len(b) == full_order * len(a & b)]


# Orders at and just past the 64-bit word boundary of the bitset words.
WORD_BOUNDARY_GROUPS = [
    ("Z64", lambda: cyclic_group(2, 6)),
    ("Z2xZ4xZ8", lambda: build_abelian(PartitionType(2, (1, 2, 3)))),
    ("Z2xD32", lambda: direct_product(cyclic_group(2, 1), dihedral_group(16))),
    ("Z65", lambda: cyclic_group_of_order(65)),
    ("D66", lambda: dihedral_group(33)),
]


class TestPairKernel:
    """f2_bruteforce, f2_of_member and list_factorizations share _pair_hits."""

    @pytest.mark.parametrize("cells", [None, 1, 3])
    @pytest.mark.parametrize("label,builder", WORD_BOUNDARY_GROUPS)
    def test_against_set_oracle(self, label, builder, cells, monkeypatch):
        if cells is not None:  # every row block partial
            monkeypatch.setattr(lattice, "_PAIR_CELLS", cells)
        lat = enumerate_subgroups(builder())
        sets = [frozenset(s.indices()) for s in lat.subgroups]
        pairs = set_oracle_pairs(sets, lat.group.order)
        assert list_factorizations(lat) == pairs
        assert f2_bruteforce(lat) == f2_bruteforce(lat, threads=2) == len(pairs)
        for h, H in enumerate(sets):
            inside = [A for A in sets if A <= H]
            assert f2_of_member(lat, h) == len(set_oracle_pairs(inside, len(H)))

    @pytest.fixture(scope="class")
    def rank7(self):
        return enumerate_subgroups(elementary_abelian_group(2, 7))

    @pytest.mark.parametrize("cells", [None, 3])
    def test_elementary_rank7_class_pair(self, rank7, cells, monkeypatch):
        # |H| = |K| = 16 in Z2^7: HK = G iff |H ∩ K| = 2; rows from the
        # first 24 members of the class against the whole class
        if cells is not None:
            monkeypatch.setattr(lattice, "_PAIR_CELLS", cells)
        lat = rank7
        B = np.flatnonzero(lat.orders == 16)
        A = B[:24]
        blocks = list(_pair_hits(lat.words, A, B, 2))
        assert [s for s, _ in blocks] == list(range(0, len(A), len(blocks[0][1])))
        hit = np.concatenate([h for _, h in blocks])
        sets = {h: frozenset(lat.subgroups[h].indices()) for h in B.tolist()}
        expected = [[len(sets[a] & sets[b]) == 2 for b in B.tolist()] for a in A.tolist()]
        assert hit.tolist() == expected

    def test_threads_1_against_4(self):
        lat = enumerate_subgroups(elementary_abelian_group(2, 6))
        assert f2_bruteforce(lat, threads=1) == f2_bruteforce(lat, threads=4) == f2_elementary(6, 2)

    @pytest.mark.parametrize("order,dtype", [(4096, np.uint16), (65536, np.uint32)])
    def test_accumulator_dtype(self, order, dtype):
        # a popcount over the words of an order-n bitset reaches n; the
        # accumulator must hold it exactly (no group is built)
        nwords = (order + 63) // 64
        assert _popcount_dtype(64 * nwords) == dtype
        full = np.full((2, nwords), np.iinfo(np.uint64).max, dtype=np.uint64)
        (s, hit), = _pair_hits(full, np.array([0]), np.array([1]), order)
        assert s == 0 and hit.tolist() == [[True]]


class TestSd:
    def test_abelian_is_one(self):
        for label, builder in SMALL_GROUPS:
            G = builder()
            if G.is_commutative:
                assert sd(enumerate_subgroups(G)) == 1

    def test_d8(self):
        lat = enumerate_subgroups(dihedral8())
        assert permuting_pairs(lat) == 92
        assert sd(lat) == Fraction(23, 25)

    def test_q8_is_one(self):
        assert sd(enumerate_subgroups(quaternion8())) == 1

    def test_pair_limit(self, monkeypatch):
        lat = enumerate_subgroups(dihedral8())  # 10 members, 45 unordered pairs
        monkeypatch.setattr(lattice, "MAX_SD_PAIRS", 45)
        assert sd(lat) == Fraction(23, 25)
        monkeypatch.setattr(lattice, "MAX_SD_PAIRS", 44)
        with pytest.raises(ResourceLimitError, match="sd over 10 subgroups would compare "
                                                     "45 unordered pairs, more than the limit 44"):
            sd(lat)

    def test_heisenberg(self):
        # sum of F2 over members: 1 + 13*3 + 4*23 + 121 = 253, over 19^2 pairs
        lat = enumerate_subgroups(heisenberg_p3(3))
        assert sd(lat) == Fraction(253, 361)

    @pytest.mark.parametrize("label,builder", SMALL_GROUPS[:7] + [
        ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])),
        NON_PRIME_POWER[3],  # D12
        NON_PRIME_POWER[2],  # A4
        ("E27", lambda: heisenberg_p3(3)),
    ])
    def test_permuting_pairs_against_product_set_oracle(self, label, builder):
        G = builder()
        lat = enumerate_subgroups(G)
        # above the subset oracle's reach, take the members from the lattice
        subs = (None if G.order <= SUBSET_ORACLE_MAX_ORDER
                else [frozenset(s.indices()) for s in lat.subgroups])
        assert permuting_pairs(lat) == permuting_pairs_by_product_sets(G, subs)


class TestVerifyInversion:
    def test_z2xz4_worked_decomposition(self):
        G = build_abelian(PartitionType(2, (1, 2)))
        report = verify_inversion(G)
        assert report.passed
        assert report.f2 == 29
        assert report.eq1 == 29
        assert report.eq2_subgroup == 29
        assert report.eq2_quotient == 29
        assert report.quotient_method == "constructed"
        # the quotient route decomposes as 64 - (9 + 25 + 9) + 8 = 29
        lat = enumerate_subgroups(G)
        mu = mobius_from_bottom(lat)
        ud = lat.up_degrees
        terms = sorted(
            int(ud[h]) ** 2 * mu[h] for h in range(len(lat)) if mu[h]
        )
        assert terms == [-25, -9, -9, 8, 64]

    def test_zp_all_forms_give_3(self):
        for p in (2, 3):
            report = verify_inversion(cyclic_group(p, 1))
            assert report.passed and report.f2 == 3
            assert report.eq1 == report.eq2_subgroup == report.eq2_quotient == 3

    def test_d8_eq1_only(self):
        report = verify_inversion(dihedral8())
        assert report.passed and report.f2 == 41 and report.eq1 == 41
        assert report.eq2_subgroup is None and report.eq2_quotient is None
        assert "eq2_quotient" in report.skipped

    def test_q8_skips_quotient_forms(self):
        # all subgroups of Q8 are normal, but the lattice-duality forms
        # require an abelian group (the quotient sum would give 11, not 17)
        report = verify_inversion(quaternion8())
        assert report.passed and report.f2 == 17
        assert report.eq2_quotient is None

    def test_correspondence_path(self, monkeypatch):
        monkeypatch.setattr(lattice, "QUOTIENT_CAP", 1)
        G = elementary_abelian_group(2, 3)
        report = verify_inversion(G)
        assert report.passed
        assert report.quotient_method == "correspondence"
        assert report.eq2_quotient == 129

    def test_nonabelian_order27(self):
        for builder in (lambda: modular_p3(3), lambda: heisenberg_p3(3)):
            report = verify_inversion(builder())
            assert report.passed

    def test_report_dict_strings(self):
        d = verify_inversion(cyclic_group(2, 2)).to_dict()
        assert d["f2_bruteforce"] == "5" and d["passed"] is True

    @pytest.mark.parametrize("label,builder", [
        ("Z1", lambda: cyclic_group(2, 0)),
        ("Z2xZ4xZ8", lambda: build_abelian(PartitionType(2, (1, 2, 3)))),
        ("Z3xZ9", lambda: build_abelian(PartitionType(3, (1, 2)))),
        ("Z2^4", lambda: elementary_abelian_group(2, 4)),
        ("Z2xZ4xZ8~1", relabeled(lambda: build_abelian(PartitionType(2, (1, 2, 3))), 1)),
    ])
    def test_hall_check_on_every_member(self, label, builder, monkeypatch):
        # mu(1, H) of every member against Hall's formula, elementary and
        # not; one value off by one must be caught
        G = builder()
        assert verify_inversion(G).hall_consistent is True
        computed = lattice.mobius_from_bottom
        monkeypatch.setattr(lattice, "mobius_from_bottom",
                            lambda lat: computed(lat)[:-1] + (computed(lat)[-1] + 1,))
        report = verify_inversion(G)
        assert report.hall_consistent is False and not report.passed


CYCLIC6_TEXT = "6\n" + "\n".join(
    " ".join(str((i + j) % 6) for j in range(6)) for i in range(6)
) + "\n"


class TestVerifyHall:
    def test_z8_not_elementary(self):
        report = verify_hall(cyclic_group(2, 3))
        assert report.passed and report.mu_lattice == 0

    def test_z3_squared(self):
        report = verify_hall(elementary_abelian_group(3, 2))
        assert report.passed and report.mu_lattice == 3

    def test_z2_fourth(self):
        report = verify_hall(elementary_abelian_group(2, 4))
        assert report.passed and report.mu_lattice == 64

    def test_heisenberg_vanishes(self):
        report = verify_hall(heisenberg_p3(3))
        assert report.passed and report.mu_lattice == 0

    def test_trivial_group(self):
        report = verify_hall(cyclic_group(2, 0))
        assert report.passed and report.mu_lattice == 1

    def test_non_prime_power_rejected(self):
        G = parse_cayley_table(CYCLIC6_TEXT, label="Z6")
        with pytest.raises(DomainError):
            verify_hall(G)


class TestFrattini:
    def test_heisenberg_frattini_is_center(self):
        G = heisenberg_p3(3)
        lat = enumerate_subgroups(G)
        phi = frattini_index(lat)
        assert lat.subgroups[phi].order == 3
        members = lat.subgroups[phi].indices()
        assert all(G.mult(g, h) == G.mult(h, g) for g in members for h in range(27))

    def test_cyclic_frattini(self):
        lat = enumerate_subgroups(cyclic_group(2, 3))
        assert lat.subgroups[frattini_index(lat)].order == 4

    def test_trivial_group(self):
        lat = enumerate_subgroups(cyclic_group(2, 0))
        assert frattini_index(lat) == 0

    @pytest.mark.parametrize("label,builder", ORACLE_GROUPS)
    def test_against_maximal_subgroup_oracle(self, label, builder):
        # maximal: no member strictly between it and G, by leq alone
        lat = enumerate_subgroups(builder())
        top = lat.index_of_full
        proper = range(top)
        maxima = [h for h in proper
                  if not any(lat.leq(h, k) for k in proper if k != h)]
        assert lat.maximal_indices() == maxima
        bits = lat.subgroups[top].bits
        for h in maxima:
            bits &= lat.subgroups[h].bits
        assert frattini_index(lat) == lat.index_of(bits)


class TestExport:
    def test_document_schema(self):
        lat = enumerate_subgroups(dihedral8())
        doc = lattice_document(lat)
        assert doc["label"] == "D8" and doc["order"] == 8 and doc["size"] == 10
        assert doc["subgroups"][0] == {"bits": "0x1", "order": 1}
        assert all(isinstance(v, str) for v in doc["mobius_to_top"])
        assert doc["f2"] == "41"
        assert doc["sd"] == "23/25"

    def test_json_deterministic(self):
        lat = enumerate_subgroups(quaternion8())
        a = lattice_json(lat)
        b = lattice_json(enumerate_subgroups(quaternion8()))
        assert a == b
        parsed = json.loads(a)
        assert parsed["f2"] == "17" and parsed["sd"] == "1"
