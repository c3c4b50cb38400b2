"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (run with `pytest -v -s` to see them
live).  Groups and lattices are cached in a module-scoped store so later
criteria reuse earlier work.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from facnum.formulas import (
    PartitionType,
    f2_corollary4,
    f2_elementary,
    f2_elementary_poly,
    f2_heisenberg_p3,
    f2_rank2,
    f2_rank2_via_eq4,
    gaussian_binomial,
    gaussian_binomial_poly,
    hall_mobius,
    lattice_size_heisenberg_p3,
    subgroup_count_rank2,
    total_subgroups_elementary,
)
from facnum.groups import (
    build_abelian,
    cyclic_group,
    dihedral8,
    elementary_abelian_group,
    heisenberg_p3,
    modular_p3,
    permute_elements,
    quaternion8,
)
from facnum.lattice import (
    enumerate_subgroups,
    f2_bruteforce,
    frattini_index,
    list_factorizations,
    mobius_to_top,
    sd,
    verify_hall,
    verify_inversion,
)
from facnum.explore import check_theorem5, open_problem_table, partitions

from helpers import check_recursion

PRIMES_13 = [2, 3, 5, 7, 11, 13]


@pytest.fixture(scope="module")
def store():
    return {}


def lat_of(store, label, builder):
    if label not in store:
        G = builder()
        store[label] = (G, enumerate_subgroups(G))
    return store[label]


def order8_cases(store):
    return [
        lat_of(store, "Z2^3", lambda: elementary_abelian_group(2, 3)),
        lat_of(store, "Z2xZ4", lambda: build_abelian(PartitionType(2, (1, 2)))),
        lat_of(store, "Z8", lambda: cyclic_group(2, 3)),
        lat_of(store, "D8", dihedral8),
        lat_of(store, "Q8", quaternion8),
    ]


def abelian_types_up_to(p, max_order):
    out = []
    n = 1
    while p**n <= max_order:
        for forms in partitions(n):
            out.append(PartitionType(p, forms.nondecreasing))
        n += 1
    return out


def rank2_grid():
    grid = []
    for p in (2, 3):
        for a1 in range(1, 10):
            for a2 in range(a1, 10):
                if p ** (a1 + a2) <= 729:
                    grid.append((p, a1, a2))
    return grid


def report(num, message):
    print(f"\nCRITERION {num}: PASS — {message}")


def test_criterion_01_order8_f2_table(store):
    t0 = time.perf_counter()
    expected = {"Z2^3": 129, "Z2xZ4": 29, "Z8": 7, "D8": 41, "Q8": 17}
    got = {}
    for G, lat in order8_cases(store):
        got[G.label] = f2_bruteforce(lat)
    elapsed = time.perf_counter() - t0
    assert got == expected
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    report(1, f"order-8 F2 table {got} in {elapsed * 1000:.0f}ms")


def test_criterion_02_elementary_polynomials_and_bruteforce(store):
    t0 = time.perf_counter()
    assert f2_elementary_poly(1) == 3
    assert f2_elementary_poly(2).coeffs == (5, 3, 1)
    assert f2_elementary_poly(3).coeffs == (7, 5, 8, 4, 3)
    # Rank 4: the published example ends "+ 23p + 9"; the 23 is a misprint
    # for 7.  The alternating sum expands to 7p, and the brute force below
    # (p = 2 gives 1983, not 2015) settles it.
    assert f2_elementary_poly(4).coeffs == (9, 7, 12, 15, 14, 11, 9, 3, 1)
    assert f2_elementary(4, 2) == 1983 != 2015

    checked = []
    for p, n_max in ((2, 4), (3, 4), (5, 3)):
        for n in range(n_max + 1):
            label = f"Z{p}^{n}" if n > 1 else (f"Z{p}" if n else "Z1")
            G, lat = lat_of(store, label, lambda p=p, n=n: elementary_abelian_group(p, n))
            brute = f2_bruteforce(lat)
            assert brute == f2_elementary(n, p) == f2_elementary_poly(n)(p)
            assert len(lat) == total_subgroups_elementary(n, p)
            checked.append((p, n, brute))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s, bound is 2min"
    report(2, f"examples a)-d) polynomials (d: linear coefficient corrected 23->7, "
              f"misprint) and {len(checked)} brute-force matches in {elapsed:.1f}s")


def test_criterion_03_rank2_formula_eq4_bruteforce(store):
    t0 = time.perf_counter()
    grid = rank2_grid()
    for p, a1, a2 in grid:
        formula = f2_rank2(p, a1, a2)
        assert formula == f2_rank2_via_eq4(p, a1, a2)
        t = PartitionType(p, (a1, a2))
        G, lat = lat_of(store, t.label(), lambda t=t: build_abelian(t))
        assert formula == f2_bruteforce(lat)
        assert len(lat) == subgroup_count_rank2(p, a1, a2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, bound is 1min"
    report(3, f"{len(grid)} rank-2 groups up to order 729: formula = inversion "
              f"route = brute force in {elapsed:.1f}s")


def test_criterion_04_corollary4(store):
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            assert f2_corollary4(p, n) == f2_rank2(p, 1, n)
    brute_checked = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 8):
            if p ** (1 + n) > 256:
                break
            t = PartitionType(p, (1, n))
            G, lat = lat_of(store, t.label(), lambda t=t: build_abelian(t))
            assert f2_corollary4(p, n) == f2_bruteforce(lat)
            brute_checked += 1
    report(4, f"corollary formula = rank-2 formula on the p<=7, n<=6 grid; "
              f"{brute_checked} brute-force confirmations")


def test_criterion_05_hall(store):
    # every p-group instance built in criteria 1-3 plus E(27), M(27)
    lat_of(store, "E(27)", lambda: heisenberg_p3(3))
    lat_of(store, "M(27)", lambda: modular_p3(3))
    lat_of(store, "Z2^4", lambda: elementary_abelian_group(2, 4))
    lat_of(store, "Z3^3", lambda: elementary_abelian_group(3, 3))
    checked = 0
    for label, (G, lat) in sorted(store.items()):
        rep = verify_hall(G, lattice=lat)
        assert rep.passed, rep.summary()
        checked += 1
    mu24 = mobius_to_top(store["Z2^4"][1])[0]
    mu33 = mobius_to_top(store["Z3^3"][1])[0]
    assert mu24 == 64 == hall_mobius(4, 2, True)
    assert mu33 == -27 == hall_mobius(3, 3, True)
    report(5, f"Hall's formula matches the lattice recursion on {checked} "
              f"p-groups incl. mu(1,Z2^4)={mu24}, mu(1,Z3^3)={mu33}")


def test_criterion_06_inversion_identities(store):
    groups = []
    for p, cap in ((2, 128), (3, 128)):
        for t in abelian_types_up_to(p, cap):
            groups.append((t.label(), lambda t=t: build_abelian(t)))
    groups += [("D8", dihedral8), ("Q8", quaternion8),
               ("M(27)", lambda: modular_p3(3)), ("E(27)", lambda: heisenberg_p3(3))]
    worked = None
    for label, builder in groups:
        G, lat = lat_of(store, label, builder)
        rep = verify_inversion(G, lattice=lat)
        assert rep.passed, f"{label}: {rep.mismatches}"
        if label == "Z2xZ4":
            worked = rep
    # the worked decomposition 64 - 43 + 8 = 29 runs through real quotients
    assert worked is not None
    assert worked.quotient_method == "constructed"
    assert worked.eq2_quotient == 64 - 43 + 8 == 29
    report(6, f"inversion identities hold on {len(groups)} groups "
              f"(abelian of order <= 128 over p in {{2,3}} plus D8/Q8/M27/E27); "
              f"Z2xZ4 quotient decomposition 64 - 43 + 8 = 29")


def test_criterion_07_heisenberg_census(store):
    p = 3
    G, lat = lat_of(store, "E(27)", lambda: heisenberg_p3(3))
    assert len(lat) == 19 == lattice_size_heisenberg_p3(p)
    pairs = list_factorizations(lat)
    assert len(pairs) == 121 == 2 * 27 + 5 * 9 + 5 * 3 + 7 == f2_heisenberg_p3(p)
    phi = frattini_index(lat)
    assert lat.subgroups[phi].order == p
    full = lat.index_of_full
    buckets = Counter()
    for i, j in pairs:
        oi, oj = lat.subgroups[i].order, lat.subgroups[j].order
        if oi == 1 or oj == 1:
            buckets["trivial"] += 1
        elif i == full and j == full:
            buckets["full"] += 1
        elif phi in (i, j):
            buckets["frattini"] += 1
        elif oi == p or (i == full and oj == p):
            buckets["minimal_by_maximal"] += 1
        elif oi == p * p or (i == full and oj == p * p):
            buckets["maximal_led"] += 1
        else:
            buckets["unclassified"] += 1
    assert buckets == {
        "trivial": 2,
        "minimal_by_maximal": p * (p + 1) * (p + 2),   # 60
        "frattini": 2,
        "maximal_led": (p + 1) * (p * p + p + 2),      # 56
        "full": 1,
    }
    report(7, f"E(27): 121 factorization pairs, census {dict(buckets)}, |L| = 19")


def test_criterion_08_sd(store):
    sd_set = []
    for p, cap in ((2, 32), (3, 81)):
        for t in abelian_types_up_to(p, cap):
            sd_set.append((t.label(), lambda t=t: build_abelian(t)))
    abelian_count = 0
    for label, builder in sd_set:
        G, lat = lat_of(store, label, builder)
        assert sd(lat) == 1  # also asserts the two routes agree internally
        abelian_count += 1
    assert sd(lat_of(store, "Q8", quaternion8)[1]) == 1
    assert sd(lat_of(store, "D8", dihedral8)[1]) == Fraction(23, 25)
    sd(lat_of(store, "M(27)", lambda: modular_p3(3))[1])
    sd(lat_of(store, "E(27)", lambda: heisenberg_p3(3))[1])
    report(8, f"sd = 1 on {abelian_count} abelian groups and Q8; sd(D8) = 23/25; "
              f"both routes agree everywhere (asserted inside sd)")


def test_criterion_09_theorem5_extremes(store):
    verdicts = []
    for p in (2, 3, 5):
        for n in (2, 3):
            rep = check_theorem5(p, n)
            assert rep.passed, rep.verdict
            assert rep.cyclic_minimum == 2 * n + 1
            verdicts.append((p, n, rep.max_value))
    report(9, f"strict elementary-abelian maximum and cyclic minimum 2n+1 "
              f"verified for (p, n, max): {verdicts}")


def test_criterion_10_open_problem_table(store):
    t0 = time.perf_counter()
    rep = open_problem_table(2, 4)
    values = {tuple(r["nondecreasing"]): int(r["f2"]) for r in rep.rows}
    # 1983 is the corrected rank-4 value (published 2015 rests on the
    # misprinted polynomial; brute force over 67 subgroups says 1983)
    assert values == {
        (1, 1, 1, 1): 1983,
        (1, 1, 2): 279,
        (1, 3): 43,
        (2, 2): 83,
        (4,): 9,
    }
    for r in rep.rows:
        if r["closed_form"] is not None:
            assert r["closed_form"] == r["f2"]
    assert rep.verdicts["nondecreasing_lex"] == {
        "monotone": False, "violated_at": [[1, 3], [2, 2]],
    }
    assert rep.verdicts["nonincreasing_lex"]["monotone"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, bound is 1min"
    report(10, f"p=2, n=4 partition table {values} (1983 corrects the "
               f"misprinted 2015); nondecreasing-lex violated at (1,3) vs (2,2), "
               f"nonincreasing-lex monotone; {elapsed:.1f}s")


def test_criterion_11_property_suites(store):
    # Moebius recursion on every lattice built during this run
    recursion_checked = 0
    for label, (G, lat) in sorted(store.items()):
        assert check_recursion(lat, mobius_to_top(lat)), label
        recursion_checked += 1

    # relabeling invariance: 20 random identity-fixing permutations per group
    rng = random.Random(20240612)
    relabel_set = [
        ("Z2xZ4", lambda: build_abelian(PartitionType(2, (1, 2)))),
        ("D8", dihedral8),
        ("Q8", quaternion8),
        ("Z2^4", lambda: elementary_abelian_group(2, 4)),
        ("M(27)", lambda: modular_p3(3)),
        ("E(27)", lambda: heisenberg_p3(3)),
        ("Z2^5", lambda: elementary_abelian_group(2, 5)),
        ("Z4xZ16", lambda: build_abelian(PartitionType(2, (2, 4)))),
    ]
    for label, builder in relabel_set:
        G, lat = lat_of(store, label, builder)
        base = f2_bruteforce(lat)
        assert G.order <= 64
        for _ in range(20):
            perm = [0] + rng.sample(range(1, G.order), G.order - 1)
            relabeled = permute_elements(G, perm)
            assert f2_bruteforce(enumerate_subgroups(relabeled)) == base, label

    # every exact-division assertion across the formula grid fires silently
    for p in PRIMES_13:
        for n in range(7):
            for i in range(n + 1):
                assert gaussian_binomial(n, i, p) == gaussian_binomial_poly(n, i)(p)
        for a1 in range(0, 7):
            for a2 in range(a1, 7):
                subgroup_count_rank2(p, a1, a2)
                if a1 >= 1:
                    assert f2_rank2(p, a1, a2) == f2_rank2_via_eq4(p, a1, a2)
        for n in range(7):
            assert f2_elementary(n, p) > 0
    report(11, f"Moebius recursion on {recursion_checked} lattices; F2 invariant "
               f"under 20 relabelings x {len(relabel_set)} groups; exact-division "
               f"grid p <= 13, parameters <= 6 clean")
