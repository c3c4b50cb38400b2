"""Moebius inversion on Z2 x Z4, term by term.

For an abelian group, F2(G) = sum over subgroups H of |L(G/H)|^2 mu(1,H).
Only subgroups with nonzero mu contribute: here the trivial subgroup, the
three minimal subgroups, and the unique Klein subgroup.  Constructing
each quotient explicitly gives 64 - (9 + 25 + 9) + 8 = 29 — the same
number the pair count finds.  Hall's closed form pins each mu value.
"""

from facnum import (
    PartitionType,
    build_abelian,
    elementary_abelian_group,
    enumerate_subgroups,
    f2_bruteforce,
    mobius_from_bottom,
    mobius_to_top,
    quotient,
    verify_hall,
)


def main():
    G = build_abelian(PartitionType(2, (1, 2)))
    lat = enumerate_subgroups(G)
    mu = mobius_from_bottom(lat)

    print(f"{G.label}: F2 by pair counting = {f2_bruteforce(lat)}\n")
    print("nonzero-mu terms of the quotient-form sum:")
    total = 0
    for h, s in enumerate(lat.subgroups):
        if not mu[h]:
            continue
        Q = quotient(G, s)
        qsize = len(enumerate_subgroups(Q))
        term = qsize * qsize * mu[h]
        total += term
        print(f"  H of order {s.order}: |L(G/H)| = {qsize}, mu(1,H) = {mu[h]:+d}, "
              f"term = {term:+d}")
    print(f"  total = {total}")

    print("\nHall's formula vs the lattice recursion:")
    for H in (elementary_abelian_group(2, 4), elementary_abelian_group(3, 3)):
        rep = verify_hall(H)
        print(f"  {rep.summary()}")

    print("\nmu(H, G) up the lattice of Z2xZ4 (trivial subgroup first):")
    print(" ", list(mobius_to_top(lat)))


if __name__ == "__main__":
    main()
