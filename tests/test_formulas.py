import pytest

from facnum import formulas
from facnum.errors import DomainError, ValidationError, VerificationError
from facnum.formulas import (
    PartitionType,
    f2_corollary4,
    f2_corollary4_poly,
    f2_cyclic,
    f2_elementary,
    f2_elementary_poly,
    f2_heisenberg_census_poly,
    f2_heisenberg_p3,
    f2_heisenberg_p3_poly,
    f2_modular_p3,
    f2_rank2,
    f2_rank2_poly,
    f2_rank2_via_eq4,
    f2_rank2_via_eq4_poly,
    gaussian_binomial,
    gaussian_binomial_poly,
    hall_mobius,
    is_prime,
    lattice_size_heisenberg_p3,
    subgroup_count_rank2,
    subgroup_count_rank2_poly,
    total_subgroups_elementary,
    total_subgroups_elementary_poly,
    _rank2_f2_bracket_coeffs,
)
from facnum.groups import build_abelian, elementary_abelian_group

from helpers import subgroups_by_subsets

PRIMES_13 = [2, 3, 5, 7, 11, 13]


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestGaussianBinomial:
    def test_empty_product(self):
        assert gaussian_binomial(3, 0, 7) == 1

    def test_order3_subgroups_of_elementary_9(self):
        # independent route: closure-check all subsets of the concrete group
        G = elementary_abelian_group(3, 2)
        oracle = sum(1 for s in subgroups_by_subsets(G) if len(s) == 3)
        assert oracle == 4
        assert gaussian_binomial(2, 1, 3) == 4

    def test_order4_subgroups_of_elementary_16(self):
        G = elementary_abelian_group(2, 4)
        oracle = sum(1 for s in subgroups_by_subsets(G) if len(s) == 4)
        assert oracle == 35
        assert gaussian_binomial(4, 2, 2) == 35

    def test_domain_and_validation_errors(self):
        with pytest.raises(DomainError):
            gaussian_binomial(2, 3, 5)
        with pytest.raises(ValidationError):
            gaussian_binomial(3, 1, 4)
        with pytest.raises(DomainError):
            gaussian_binomial(-1, 0, 2)

    def test_symmetry_and_poly_agreement_grid(self):
        for p in PRIMES_13:
            for n in range(7):
                for i in range(n + 1):
                    v = gaussian_binomial(n, i, p)
                    assert v == gaussian_binomial(n, n - i, p)
                    assert v == gaussian_binomial_poly(n, i)(p)


class TestGaussianBinomialPoly:
    def test_small_cases(self):
        assert str(gaussian_binomial_poly(2, 1)) == "p + 1"
        assert gaussian_binomial_poly(5, 5) == 1
        assert gaussian_binomial_poly(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert gaussian_binomial_poly(4, 2)(2) == 35


class TestTotalSubgroups:
    def test_trivial(self):
        assert total_subgroups_elementary(0, 5) == 1

    def test_klein(self):
        G = elementary_abelian_group(2, 2)
        assert len(subgroups_by_subsets(G)) == 5
        assert total_subgroups_elementary(2, 2) == 5

    def test_elementary_order8(self):
        G = elementary_abelian_group(2, 3)
        assert len(subgroups_by_subsets(G)) == 16
        assert total_subgroups_elementary(3, 2) == 16  # 1 + 7 + 7 + 1


class TestHallMobius:
    def test_rank1(self):
        for p in (2, 3, 5):
            assert hall_mobius(1, p, True) == -1

    def test_rank2(self):
        for p in (2, 3, 5):
            assert hall_mobius(2, p, True) == p

    def test_not_elementary(self):
        assert hall_mobius(2, 2, False) == 0  # cyclic of order 4

    def test_convention_small_n(self):
        assert hall_mobius(0, None, True) == 1
        assert hall_mobius(1, 3, True) == -1  # C(1,2) = 0

    def test_elementary_needs_p(self):
        with pytest.raises(DomainError):
            hall_mobius(2, None, True)

    def test_larger(self):
        assert hall_mobius(4, 2, True) == 64
        assert hall_mobius(3, 3, True) == -27


class TestF2Elementary:
    def test_rank1_is_3(self):
        for p in (2, 3, 5, 7):
            assert f2_elementary(1, p) == 3

    def test_rank2_p2(self):
        # examples polynomial p^2 + 3p + 5 at p = 2
        assert f2_elementary_poly(2)(2) == 15
        assert f2_elementary(2, 2) == 15

    def test_rank3_p2(self):
        assert f2_elementary(3, 2) == 129

    def test_poly_matches_published_coefficients(self):
        assert f2_elementary_poly(0) == 1
        assert f2_elementary_poly(1) == 3
        assert f2_elementary_poly(2).coeffs == (5, 3, 1)
        assert f2_elementary_poly(3).coeffs == (7, 5, 8, 4, 3)
        # The commonly quoted rank-4 polynomial ends "...+ 23p + 9"; that
        # linear coefficient is a misprint.  Expanding the alternating sum
        # gives 7p, and brute force over the 67 subgroups of the order-16
        # group confirms F2 = 1983 at p = 2 (not 2015).
        assert f2_elementary_poly(4).coeffs == (9, 7, 12, 15, 14, 11, 9, 3, 1)

    def test_rank4_value_pinned_by_independent_enumeration(self):
        from helpers import f2_by_product_sets

        G = elementary_abelian_group(2, 4)
        oracle = f2_by_product_sets(G)
        assert oracle == 1983 == f2_elementary(4, 2)
        assert oracle != 2015  # the misprinted coefficient would give this

    def test_poly_eval_matches_int_route(self):
        for p in (2, 3, 5, 7):
            for n in range(7):
                assert f2_elementary_poly(n)(p) == f2_elementary(n, p)


class TestSubgroupCountRank2:
    def test_rank2_equal_exponents(self):
        for p in (2, 3, 5):
            assert subgroup_count_rank2(p, 1, 1) == p + 3

    def test_type_1_2_over_2(self):
        G = build_abelian(PartitionType(2, (1, 2)))
        assert len(subgroups_by_subsets(G)) == 8
        assert subgroup_count_rank2(2, 1, 2) == 8

    def test_cyclic_chain(self):
        for p in (2, 3, 5):
            for n in range(7):
                assert subgroup_count_rank2(p, 0, n) == n + 1

    def test_poly_agreement(self):
        for a1 in range(4):
            for a2 in range(a1, 5):
                poly = subgroup_count_rank2_poly(a1, a2)
                for p in (2, 3, 5, 7):
                    assert poly(p) == subgroup_count_rank2(p, a1, a2)


class TestF2Rank2:
    def test_elementary_agreement(self):
        assert f2_rank2(2, 1, 1) == 15 == f2_elementary(2, 2)
        for p in (2, 3, 5, 7, 11):
            assert f2_rank2(p, 1, 1) == f2_elementary(2, p)

    def test_paper_values(self):
        assert f2_rank2(2, 1, 2) == 29
        assert f2_rank2(2, 2, 2) == 83

    def test_rejects_a1_zero(self):
        with pytest.raises(DomainError):
            f2_rank2(2, 0, 3)

    def test_matches_eq4_route_on_grid(self):
        for p in (2, 3, 5, 7):
            for a1 in range(1, 5):
                for a2 in range(a1, 5):
                    assert f2_rank2(p, a1, a2) == f2_rank2_via_eq4(p, a1, a2)

    def test_poly_identity_of_the_two_routes(self):
        # the inversion route equals the closed bracket as polynomials
        for a1 in range(1, 5):
            for a2 in range(a1, 6):
                assert f2_rank2_poly(a1, a2) == f2_rank2_via_eq4_poly(a1, a2)

    def test_poly_eval_agreement(self):
        for p in (2, 3, 5):
            for a1 in range(1, 4):
                for a2 in range(a1, 5):
                    assert f2_rank2_poly(a1, a2)(p) == f2_rank2(p, a1, a2)


class TestF2Rank2ViaEq4:
    def test_values(self):
        assert f2_rank2_via_eq4(2, 1, 2) == 29
        assert f2_rank2_via_eq4(3, 1, 1) == 23  # 9 + 9 + 5
        assert f2_rank2_via_eq4(2, 2, 3) == f2_rank2(2, 2, 3)


class TestCorollary4:
    def test_n1_is_rank2_elementary_poly(self):
        assert f2_corollary4_poly(1).coeffs == (5, 3, 1)

    def test_values(self):
        assert f2_corollary4(2, 2) == 29
        assert f2_corollary4(2, 3) == 43

    def test_matches_rank2_on_grid(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 7):
                assert f2_corollary4(p, n) == f2_rank2(p, 1, n)


class TestCyclic:
    def test_values(self):
        assert f2_cyclic(0) == 1
        assert f2_cyclic(2) == 5
        assert f2_cyclic(3) == 7


class TestOrderP3Families:
    def test_modular_values(self):
        assert f2_modular_p3(3) == 49
        assert f2_modular_p3(5) == 107
        assert f2_modular_p3(3) == f2_rank2(3, 1, 2)

    def test_modular_rejects_p2_pointing_at_d8(self):
        with pytest.raises(DomainError, match="D8"):
            f2_modular_p3(2)

    def test_heisenberg_values(self):
        assert f2_heisenberg_p3(3) == 121
        assert f2_heisenberg_p3(5) == 407

    def test_heisenberg_rejects_p2(self):
        with pytest.raises(DomainError):
            f2_heisenberg_p3(2)
        with pytest.raises(DomainError):
            lattice_size_heisenberg_p3(2)

    def test_heisenberg_routes_agree_symbolically(self):
        assert f2_heisenberg_census_poly() == f2_heisenberg_p3_poly()
        assert f2_heisenberg_p3_poly().coeffs == (7, 5, 5, 2)

    def test_lattice_size(self):
        assert lattice_size_heisenberg_p3(3) == 19
        assert lattice_size_heisenberg_p3(5) == 39
        assert f2_heisenberg_p3(3) == 121 < 19**2


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PartitionType(4, (1,))
        with pytest.raises(ValidationError):
            PartitionType(2, (0, 1))
        with pytest.raises(ValidationError):
            PartitionType(2, (2, 1))

    def test_order_and_labels(self):
        t = PartitionType(2, (1, 2))
        assert t.order == 8 and t.rank == 2
        assert t.label() == "Z2xZ4"
        assert PartitionType(3, ()).order == 1
        assert PartitionType(3, ()).label() == "Z1"


def test_exploratory_rank2_bracket_degrades_gracefully_at_a1_zero():
    # Not part of any contract (f2_rank2 rejects a1 = 0; f2_cyclic owns that
    # case), but record the observed behavior: at a1 = 0 the bracket
    # collapses to (2*a2 + 1) * (p - 1)^4, i.e. the cyclic value.
    for p in (2, 3, 5, 7):
        for a2 in range(0, 6):
            bracket = sum(c * p**e for e, c in enumerate(_rank2_f2_bracket_coeffs(0, a2)))
            quo, rem = divmod(bracket, (p - 1) ** 4)
            assert rem == 0
            assert quo == f2_cyclic(a2)


@pytest.mark.parametrize("coeffs,compute", [
    ("_rank2_f2_bracket_coeffs", lambda: f2_rank2(3, 1, 2)),
    ("_rank2_count_bracket_coeffs", lambda: subgroup_count_rank2(3, 1, 2)),
    ("_rank2_count_bracket_coeffs", lambda: subgroup_count_rank2_poly(1, 2)),
])
def test_inexact_bracket_raises(monkeypatch, coeffs, compute):
    # one coefficient off by one leaves a remainder on division by a power
    # of (p - 1)
    exact = getattr(formulas, coeffs)

    def broken(a1, a2):
        c = exact(a1, a2)
        c[0] += 1
        return c

    monkeypatch.setattr(formulas, coeffs, broken)
    with pytest.raises(VerificationError, match="not divisible|remainder"):
        compute()


# Every closed form on its invalid inputs: the exact error type and message,
# for the integer and the polynomial form alike.  The integer form checks p
# before its other arguments.
_ODD_ONLY = ("is defined for odd primes only; at p=2 the non-abelian order-8 groups "
             "are D8 (F2 = 41) and Q8 (F2 = 17)")


@pytest.mark.parametrize("fn,args,exc,message", [
    (gaussian_binomial, (2, 1, 4), ValidationError, "p must be a prime, got 4"),
    (gaussian_binomial, (-1, 0, 4), ValidationError, "p must be a prime, got 4"),
    (gaussian_binomial, (2, 1, 3.0), ValidationError, "p must be a prime, got 3.0"),
    (gaussian_binomial, (2, 3, 5), DomainError, "i must not exceed n, got i=3 > n=2"),
    (gaussian_binomial, (-1, 0, 2), DomainError, "n and i must be nonnegative, got n=-1, i=0"),
    (gaussian_binomial, (2, -1, 2), DomainError, "n and i must be nonnegative, got n=2, i=-1"),
    (gaussian_binomial_poly, (2, 3), DomainError, "i must not exceed n, got i=3 > n=2"),
    (gaussian_binomial_poly, (-1, 0), DomainError,
     "n and i must be nonnegative, got n=-1, i=0"),
    (gaussian_binomial_poly, (2, -1), DomainError,
     "n and i must be nonnegative, got n=2, i=-1"),
    (total_subgroups_elementary, (2, 4), ValidationError, "p must be a prime, got 4"),
    (total_subgroups_elementary, (0, 4), ValidationError, "p must be a prime, got 4"),
    # a negative rank is not the empty group, so its subgroup count is not 0
    (total_subgroups_elementary, (-1, 2), DomainError, "n must be nonnegative, got -1"),
    (total_subgroups_elementary_poly, (-1,), DomainError, "n must be nonnegative, got -1"),
    (f2_elementary, (2, 4), ValidationError, "p must be a prime, got 4"),
    (f2_elementary, (-1, 4), ValidationError, "p must be a prime, got 4"),
    (f2_elementary, (-1, 2), DomainError, "n must be nonnegative, got -1"),
    (f2_elementary_poly, (-1,), DomainError, "n must be nonnegative, got -1"),
    (subgroup_count_rank2, (4, 1, 2), ValidationError, "p must be a prime, got 4"),
    (subgroup_count_rank2, (4, 3, 2), ValidationError, "p must be a prime, got 4"),
    (subgroup_count_rank2, (2, -1, 2), DomainError, "need 0 <= a1 <= a2, got a1=-1, a2=2"),
    (subgroup_count_rank2, (2, 3, 2), DomainError, "need 0 <= a1 <= a2, got a1=3, a2=2"),
    (subgroup_count_rank2_poly, (-1, 2), DomainError, "need 0 <= a1 <= a2, got a1=-1, a2=2"),
    (subgroup_count_rank2_poly, (3, 2), DomainError, "need 0 <= a1 <= a2, got a1=3, a2=2"),
    (f2_rank2, (4, 1, 2), ValidationError, "p must be a prime, got 4"),
    (f2_rank2, (4, 0, 3), ValidationError, "p must be a prime, got 4"),
    (f2_rank2, (2, 0, 3), DomainError, "a1 must be >= 1 (use f2_cyclic for rank 1), got 0"),
    (f2_rank2, (2, 3, 2), DomainError, "need a1 <= a2, got a1=3, a2=2"),
    (f2_rank2_poly, (0, 3), DomainError, "need 1 <= a1 <= a2, got a1=0, a2=3"),
    (f2_rank2_poly, (3, 2), DomainError, "need 1 <= a1 <= a2, got a1=3, a2=2"),
    (f2_rank2_via_eq4, (4, 1, 2), ValidationError, "p must be a prime, got 4"),
    (f2_rank2_via_eq4, (2, 0, 3), DomainError, "a1 must be >= 1, got 0"),
    (f2_rank2_via_eq4, (2, 3, 2), DomainError, "need a1 <= a2, got a1=3, a2=2"),
    (f2_rank2_via_eq4_poly, (0, 3), DomainError, "need 1 <= a1 <= a2, got a1=0, a2=3"),
    (f2_rank2_via_eq4_poly, (3, 2), DomainError, "need 1 <= a1 <= a2, got a1=3, a2=2"),
    (f2_corollary4, (4, 2), ValidationError, "p must be a prime, got 4"),
    (f2_corollary4, (4, 0), ValidationError, "p must be a prime, got 4"),
    (f2_corollary4, (2, 0), DomainError, "n must be >= 1, got 0"),
    (f2_corollary4_poly, (0,), DomainError, "n must be >= 1, got 0"),
    (f2_cyclic, (-1,), DomainError, "n must be nonnegative, got -1"),
    (f2_modular_p3, (4,), ValidationError, "p must be a prime, got 4"),
    (f2_modular_p3, (2,), DomainError, "M(p^3) " + _ODD_ONLY),
    (f2_heisenberg_p3, (4,), ValidationError, "p must be a prime, got 4"),
    (f2_heisenberg_p3, (2,), DomainError, "E(p^3) " + _ODD_ONLY),
    (lattice_size_heisenberg_p3, (4,), ValidationError, "p must be a prime, got 4"),
    (lattice_size_heisenberg_p3, (2,), DomainError, "E(p^3) " + _ODD_ONLY),
])
def test_invalid_input_errors_pinned(fn, args, exc, message):
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc
    assert str(info.value) == message
