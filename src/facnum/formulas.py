"""Closed-form subgroup and factorization counts for p-groups.

Everything here is exact: values are Python ints, symbolic forms are
``IntPolynomial``.  Each closed form is written once, as a polynomial in p
(the ``*_poly`` function); the integer function of the same family checks
its inputs, evaluates that polynomial at p and keeps its value checks.
The Gaussian brackets are built row by row by the q-Pascal rule, which
divides nothing.  Quotients such as the rank-2 brackets over (p-1)^2
resp. (p-1)^4 are polynomial ``exact_div``s, which raise
VerificationError (also under python -O) on any division that is not
exact, so a transcription slip blows up immediately instead of producing
a plausible wrong number.

An ordered pair of subgroups (H, K) with HK = G (as a product set) is a
factorization of G; f2_* functions count those pairs for the families
with known closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError, VerificationError
from .intpoly import IntPolynomial


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are tiny."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"p must be a prime, got {p!r}")
    return p


def _require_odd_prime(p: int, what: str) -> int:
    _require_prime(p)
    if p == 2:
        raise DomainError(
            f"{what} is defined for odd primes only; at p=2 the non-abelian "
            "order-8 groups are D8 (F2 = 41) and Q8 (F2 = 17)"
        )
    return p


@dataclass(frozen=True)
class PartitionType:
    """Isomorphism type of a finite abelian p-group: prime p and a
    nondecreasing tuple of exponents a1 <= a2 <= ... <= ak.

    The empty tuple is the trivial group.  Group order is p**sum(alphas).
    """

    p: int
    alphas: tuple[int, ...]

    def __post_init__(self):
        _require_prime(self.p)
        alphas = tuple(int(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if any(a < 1 for a in alphas):
            raise ValidationError(f"exponents must be >= 1, got {alphas}")
        if any(alphas[i] > alphas[i + 1] for i in range(len(alphas) - 1)):
            raise ValidationError(f"exponents must be nondecreasing, got {alphas}")

    @property
    def order(self) -> int:
        return self.p ** sum(self.alphas)

    @property
    def rank(self) -> int:
        return len(self.alphas)

    def label(self) -> str:
        if not self.alphas:
            return "Z1"
        return "x".join(f"Z{self.p ** a}" for a in self.alphas)


# ---------------------------------------------------------------------------
# Gaussian binomials: subgroup counts of elementary abelian groups
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, i: int, p: int) -> int:
    """Number of subgroups of order p**i in an elementary abelian group of
    order p**n: prod (p^n - 1)...(p^(n-i+1) - 1) / (p^i - 1)...(p - 1).
    """
    _require_prime(p)
    return gaussian_binomial_poly(n, i)(p)


def gaussian_binomial_poly(n: int, i: int) -> IntPolynomial:
    """Symbolic form of gaussian_binomial as an integer polynomial in p:
    row n of _gaussian_rows."""
    if n < 0 or i < 0:
        raise DomainError(f"n and i must be nonnegative, got n={n}, i={i}")
    if i > n:
        raise DomainError(f"i must not exceed n, got i={i} > n={n}")
    return _gaussian_rows(n)[n][i]


def _gaussian_rows(n: int) -> list[list[IntPolynomial]]:
    """Rows m = 0..n of the brackets [m, i], i <= m, each row from the one
    before by the q-Pascal rule [m, i] = [m-1, i-1] + p^i [m-1, i], with
    [m, 0] = [m, m] = 1: additions and shifts, nothing divided."""
    rows = [[IntPolynomial.constant(1)]]
    for m in range(1, n + 1):
        last = rows[-1]
        rows.append([last[0], *(last[i - 1] + last[i].shift(i) for i in range(1, m)), last[-1]])
    return rows


def total_subgroups_elementary(n: int, p: int) -> int:
    """Total number of subgroups of an elementary abelian group of order p**n."""
    _require_prime(p)
    return total_subgroups_elementary_poly(n)(p)


def total_subgroups_elementary_poly(n: int) -> IntPolynomial:
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return sum(_gaussian_rows(n)[n], IntPolynomial())


# ---------------------------------------------------------------------------
# Hall's Moebius values for p-groups
# ---------------------------------------------------------------------------

def hall_mobius(n: int, p: int | None, elementary: bool) -> int:
    """Moebius value mu(1, G) of a p-group of order p**n by Hall's theorem:
    0 unless G is elementary abelian, else (-1)**n * p**C(n,2).

    n = 0 is the trivial group (elementary abelian by convention, value 1);
    p is not consulted in that case.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    if not elementary:
        return 0
    if p is None:
        raise DomainError(f"p is required for an elementary group of order p^{n}")
    _require_prime(p)
    return (-1) ** n * p ** math.comb(n, 2)


# ---------------------------------------------------------------------------
# Factorization numbers: elementary abelian groups
# ---------------------------------------------------------------------------

def f2_elementary(n: int, p: int) -> int:
    """F2 of an elementary abelian group of order p**n, by the alternating
    sum  sum_i (-1)^i a(n,i) * total(n-i)^2 * p^C(i,2)."""
    _require_prime(p)
    value = f2_elementary_poly(n)(p)
    if value <= 0:
        raise VerificationError(f"alternating sum must stay positive, got {value}")
    return value


def f2_elementary_poly(n: int) -> IntPolynomial:
    """Symbolic form of f2_elementary as a polynomial in p."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    rows = _gaussian_rows(n)
    totals = [sum(row, IntPolynomial()) for row in rows]
    value = IntPolynomial()
    for i in range(n + 1):
        term = (rows[n][i] * totals[n - i] ** 2).shift(math.comb(i, 2))
        value = value - term if i % 2 else value + term
    return value


# ---------------------------------------------------------------------------
# Rank-2 abelian p-groups  Z_{p^a1} x Z_{p^a2}
# ---------------------------------------------------------------------------

def _rank2_count_bracket_coeffs(a1: int, a2: int) -> list[int]:
    coeffs = [0] * (a1 + 3)
    coeffs[a1 + 2] += a2 - a1 + 1
    coeffs[a1 + 1] -= a2 - a1 - 1
    coeffs[1] -= a1 + a2 + 3
    coeffs[0] += a1 + a2 + 1
    return coeffs


def subgroup_count_rank2(p: int, a1: int, a2: int) -> int:
    """Total number of subgroups of Z_{p^a1} x Z_{p^a2}, 0 <= a1 <= a2.

    a1 = 0 degenerates to the cyclic group, whose lattice is the chain of
    a2 + 1 subgroups.
    """
    _require_prime(p)
    return subgroup_count_rank2_poly(a1, a2)(p)


def subgroup_count_rank2_poly(a1: int, a2: int) -> IntPolynomial:
    if a1 < 0 or a2 < a1:
        raise DomainError(f"need 0 <= a1 <= a2, got a1={a1}, a2={a2}")
    x = IntPolynomial.x()
    return IntPolynomial(_rank2_count_bracket_coeffs(a1, a2)).exact_div((x - 1) ** 2)


def _rank2_f2_bracket_coeffs(a1: int, a2: int) -> list[int]:
    d = a2 - a1
    s = a1 + a2
    coeffs = [0] * (2 * a1 + 5)
    coeffs[2 * a1 + 4] += 2 * d + 1
    coeffs[2 * a1 + 3] -= 6 * d + 1
    coeffs[2 * a1 + 2] += 6 * d - 1
    coeffs[2 * a1 + 1] -= 2 * d - 1
    coeffs[3] -= 2 * s + 3
    coeffs[2] += 6 * s + 7
    coeffs[1] -= 6 * s + 5
    coeffs[0] += 2 * s + 1
    return coeffs


def f2_rank2(p: int, a1: int, a2: int) -> int:
    """F2 of Z_{p^a1} x Z_{p^a2} for 1 <= a1 <= a2: f2_rank2_poly at p."""
    _require_prime(p)
    if a1 < 1:
        raise DomainError(f"a1 must be >= 1 (use f2_cyclic for rank 1), got {a1}")
    if a2 < a1:
        raise DomainError(f"need a1 <= a2, got a1={a1}, a2={a2}")
    value = f2_rank2_poly(a1, a2)(p)
    if value <= 0:
        raise VerificationError(
            f"rank-2 F2 must be positive, got {value} at p={p}, ({a1},{a2})")
    return value


def f2_rank2_poly(a1: int, a2: int) -> IntPolynomial:
    """An eight-term bracket divided by (p-1)^4, exactly."""
    if a1 < 1 or a2 < a1:
        raise DomainError(f"need 1 <= a1 <= a2, got a1={a1}, a2={a2}")
    x = IntPolynomial.x()
    return IntPolynomial(_rank2_f2_bracket_coeffs(a1, a2)).exact_div((x - 1) ** 4)


def f2_rank2_via_eq4(p: int, a1: int, a2: int) -> int:
    """F2 of Z_{p^a1} x Z_{p^a2} computed by Moebius inversion over the four
    minimal-quotient lattice sizes:

        p*L(a1-1, a2-1)^2 - p*L(a1-1, a2)^2 - L(a1, a2-1)^2 + L(a1, a2)^2

    where L(x, y) = subgroup_count_rank2(p, min(x,y), max(x,y)).  Must agree
    with f2_rank2 on every input; kept fully independent of it.
    """
    _require_prime(p)
    if a1 < 1:
        raise DomainError(f"a1 must be >= 1, got {a1}")
    if a2 < a1:
        raise DomainError(f"need a1 <= a2, got a1={a1}, a2={a2}")
    return f2_rank2_via_eq4_poly(a1, a2)(p)


def f2_rank2_via_eq4_poly(a1: int, a2: int) -> IntPolynomial:
    """Symbolic version of f2_rank2_via_eq4, built from subgroup_count_rank2_poly
    alone; equals f2_rank2_poly identically."""
    if a1 < 1 or a2 < a1:
        raise DomainError(f"need 1 <= a1 <= a2, got a1={a1}, a2={a2}")
    x = IntPolynomial.x()

    def L(u: int, v: int) -> IntPolynomial:
        lo, hi = sorted((u, v))
        return subgroup_count_rank2_poly(lo, hi)

    return (
        x * L(a1 - 1, a2 - 1) ** 2
        - x * L(a1 - 1, a2) ** 2
        - L(a1, a2 - 1) ** 2
        + L(a1, a2) ** 2
    )


def f2_corollary4(p: int, n: int) -> int:
    """F2 of Z_p x Z_{p^n}: (2n-1)p^2 + (2n+1)p + (2n+3)."""
    _require_prime(p)
    return f2_corollary4_poly(n)(p)


def f2_corollary4_poly(n: int) -> IntPolynomial:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return IntPolynomial((2 * n + 3, 2 * n + 1, 2 * n - 1))


def f2_cyclic(n: int) -> int:
    """F2 of a cyclic group of order p**n is 2n + 1, independent of p."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return 2 * n + 1


# ---------------------------------------------------------------------------
# The non-abelian order-p^3 families (odd p)
# ---------------------------------------------------------------------------

def f2_modular_p3(p: int) -> int:
    """F2 of the modular group M(p^3) = <x,y | x^(p^2)=y^p=1, y^-1 x y = x^(p+1)>,
    p odd: 3p^2 + 5p + 7 (the same value as Z_p x Z_{p^2})."""
    _require_odd_prime(p, "M(p^3)")
    return f2_modular_p3_poly()(p)


def f2_modular_p3_poly() -> IntPolynomial:
    return IntPolynomial((7, 5, 3))


def f2_heisenberg_p3(p: int) -> int:
    """F2 of the Heisenberg group E(p^3) (extraspecial of exponent p, p odd):
    2p^3 + 5p^2 + 5p + 7.

    Cross-checked internally against the census of its factorization pairs,
    2 + p(p+1)(p+2) + 2 + (p+1)(p^2+p+2) + 1.
    """
    _require_odd_prime(p, "E(p^3)")
    direct = f2_heisenberg_p3_poly()(p)
    if direct != f2_heisenberg_census_poly()(p):
        raise VerificationError(f"E(p^3) pair census mismatch at p={p}")
    return direct


def f2_heisenberg_p3_poly() -> IntPolynomial:
    return IntPolynomial((7, 5, 5, 2))


def f2_heisenberg_census_poly() -> IntPolynomial:
    """The census route as a polynomial; identical to f2_heisenberg_p3_poly."""
    x = IntPolynomial.x()
    return 2 + x * (x + 1) * (x + 2) + 2 + (x + 1) * (x * x + x + 2) + 1


def lattice_size_heisenberg_p3(p: int) -> int:
    """Number of subgroups of E(p^3), p odd: p^2 + 2p + 4."""
    _require_odd_prime(p, "E(p^3)")
    return p * p + 2 * p + 4
