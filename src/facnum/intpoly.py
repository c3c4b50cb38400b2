"""Dense polynomials with exact integer coefficients.

Used for the symbolic side of every closed-form count: coefficients are
plain Python ints, so nothing ever rounds.  Division is polynomial long
division over the integers and is only defined when each elimination
step divides exactly; ``exact_div`` additionally demands a zero
remainder.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import VerificationError

VARIABLE = "p"


class IntPolynomial:
    """Integer polynomial in one indeterminate, coefficient i belongs to p**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        """The indeterminate itself."""
        return cls((0, 1))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == IntPolynomial((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __call__(self, value: int) -> int:
        """Evaluate at an integer point (Horner, exact)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        raise TypeError(f"cannot combine IntPolynomial with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not self or not other:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        result = IntPolynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by p**k."""
        if not self:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __divmod__(self, other):
        divisor = self._coerce(other)
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dvc = divisor.coeffs
        lead = dvc[-1]
        quo = [0] * max(0, len(rem) - len(dvc) + 1)
        while len(rem) >= len(dvc):
            q, r = divmod(rem[-1], lead)
            if r != 0:
                raise ValueError(
                    f"non-exact integer division: leading coefficient {rem[-1]} "
                    f"not divisible by {lead}"
                )
            pos = len(rem) - len(dvc)
            quo[pos] = q
            for i, c in enumerate(dvc):
                rem[pos + i] -= q * c
            if rem[-1]:
                raise VerificationError(f"elimination left leading coefficient {rem[-1]}")
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return IntPolynomial(quo), IntPolynomial(rem)

    def exact_div(self, other) -> "IntPolynomial":
        """Divide, raising VerificationError unless the division leaves no
        remainder."""
        quo, rem = divmod(self, other)
        if rem:
            raise VerificationError(f"polynomial division left remainder {rem!r}")
        return quo

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = VARIABLE if e == 1 else f"{VARIABLE}^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"
