"""Exact sparse Laurent polynomials in one variable q with integer coefficients.

Exponents may be negative.  All arithmetic is exact; there is no floating
point anywhere in this package.

Every coefficient product in the package is formed by ``add_product``,
into an ``{exponent: coefficient}`` dict of ints that ``of_dict`` reads.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable


class LaurentPoly:
    """A finitely supported map exponent -> nonzero integer coefficient.

    The constructor takes an iterable of ``(exponent, coefficient)``
    pairs and sums the coefficients of repeated exponents.  Instances
    are immutable and hashable.  The canonical text form lists terms in
    increasing exponent, e.g. ``3*q^-1 + 1 + 2*q^2``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for e, c in terms:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            acc[e] = acc.get(e, 0) + c
        object.__setattr__(self, "_terms", tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _canonical(cls, terms: tuple[tuple[int, int], ...]) -> "LaurentPoly":
        """Wrap terms already in canonical form (int exponents strictly
        increasing, nonzero int coefficients) without checking them."""
        p = object.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def of_dict(cls, acc: dict[int, int]) -> "LaurentPoly":
        """The polynomial of an {exponent: coefficient} dict of ints, such
        as an ``add_product`` accumulator; zero coefficients are dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "_terms", tuple(sorted(filter(itemgetter(1), acc.items()))))
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def q(cls, k: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls(((k, coeff),))

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[0][0]

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[-1][0]

    def has_nonnegative_exponents(self) -> bool:
        return all(e >= 0 for e, _ in self._terms)

    def has_nonnegative_coefficients(self) -> bool:
        return all(c >= 0 for _, c in self._terms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.of_dict(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._canonical(tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.of_dict(add_product({}, self._terms, other._terms))

    def scale(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("scale factor must be int")
        if n == 0:
            return ZERO
        return LaurentPoly._canonical(tuple((e, n * c) for e, c in self._terms))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if not isinstance(k, int):
            raise TypeError("shift must be int")
        return LaurentPoly._canonical(tuple((e + k, c) for e, c in self._terms))

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return LaurentPoly._canonical(tuple((-e, c) for e, c in reversed(self._terms)))

    def eval_at_one(self) -> int:
        return sum(c for _, c in self._terms)

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact integer long division; raises ValueError if the quotient is
        not in Z[q, q^-1].  A failure here always signals a normalization
        bug upstream, never a recoverable condition.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        (low, _), (high, lead) = divisor._terms[0], divisor._terms[-1]
        rem = dict(self._terms)
        quot = []
        for e in range(self.max_exponent() - high, self.min_exponent() - low - 1, -1):
            f, r = divmod(rem.get(e + high, 0), lead)
            if r:
                raise ValueError(f"inexact division: {self} by {divisor}")
            if f:
                quot.append((e, f))
                for de, dc in divisor._terms:
                    rem[e + de] = rem.get(e + de, 0) - f * dc
        if any(rem.values()):
            raise ValueError(f"inexact division: {self} by {divisor}")
        return LaurentPoly(quot)

    # -- comparison and rendering ------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = f"q^{e}" if e != 1 else "q"
            else:
                body = f"{mag}*q^{e}" if e != 1 else f"{mag}*q"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self._terms}


def add_product(acc: dict[int, int], p: Iterable[tuple[int, int]],
                r: Iterable[tuple[int, int]], n: int = 1, shift: int = 0) -> dict[int, int]:
    """acc += n * q^shift * p * r, for (exponent, coefficient) pairs p and
    r (r is read once per term of p) and an {exponent: coefficient} dict
    acc."""
    for e1, c1 in p:
        e1 += shift
        c1 *= n
        for e2, c2 in r:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
