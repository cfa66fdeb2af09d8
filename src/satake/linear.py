"""Free modules with indexed bases over the Laurent polynomial ring.

A ``LinComb`` is a finitely supported map from hashable basis keys to
``LaurentPoly`` scalars.  Zero scalars are never stored, so equality is
key-wise exact equality.

Build sums by passing a term stream to a constructor, never by a loop
of ``+``: a sum is one ``LinComb`` call over ``(key, scalar)`` pairs, and
a sum of products (every bilinear product) one ``LinComb.of_products``
call over ``(key, p, r, n)`` terms for ``n * p * r``, which
``laurent.add_product`` adds into one integer dict per key.  Either way a
key's polynomial is built once, when the stream ends.
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable

from .laurent import ONE, LaurentPoly, add_product


class LinComb:
    """Finitely supported linear combination of basis keys.

    The constructor takes an iterable of ``(key, scalar)`` pairs and sums
    the scalars of repeated keys."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[tuple[Hashable, LaurentPoly]] = ()):
        # a value is the key's only scalar so far, or the dict of its sum
        acc: dict = {}
        for k, p in coeffs:
            if not isinstance(p, LaurentPoly):
                raise TypeError("scalars must be LaurentPoly")
            prev = acc.get(k)
            if prev is None:
                acc[k] = p
                continue
            if type(prev) is not dict:
                prev = acc[k] = dict(prev.terms)
            for e, c in p.terms:
                prev[e] = prev.get(e, 0) + c
        out = {}
        for k, v in acc.items():
            p = LaurentPoly.of_dict(v) if type(v) is dict else v
            if p:
                out[k] = p
        object.__setattr__(self, "_coeffs", out)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @classmethod
    def _canonical(cls, coeffs: dict) -> "LinComb":
        """Wrap a dict of distinct keys to nonzero LaurentPoly scalars
        without summing or checking it; the dict is taken, not copied."""
        x = object.__new__(cls)
        object.__setattr__(x, "_coeffs", coeffs)
        return x

    @classmethod
    def of_products(cls, terms: Iterable[tuple[Hashable, LaurentPoly, LaurentPoly, int]]) -> "LinComb":
        """The sum of n * p * r * key over ``(key, p, r, n)`` terms, int n."""
        acc: dict = {}
        for k, p, r, n in terms:
            add_product(acc.setdefault(k, {}), p.terms, r.terms, n)
        return cls((k, LaurentPoly.of_dict(v)) for k, v in acc.items())

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def unit(cls, key: Hashable, scalar: LaurentPoly | None = None) -> "LinComb":
        """scalar * key, wrapped without summing; zero if the scalar is."""
        if scalar is None:
            scalar = ONE
        elif not isinstance(scalar, LaurentPoly):
            raise TypeError("scalars must be LaurentPoly")
        return cls._canonical({key: scalar} if scalar else {})

    def coefficient(self, key: Hashable) -> LaurentPoly:
        return self._coeffs.get(key, LaurentPoly.zero())

    def items(self):
        return self._coeffs.items()

    def keys(self):
        return self._coeffs.keys()

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self._coeffs.items(), other._coeffs.items()))

    def __neg__(self) -> "LinComb":
        return LinComb((k, -p) for k, p in self._coeffs.items())

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, scalar: LaurentPoly) -> "LinComb":
        return LinComb((k, p * scalar) for k, p in self._coeffs.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def render(self, key_str: Callable[[Hashable], str] = str,
               order: Callable[[Hashable], object] | None = None) -> str:
        """Terms joined by `` + ``, sorted by ``order`` (default: by key text)."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs, key=order or key_str):
            p = self._coeffs[k]
            s = str(p)
            if " " in s or "-" in s[1:]:
                s = f"({s})"
            parts.append(f"{s}*{key_str(k)}" if s != "1" else key_str(k))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LinComb({self.render()})"
