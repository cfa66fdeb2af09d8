"""Exact Laurent polynomial arithmetic: ring axioms, the bar involution,
exact division, and the canonical text/JSON forms."""
import pytest
from hypothesis import given, strategies as st

from satake import LaurentPoly
from satake.laurent import add_product

polys = st.dictionaries(st.integers(-10, 10), st.integers(-10**6, 10**6), max_size=6).map(
    lambda d: LaurentPoly(d.items()))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def P(*terms):
    return LaurentPoly(terms)


class TestBasics:
    def test_zero_one(self):
        assert LaurentPoly.zero().is_zero()
        assert LaurentPoly.one() == P((0, 1))
        assert not LaurentPoly.one().is_zero()

    def test_zero_coefficients_dropped(self):
        assert P((3, 1), (3, -1)) == LaurentPoly.zero()

    def test_product_difference_of_squares(self):
        q = LaurentPoly.q()
        one = LaurentPoly.one()
        assert (q - one) * (q + one) == P((2, 1), (0, -1))

    def test_eval_at_one(self):
        assert P((2, 1), (0, -1)).eval_at_one() == 0
        assert P((-3, 5), (1, 7)).eval_at_one() == 12

    def test_bar_example(self):
        assert P((1, 1), (2, 1)).bar() == P((-1, 1), (-2, 1))

    def test_shift_and_scale(self):
        p = P((0, 2), (1, 3))
        assert p.shift(-2) == P((-2, 2), (-1, 3))
        assert p.scale(-1) == -p

    def test_min_max_exponent(self):
        p = P((-2, 1), (5, -3))
        assert p.min_exponent() == -2
        assert p.max_exponent() == 5
        with pytest.raises(ValueError):
            LaurentPoly.zero().min_exponent()

    def test_positivity_predicates(self):
        assert P((0, 1), (2, 3)).has_nonnegative_exponents()
        assert not P((-1, 1)).has_nonnegative_exponents()
        assert not P((0, -1)).has_nonnegative_coefficients()


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_additive_inverse(self, a):
        assert a + (-a) == LaurentPoly.zero()

    @given(polys)
    def test_unit(self, a):
        assert a * LaurentPoly.one() == a


class TestBarInvolution:
    @given(polys)
    def test_involution(self, a):
        assert a.bar().bar() == a

    @given(polys, polys)
    def test_multiplicative(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()


class TestDivexact:
    @given(polys, nonzero_polys)
    def test_poly_roundtrip(self, a, d):
        assert (a * d).divexact(d) == a

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            P((0, 1), (1, 1)).divexact(P((0, 2)))
        with pytest.raises(ValueError):
            P((2, 1)).divexact(P((0, 1), (1, 1)))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P((0, 1)).divexact(LaurentPoly.zero())

    def test_laurent_unit_division(self):
        p = P((-1, 3), (2, 5))
        assert p.divexact(LaurentPoly.q(-1, 1)) == p.shift(1)


class TestRendering:
    def test_canonical_text(self):
        assert str(P((-1, 3), (0, 1), (2, 2))) == "3*q^-1 + 1 + 2*q^2"
        assert str(P((1, 1), (0, -1))) == "-1 + q"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.q()) == "q"

    @given(polys)
    def test_json_roundtrip(self, a):
        assert LaurentPoly((int(e), c) for e, c in a.to_json().items()) == a


class TestCanonicalResults:
    """The arithmetic builds its results without the public constructor;
    each must be exactly what the constructor builds from its terms."""

    @given(polys, polys, st.integers(-10, 10))
    def test_operations_match_the_public_constructor(self, a, b, n):
        cases = [
            (a.shift(n), [(e + n, c) for e, c in a.terms]),
            (a.scale(n), [(e, n * c) for e, c in a.terms]),
            (a.bar(), [(-e, c) for e, c in a.terms]),
            (-a, [(e, -c) for e, c in a.terms]),
            (a * b, [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]),
            (a + b, list(a.terms) + list(b.terms)),
            (LaurentPoly.of_dict(add_product({}, a.terms, b.terms, n, -n)),
             [(e1 + e2 - n, n * c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]),
        ]
        for got, terms in cases:
            expected = LaurentPoly(terms)
            assert got == expected and hash(got) == hash(expected)
            assert got.terms == LaurentPoly(got.terms).terms

    @given(polys)
    def test_scale_by_zero_is_zero(self, a):
        assert a.scale(0).is_zero()
        assert a.scale(0) == LaurentPoly.zero()

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_scale_and_shift_reject_non_int(self, bad):
        for p in (P((0, 2), (1, 3)), LaurentPoly.zero()):
            with pytest.raises(TypeError):
                p.scale(bad)
            with pytest.raises(TypeError):
                p.shift(bad)
