"""Free-module combinations with Laurent scalars: linearity contracts,
merging of repeated keys, sums of products, and the bilinear extension
of key-level products that the tests use as a reference."""
import pytest
from hypothesis import given, strategies as st

from satake import LaurentPoly, LinComb

from oracles import bilinear

polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(
    lambda d: LaurentPoly(d.items()))


def C(n):
    return LaurentPoly(((0, n),))


def test_zero_scalars_dropped():
    x = LinComb((("a", C(1)), ("a", C(-1))))
    assert x.is_zero()
    assert x == LinComb.zero()


@given(st.lists(st.tuples(st.sampled_from("abc"), polys), max_size=12))
def test_repeated_keys_sum_like_addition(pairs):
    x = LinComb(pairs)
    for key in "abc":
        total = LaurentPoly.zero()
        for k, p in pairs:
            if k == key:
                total = total + p
        assert x.coefficient(key) == total
        assert x.coefficient(key).terms == LaurentPoly(total.terms).terms
    assert set(x.keys()) == {k for k, _ in pairs if x.coefficient(k)}


def test_non_laurent_scalar_rejected():
    for pairs in ((("a", 1),), (("a", C(1)), ("a", 1)), (("a", C(1)), ("a", C(2)), ("a", 1))):
        with pytest.raises(TypeError):
            LinComb(pairs)


@given(polys)
def test_unit_matches_the_summing_constructor(p):
    """``unit`` wraps its one term directly: the same LinComb as the
    constructor's, the zero one for a zero scalar."""
    assert LinComb.unit("a", p) == LinComb((("a", p),))
    assert LinComb.unit("a", p).is_zero() == p.is_zero()
    assert LinComb.unit("a") == LinComb((("a", LaurentPoly.one()),))
    with pytest.raises(TypeError):
        LinComb.unit("a", 1)


def test_add_identity():
    x = LinComb((("a", C(2)), ("b", LaurentPoly.q())))
    assert x + LinComb.zero() == x
    assert x - x == LinComb.zero()


def test_coefficient_and_support():
    x = LinComb((("a", C(2)), ("b", C(3))))
    assert x.coefficient("a") == C(2)
    assert x.coefficient("missing") == LaurentPoly.zero()
    assert set(x.keys()) == {"a", "b"}
    assert len(x) == 2


def test_scale():
    x = LinComb((("a", C(2)),))
    assert x.scale(LaurentPoly.q()) == LinComb.unit("a", LaurentPoly.q(1, 2))


@given(st.lists(st.tuples(st.sampled_from("abc"), polys, polys, st.integers(-3, 3)), max_size=10))
def test_of_products_sums_scaled_products(terms):
    x = LinComb.of_products(terms)
    assert x == LinComb((k, (p * r).scale(n)) for k, p, r, n in terms)
    assert all(not p.is_zero() for _, p in x.items())
    # every term cancelled by its negative: nothing is stored
    cancelled = LinComb.of_products(terms + [(k, p, r, -n) for k, p, r, n in terms])
    assert cancelled.is_zero()


def test_bilinear_unit_key():
    x = LinComb((("a", C(2)), ("b", C(5))))

    def key_mul(k1, k2):
        return LinComb.unit(k1)  # right factor acts as a unit

    assert bilinear(x, LinComb.unit("e"), key_mul) == x


def test_bilinear_structure_constants():
    x = LinComb.unit("k1", C(2))
    y = LinComb.unit("k2", C(3))

    def key_mul(k1, k2):
        assert (k1, k2) == ("k1", "k2")
        return LinComb.unit("k3")

    assert bilinear(x, y, key_mul) == LinComb.unit("k3", C(6))


def test_bilinear_distributes():
    x = LinComb((("a", C(1)), ("b", C(1))))

    def key_mul(k1, k2):
        return LinComb.unit(k1 + k2)

    prod = bilinear(x, x, key_mul)
    assert prod == LinComb((("aa", C(1)), ("ab", C(1)), ("ba", C(1)), ("bb", C(1))))


def test_render():
    x = LinComb((("b", C(2)), ("a", LaurentPoly.one())))
    assert x.render() == "a + 2*b"
    assert LinComb.zero().render() == "0"
