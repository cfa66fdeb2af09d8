"""The value classes: ``RootDatum``, ``FiniteWeylElement``,
``AffineWeylElement``, ``G1RepClass`` and ``ICClass``.  Each refuses
attribute assignment.  A ``FiniteWeylElement`` is equal only to itself;
the others are tuples, equal with equal hashes exactly when their fields
are equal."""
import pytest

import satake.root_datum as rdm
from satake import (AffineWeylElement, FiniteWeylGroup, G1RepClass, ICClass,
                    affine_weyl_group, catalog, dual)

from test_root_datum import CATALOG, ROW_NAMES


def instances():
    """One instance of each value class, by class name."""
    rd = catalog("GL(2)")
    W = affine_weyl_group(rd)
    return {
        "RootDatum": rd,
        "FiniteWeylElement": W.W0.elements[1],
        "AffineWeylElement": AffineWeylElement((1, 0), W.W0.elements[1]),
        "G1RepClass": G1RepClass((1, 0), 1),
        "ICClass": ICClass((1, 0), 0),
    }


@pytest.mark.parametrize("cls", sorted(instances()))
def test_assignment_is_refused(cls):
    value = instances()[cls]
    fields = getattr(value, "_fields", None) or value.__slots__
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 0


def test_finite_elements_compare_by_identity():
    rd = catalog("SL(3)")
    a, b = FiniteWeylGroup(rd), FiniteWeylGroup(rd)
    for x, y in zip(a.elements, b.elements):
        assert (x.word, x.length, x.index, x.inverted, x.rd) == \
            (y.word, y.length, y.index, y.inverted, y.rd)
        assert x == x and x != y
        assert hash(x) == object.__hash__(x)
    assert len(set(a.elements) | set(b.elements)) == 2 * len(a)


@pytest.mark.parametrize("cls", ["AffineWeylElement", "G1RepClass", "ICClass", "RootDatum"])
def test_equal_exactly_when_the_fields_are(cls):
    value = instances()[cls]
    copy = type(value)(*value)
    assert copy is not value and copy == value and hash(copy) == hash(value)
    for name in value._fields:
        changed = value._replace(**{name: None})
        assert changed != value and changed != copy, name


def test_classes_of_two_algebras_are_equal_tuples():
    """What the docstrings of both classes say: with equal fields they
    compare equal, so their keys must never share a LinComb."""
    assert ICClass((1, 0), 1) == G1RepClass((1, 0), 1) == ((1, 0), 1)


@pytest.mark.parametrize("name", CATALOG + ROW_NAMES)
def test_catalog_data_are_equal_with_equal_hashes(name):
    built = rdm.catalog.__wrapped__(name)  # past catalog's cache
    rd = catalog(name)
    assert built is not rd and built == rd and hash(built) == hash(rd)
    assert rdm.epsilon_trivial(built) == rdm.epsilon_trivial(rd)
    assert dual(built) == dual(rd) and hash(dual(built)) == hash(dual(rd))
    assert dual(dual(rd)) == rd and hash(dual(dual(rd))) == hash(rd)


def test_reprs_are_unchanged():
    reprs = {cls: repr(value) for cls, value in instances().items()}
    assert reprs == {
        "RootDatum": "RootDatum(GL(2))",
        "FiniteWeylElement": "w[0]",
        "AffineWeylElement": "t[1, 0]*w[0]",
        "G1RepClass": "V[1,0;1]",
        "ICClass": "IC[1,0](0)",
    }
