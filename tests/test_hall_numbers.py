"""The spherical Hecke algebra of GL(n) against Hall numbers counted in
finite abelian p-groups (``hall_numbers``, which imports nothing from the
package): the coefficient of c_lam in c_mu c_nu, at q = p, is the number
of subgroups N of M_lam with N ~ M_nu and M_lam / N ~ M_mu, on both the
Iwahori path and the dual path.  The ``--inject-fault`` stalk
perturbation must fail the dual path here and leave the Iwahori path
alone."""
import time
from fractions import Fraction

import pytest

from satake import LaurentPoly, catalog
from satake.hecke import SphericalHecke

import hall_numbers as hn
from kostka_foulkes import partitions
from test_kostka_foulkes import assert_imports_nothing_from_the_package

# (n, p, largest |lam|) of GL(n)
CELLS = [(2, 2, 6), (3, 2, 5), (4, 2, 5), (2, 3, 4), (3, 3, 4)]
PATHS = ["c_mul_iwahori", "c_mul_satake"]


def at(poly: LaurentPoly, p: int) -> Fraction:
    return sum((c * Fraction(p) ** e for e, c in poly.terms), Fraction(0))


def mismatches(sph: SphericalHecke, path: str, n: int, p: int, size_max: int):
    """The (mu, nu, lam) whose coefficient of c_lam in c_mu c_nu at q = p
    is not the Hall number, over every mu, nu with |mu| + |nu| <= size_max
    and every lam of that size or in the product; and how many were
    checked."""
    mul = getattr(sph, path)
    bad, checked = [], 0
    for size in range(size_max + 1):
        shapes = partitions(size, n)
        for k in range(size + 1):
            for mu in partitions(k, n):
                for nu in partitions(size - k, n):
                    product = mul(mu, nu)
                    for lam in set(shapes) | set(product.keys()):
                        expected = hn.hall_numbers(lam, p).get((mu, nu), 0) if lam in shapes else 0
                        checked += 1
                        if at(product.coefficient(lam), p) != expected:
                            bad.append((mu, nu, lam))
    return bad, checked


def test_oracle_imports_nothing_from_the_package():
    assert_imports_nothing_from_the_package(hn)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("lam, mu, nu, value", [
    # the subgroups of order p in (Z/p)^2, p + 1 lines
    ((1, 1), (1, 0), (1, 0), lambda p: p + 1),
    ((2, 0), (1, 0), (1, 0), lambda p: 1),
    # the p cyclic subgroups of order p^2 in Z/p^2 + Z/p, and the p of
    # order p with a cyclic quotient
    ((2, 1), (1, 0), (2, 0), lambda p: p),
    ((2, 1), (2, 0), (1, 0), lambda p: p),
    ((2, 1), (1, 1), (1, 0), lambda p: 1),
    # the planes in (Z/p)^3, a Gaussian binomial
    ((1, 1, 1), (1, 0, 0), (1, 1, 0), lambda p: p * p + p + 1),
    ((1, 1, 1), (2, 1, 0), (0, 0, 0), lambda p: 0),
])
def test_oracle_known_values(lam, mu, nu, value, p):
    assert hn.hall_numbers(lam, p).get((mu, nu), 0) == value(p)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n, p, size_max", CELLS)
def test_products_are_hall_numbers(n, p, size_max, path):
    start = time.perf_counter()
    bad, checked = mismatches(SphericalHecke(catalog(f"GL({n})")), path, n, p, size_max)
    assert bad == [] and checked > 0
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n, p, size_max", CELLS)
def test_injected_stalk_fault_fails_the_dual_path_only(n, p, size_max):
    """The ``--inject-fault`` perturbation, +q on the stalk of IC_(2,0,..)
    at (1,1,..), corrupts c_mul_satake and not c_mul_iwahori."""
    sph = SphericalHecke(catalog(f"GL({n})"))
    two, one_one = (2,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)
    sph.k0._stalk_perturbation = {(two, one_one): LaurentPoly.q()}
    assert mismatches(sph, "c_mul_iwahori", n, p, size_max)[0] == []
    assert mismatches(sph, "c_mul_satake", n, p, size_max)[0]
