"""The integer lattice layer: the HNF solver against brute-force
enumeration, the Bareiss determinant against the Leibniz expansion, and
the simple (co)root coordinates stored on every root datum."""
import itertools
import random

import pytest

import satake.root_datum as rdm
from satake import catalog
from satake.lattices import int_det

from oracles import leibniz_det

GROUPS = ["GL(2)", "GL(3)", "SL(2)", "SL(3)", "PGL(2)", "PGL(3)", "Sp(4)", "SO(5)",
          "torus(1)", "Sp(4)*SL(2)"]


def combination(coeffs, basis, rank):
    return tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(rank))


@pytest.mark.parametrize("name", GROUPS)
def test_coroot_solver_matches_enumeration(name):
    rd = catalog(name)
    basis = rd.simple_coroots
    # every member of the target box has coordinates of size at most
    # 2 * TARGET in these bases, so the coefficient box finds them all
    target, coeff = 3, 6
    members = {combination(c, basis, rd.rank): c
               for c in itertools.product(range(-coeff, coeff + 1), repeat=len(basis))}
    seen = {True: 0, False: 0}
    for v in itertools.product(range(-target, target + 1), repeat=rd.rank):
        x = rdm.coroot_coords(rd, v)
        seen[x is not None] += 1
        if v in members:
            assert x == members[v]
        else:
            assert x is None
    assert seen[True] > 0
    if len(basis) < rd.rank or name.startswith(("PGL", "SO")):
        # a rank-deficient or proper sublattice: some vectors are not members
        assert seen[False] > 0


def test_coroot_solver_decides_dominance():
    rd = catalog("PGL(2)")
    assert rdm.coroot_coords(rd, (1,)) is None
    assert rdm.coroot_coords(rd, (4,)) == (2,)
    assert not rdm.dominance_leq(rd, (0,), (1,))
    assert rdm.dominance_leq(rd, (0,), (2,))


def random_matrices(seed):
    rng = random.Random(seed)
    for n in range(1, 5):
        for _ in range(25):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            yield m
            if n > 1:
                # a singular matrix: one row a combination of two others
                s = [row[:] for row in m]
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                s[-1] = [a * x + b * y for x, y in zip(s[0], s[n // 2])]
                yield s
    # zero pivots that force a row swap, and a zero column
    yield [[0, 1], [1, 0]]
    yield [[0, 0, 1], [0, 2, 3], [4, 5, 6]]
    yield [[0, 1, 2], [0, 3, 4], [0, 5, 6]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_int_det_matches_leibniz(seed):
    singular = 0
    for m in random_matrices(seed):
        expected = leibniz_det(m)
        assert int_det(m) == expected, m
        singular += expected == 0
    assert singular > 0
    assert int_det([]) == 1


@pytest.mark.parametrize("name", GROUPS)
def test_stored_coordinates_reconstruct_positive_system(name):
    rd = catalog(name)
    assert len(rd.positive_root_coords) == len(rd.positive_roots)
    assert len(rd.positive_coroot_coords) == len(rd.positive_coroots)
    for beta, c in zip(rd.positive_roots, rd.positive_root_coords):
        assert combination(c, rd.simple_roots, rd.rank) == beta
        assert all(x >= 0 for x in c)
    for bv, c in zip(rd.positive_coroots, rd.positive_coroot_coords):
        assert combination(c, rd.simple_coroots, rd.rank) == bv
        assert all(x >= 0 for x in c)


@pytest.mark.parametrize("name, roots, coroots", [
    # Sp(4): the short root e1 + e2 = a0 + a1 has coroot a0^ + 2 a1^, the
    # long root 2 e1 = 2 a0 + a1 has coroot e1 = a0^ + a1^
    ("Sp(4)", {(0, 2): (0, 1), (1, -1): (1, 0), (1, 1): (1, 1), (2, 0): (2, 1)},
     {(0, 1): (0, 1), (1, -1): (1, 0), (1, 1): (1, 2), (1, 0): (1, 1)}),
    ("SO(5)", {(0, 1): (0, 1), (1, -1): (1, 0), (1, 0): (1, 1), (1, 1): (1, 2)},
     {(0, 2): (0, 1), (1, -1): (1, 0), (2, 0): (2, 1), (1, 1): (1, 1)}),
])
def test_root_and_coroot_coordinates_differ_when_not_simply_laced(name, roots, coroots):
    rd = catalog(name)
    assert dict(zip(rd.positive_roots, rd.positive_root_coords)) == roots
    assert dict(zip(rd.positive_coroots, rd.positive_coroot_coords)) == coroots
