"""The integer lattice layer: the HNF solver against brute-force
enumeration, the quotient invariants against determinantal divisors, and
the simple (co)root coordinates stored on every root datum."""
import itertools
import random

import pytest

import satake.root_datum as rdm
from satake import catalog
from satake.lattices import lattice_quotient_invariants

from oracles import lattice_quotient_oracle

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


def random_column_sets(seed, count):
    """Integer column sets in Z^rank, rank <= 5, zero to rank + 1 columns;
    one in three has a column that is a combination of two others, so
    rank-deficient spans are met too."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 5)
        cols = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 1))]
        if len(cols) >= 2 and rng.randrange(3) == 0:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            cols[-1] = tuple(a * x + b * y for x, y in zip(cols[0], cols[1]))
        yield cols, rank


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quotient_invariants_match_determinantal_divisors(seed):
    torsion = deficient = 0
    for cols, rank in random_column_sets(seed, 400):
        expected = lattice_quotient_oracle(cols, rank)
        assert lattice_quotient_invariants(cols, rank) == expected, (cols, rank)
        torsion += expected[1] > 1
        deficient += expected[0] > max(rank - len(cols), 0)
    assert torsion > 0 and deficient > 0


@pytest.mark.parametrize("cols, rank, expected", [
    ([], 3, (3, 1)),
    ([(0, 0)], 2, (2, 1)),
    ([(2, 0), (0, 2)], 2, (0, 4)),
    ([(2, 4), (1, 2)], 2, (1, 1)),
    ([(2, 0, 0), (0, 6, 0)], 3, (1, 12)),
])
def test_quotient_invariants_known_values(cols, rank, expected):
    assert lattice_quotient_invariants(cols, rank) == expected
    assert lattice_quotient_oracle(cols, rank) == expected


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
