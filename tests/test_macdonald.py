"""The Satake transform against Macdonald's formula (``macdonald``, which
reads from the package only the root datum, W_0 and ``LaurentPoly``), a
third derivation beside the Iwahori and dual paths, in both sign
conventions.  The ``--inject-fault`` stalk perturbation must fail it."""
import ast
import time
from pathlib import Path

import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, catalog, verify
from satake.hecke import SphericalHecke

import macdonald as mac
from test_acceptance import CROSS_PATH_CELLS

CELLS = CROSS_PATH_CELLS + [("SO(5)", 8)]


def failing_weights(sph: SphericalHecke, bound: int, signed: bool) -> tuple[list, int]:
    """The dominant lam with d(lam) <= bound whose transform of c_lam
    breaks Macdonald's formula, and how many were checked."""
    reps = rdm.dominant_reps(sph.rd, bound)
    bad = []
    for lam in reps:
        t = sph.satake_transform(sph.c(lam))
        if not mac.holds(sph.rd, lam, [(cls.mu, cls.k, p) for cls, p in t.items()], signed):
            bad.append(lam)
    return bad, len(reps)


def test_oracle_imports_only_root_datum_weyl_and_laurent():
    tree = ast.parse(Path(mac.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    from_package = {m for m in imported if m.split(".")[0] == "satake"}
    assert from_package and from_package <= {"satake.root_datum", "satake.weyl", "satake.laurent"}, \
        sorted(from_package)


@pytest.mark.parametrize("v, expected", [
    ((3, -1), (1, (3, -1))),
    ((-1, 3), (-1, (3, -1))),
    ((1, 1), None),
])
def test_straighten_in_gl2(v, expected):
    assert mac.straighten(catalog("GL(2)"), v) == expected


@pytest.mark.parametrize("lam, expected", [
    # q^(1/2) (x1 + x2): the chamber monomial x^(lam + rho^) = x^(3/2, -1/2)
    ((1, 0), {(3, -1): LaurentPoly.q(1)}),
    # q (x1^2 + x2^2) + (q - 1) x1 x2 = q chi_(2,0) - chi_(1,1)
    ((2, 0), {(5, -1): LaurentPoly.q(2), (3, 1): LaurentPoly.q(0, -1)}),
    # (1 + q^-1) det: the stabiliser is all of W_0
    ((1, 1), {(3, 1): LaurentPoly(((0, 1), (-2, 1)))}),
])
def test_right_side_in_gl2(lam, expected):
    assert mac.alternating_side(catalog("GL(2)"), lam) == expected


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("name, bound", CELLS)
def test_transform_satisfies_macdonald(name, bound, signed):
    start = time.perf_counter()
    bad, checked = failing_weights(SphericalHecke(catalog(name), signed_trace=signed), bound, signed)
    assert bad == [] and checked > 0
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("name, bound", CELLS)
def test_injected_stalk_fault_fails_it(name, bound):
    """Every cell with a stalk to corrupt fails; GL(5) b4 has only
    minuscule weights, so its transform reads no stalk below the top."""
    sph = SphericalHecke(catalog(name))
    if not verify.inject_stalk_fault(sph, rdm.dominant_reps(sph.rd, bound)):
        assert name == "GL(5)"
        return
    assert failing_weights(sph, bound, signed=False)[0]
