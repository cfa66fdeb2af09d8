"""The stalks of GL(n) against Kostka-Foulkes polynomials counted by
charge (``kostka_foulkes``, which imports nothing from the package): the
q-analogs of weight multiplicity, the stalk polynomials, and the IC
functions under both sign conventions.  Two corrupted copies of the
library must fail the same check."""
import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from satake import catalog, verify
from satake.hecke import SphericalHecke
from satake.k0 import SatakeK0
from satake.rep_ring import RepRing, rep_ring

import kostka_foulkes as kf

# (n, largest |lam|) of GL(n)
Q_ANALOG_CELLS = [(2, 10), (3, 9), (4, 8), (5, 7), (6, 6)]
STALK_CELLS = [(2, 6), (3, 6), (4, 5)]


def pairs(n: int, size_max: int):
    """Every (lam, mu) of partitions of one size <= size_max, with at most
    n parts each; K_{lam,mu} = 0 unless mu <= lam."""
    for size in range(size_max + 1):
        shapes = kf.partitions(size, n)
        yield from ((lam, mu) for lam in shapes for mu in shapes)


def terms(poly) -> dict:
    return dict(poly.terms)


def stalk_mismatches(k0: SatakeK0, n: int, size_max: int) -> list:
    return [(lam, mu) for lam, mu in pairs(n, size_max)
            if terms(k0.stalk_polynomial(lam, mu)) != kf.stalk(lam, mu)]


def assert_imports_nothing_from_the_package(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "satake"], imported


def test_oracle_imports_nothing_from_the_package():
    assert_imports_nothing_from_the_package(kf)


@pytest.mark.parametrize("lam, mu, expected", [
    ((2, 0), (1, 1), {1: 1}),
    ((2, 1, 0), (1, 1, 1), {1: 1, 2: 1}),
    ((3, 1, 0), (2, 1, 1), {1: 1, 2: 1}),
    ((2, 2, 0, 0), (1, 1, 1, 1), {2: 1, 4: 1}),
    ((4, 0, 0, 0), (1, 1, 1, 1), {6: 1}),
    ((1, 1, 0), (2, 0, 0), {}),
])
def test_oracle_known_values(lam, mu, expected):
    """Values from Macdonald's tables (III.6): K_{(n),(1^n)} = q^(n(n-1)/2)
    and K_{(22),(1111)} = q^2 + q^4, among others."""
    assert kf.kostka_foulkes(lam, mu) == expected


@pytest.mark.parametrize("n, size_max", Q_ANALOG_CELLS)
def test_q_analogs_are_kostka_foulkes(n, size_max):
    R = rep_ring(catalog(f"GL({n})"))
    checked = 0
    for lam, mu in pairs(n, size_max):
        assert terms(R.lusztig_q_analog(lam, mu)) == kf.kostka_foulkes(lam, mu), (lam, mu)
        checked += lam != mu
    assert checked


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n, size_max", STALK_CELLS)
def test_stalks_and_ic_functions_are_charge_counts(n, size_max, signed):
    k0 = SatakeK0(catalog(f"GL({n})"), signed_trace=signed)
    assert stalk_mismatches(k0, n, size_max) == []
    for lam, mu in pairs(n, size_max):
        h = kf.stalk(lam, mu)
        if signed and kf.parity(lam):
            h = {e: -c for e, c in h.items()}
        assert terms(k0.ic_function(lam).coefficient(mu)) == h, (lam, mu)


@pytest.mark.parametrize("n, size_max", STALK_CELLS)
def test_injected_stalk_fault_fails_the_check(n, size_max):
    rd = catalog(f"GL({n})")
    sph = SphericalHecke(rd)
    assert verify.inject_stalk_fault(sph, sorted({lam for lam, _ in pairs(n, size_max)}))
    (corrupted,) = sph.k0._stalk_perturbation
    assert stalk_mismatches(sph.k0, n, size_max) == [corrupted]


def strict_prune_walk():
    """RepRing._q_analog_walk with its prune c_i >= p/2 made strict, so
    the w whose coordinate would reach 0 are dropped."""
    source = textwrap.dedent(inspect.getsource(RepRing._q_analog_walk))
    assert source.count("if c[i] >= p // 2") == 1
    namespace = {}
    exec(source.replace("if c[i] >= p // 2", "if c[i] > p // 2"),
         vars(inspect.getmodule(RepRing)), namespace)
    return namespace["_q_analog_walk"]


# in rank one the coordinate never reaches 0 on a dominant pair, as
# lam + rho_hat = s(mu + rho_hat) is not dominant, so GL(2) is left out
@pytest.mark.parametrize("n, size_max", STALK_CELLS[1:])
def test_strict_prune_fails_the_check(monkeypatch, n, size_max):
    monkeypatch.setattr(RepRing, "_q_analog_walk", strict_prune_walk())
    rd = catalog(f"GL({n})")
    k0 = SatakeK0(rd)
    k0.R = RepRing(rd)
    assert stalk_mismatches(k0, n, size_max)
