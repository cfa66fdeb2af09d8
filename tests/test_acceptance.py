"""Acceptance gate: the twelve exact identities that pin down the whole
artifact, one test per criterion, each printing a single pass/fail line.

All comparisons are exact (integer / Laurent-polynomial equality); there
are no tolerances anywhere.
"""
import itertools
import random
import time

import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, LinComb, catalog
from satake.hecke import SphericalHecke, spherical_hecke
from satake.k0 import ICClass, purity_weight
from satake.laurent import ONE
from satake.rep_ring import G1RepClass
from satake.verify import dominant_pairs

import macdonald
from oracles import FreudenthalOracle, bilinear

# (group, bound on d) cells of the cross-path sweep
CROSS_PATH_CELLS = [("GL(2)", 8), ("PGL(2)", 8), ("SL(2)", 8), ("SL(3)", 8), ("Sp(4)", 8),
                    ("GL(3)", 8), ("PGL(3)", 8), ("Sp(4)*SL(2)", 6), ("GL(4)", 8), ("GL(5)", 4)]
CATALOG = ["GL(2)", "GL(3)", "SL(2)", "SL(3)", "PGL(2)", "PGL(3)", "Sp(4)", "torus(1)"]


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_iwahori_quadratic_relation(capsys):
    start = time.monotonic()
    checked = 0
    for name in ["PGL(2)", "SL(2)", "SL(3)"]:
        sph = spherical_hecke(catalog(name))
        iw = sph.iwahori
        for s in sph.W.simple_refs:
            lhs = iw.mul(iw.basis(s), iw.basis(s))
            rhs = LinComb(((s, LaurentPoly(((1, 1), (0, -1)))),
                           (sph.W.identity, LaurentPoly.q())))
            assert lhs == rhs, (name, s)
            checked += 1
    elapsed = time.monotonic() - start
    report(capsys, 1, elapsed < 1.0,
           f"T_s*T_s = (q-1)T_s + qT_e for {checked} affine simple reflections "
           f"({elapsed:.2f}s)")


def test_criterion_02_hecke_associativity(capsys):
    ok = True
    detail = ""
    for name in ["PGL(2)", "SL(2)", "SL(3)"]:
        sph = spherical_hecke(catalog(name))
        iw = sph.iwahori
        W = sph.W
        rng = random.Random(2024)
        n = len(W.simple_refs)

        def rand():
            while True:
                word = [rng.randrange(n) for _ in range(rng.randrange(10))]
                x = W.word_to_element(word)
                if W.im_length(x) <= 6:
                    return iw.basis(x)

        for t in range(200):
            x, y, z = rand(), rand(), rand()
            if iw.mul(iw.mul(x, y), z) != iw.mul(x, iw.mul(y, z)):
                ok = False
                detail = f"failure in {name} at triple {t}"
                break
    report(capsys, 2, ok,
           detail or "200 seeded random triples per group, lengths <= 6, exact")


def test_criterion_03_cross_path_equality(capsys):
    total = 0
    for name, dmax in CROSS_PATH_CELLS:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        for mu, lam in dominant_pairs(rd, dmax):
            p1 = sph.c_mul_iwahori(mu, lam)
            p2 = sph.c_mul_satake(mu, lam)
            assert p1 == p2, (name, mu, lam)
            total += 1
    cells = ", ".join(f"{name} d <= {dmax}" for name, dmax in CROSS_PATH_CELLS)
    report(capsys, 3, total > 0,
           f"both multiplication paths agree on {total} dominant pairs across {cells}")


def test_criterion_04_pgl2_symmetric_power_table(capsys):
    rd = catalog("PGL(2)")
    sph = spherical_hecke(rd)
    G = sph.g1
    std = LinComb.unit(G1RepClass((1,), -1))       # the standard 2-dim class
    det = LinComb.unit(G1RepClass((0,), -2))       # its determinant character
    sym = [G.unit(), std]
    for m in range(2, 7):
        sym.append(G.mul(sym[m - 1], std) - G.mul(sym[m - 2], det))
    for mu in range(7):
        image = sph.satake_transform(sph.ic_function((mu,)))
        assert image == G.quotient_normal_form(sym[mu]), mu
    report(capsys, 4, True,
           "satake_transform(f_IC_mu) equals the Sym^mu class (recursion "
           "Sym^m = Sym^(m-1)*V - Sym^(m-2)*det) for mu <= 6")


def test_criterion_05_kernel_relation(capsys):
    for name in CATALOG:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        zero = (0,) * rd.rank
        x = LinComb.unit(ICClass(zero, -1)) - \
            LinComb.unit(ICClass(zero, 0), LaurentPoly.q())
        assert sph.k0.trace_to_hecke(x).is_zero(), name
    report(capsys, 5, True,
           "trace(IC_0(-1) - q*IC_0) = 0 over Z[q, q^-1] in every catalog group")


def test_criterion_06_gl2_convolution(capsys):
    rd = catalog("GL(2)")
    sph = spherical_hecke(rd)
    a = ICClass((1, 0), 0)
    conv = sph.k0.convolve_ic(a, a)
    expected = LinComb(((ICClass((2, 0), 0), ONE), (ICClass((1, 1), -1), ONE)))
    assert conv == expected
    # trace identity against path-1 multiplication of the f-functions
    f = sph.k0.ic_function((1, 0))
    lhs = sph.k0.trace_to_hecke(conv)
    rhs = bilinear(f, f, sph.c_mul_iwahori)
    assert lhs == rhs
    report(capsys, 6, True,
           "IC_(1,0)^2 = IC_(2,0)(0) + IC_(1,1)(-1) and its trace matches the "
           "Iwahori-path product")


def test_criterion_07_freudenthal_specialization(capsys):
    start = time.monotonic()
    total = 0
    for name in ["SL(3)", "PGL(2)"]:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        oracle = FreudenthalOracle(rd)
        reps = rdm.dominant_reps(rd, 8)
        for mu, lam in itertools.product(reps, repeat=2):
            assert sph.k0.R.lusztig_q_analog(mu, lam).eval_at_one() == \
                oracle.multiplicity(mu, lam), (name, mu, lam)
            total += 1
    elapsed = time.monotonic() - start
    report(capsys, 7, elapsed < 60.0,
           f"q-analog at q=1 equals the Freudenthal-recursion multiplicity on "
           f"{total} dominant pairs, d <= 8 ({elapsed:.2f}s)")


def test_criterion_08_stalk_parity_positivity(capsys):
    rows = 0
    for name in CATALOG:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        for mu in rdm.dominant_reps(rd, 10):
            for row in sph.k0.parity_report(mu):
                assert row["ok"], (name, mu, row)
                rows += 1
    report(capsys, 8, rows > 0,
           f"{rows} stalk polynomials with d <= 10 are polynomials in q with "
           f"nonnegative coefficients, zero violations")


def test_criterion_09_dual_group_table(capsys):
    assert rdm.dual(catalog("PGL(2)")).name == "SL(2)"
    assert rdm.g1_description(catalog("PGL(2)")) == "GL(2)"
    assert rdm.epsilon_trivial(catalog("SL(2)"))
    assert "direct product" in rdm.g1_description(catalog("SL(2)"))
    for n in range(1, 6):
        two_rho = tuple(n - 1 - 2 * i for i in range(n))  # closed-form oracle
        assert catalog(f"GL({n})").two_rho() == two_rho
        trivial = all(x % 2 == 0 for x in two_rho)
        assert rdm.epsilon_trivial(catalog(f"GL({n})")) == trivial == (n % 2 == 1)
    report(capsys, 9, True,
           "dual(PGL(2)) = SL(2) with modified dual group GL(2); SL(2) is a "
           "direct product; GL(n) epsilon-trivial iff n odd for n <= 5")


def test_criterion_10_translation_length_law(capsys):
    total = 0
    for name in CATALOG:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        for mu in rdm.dominant_reps(rd, 10):
            assert sph.W.im_length(sph.W.translation(mu)) == rdm.d_pairing(rd, mu), \
                (name, mu)
            total += 1
    report(capsys, 10, total > 0,
           f"im_length(t_mu) = <2rho, mu> for {total} dominant mu with d <= 10 "
           f"in every catalog group")


def test_criterion_11_purity_weight_additivity(capsys):
    total = 0
    for name, dmax in CROSS_PATH_CELLS:
        rd = catalog(name)
        sph = spherical_hecke(rd)
        for mu, lam in dominant_pairs(rd, dmax):
            a, b = ICClass(mu, 0), ICClass(lam, 0)
            wsum = purity_weight(rd, a) + purity_weight(rd, b)
            for cls in sph.k0.convolve_ic(a, b).keys():
                assert purity_weight(rd, cls) == wsum, (name, mu, lam, cls)
                total += 1
    report(capsys, 11, total > 0,
           f"purity weights add on all {total} support classes of the "
           f"criterion-3 convolution sweep, zero violations")


def test_criterion_12_macdonald_formula(capsys):
    checked = 0
    for name, dmax in CROSS_PATH_CELLS:
        rd = catalog(name)
        for signed in (False, True):
            sph = SphericalHecke(rd, signed_trace=signed)
            for lam in rdm.dominant_reps(rd, dmax):
                t = sph.satake_transform(sph.c(lam))
                assert macdonald.holds(rd, lam, [(cls.mu, cls.k, p) for cls, p in t.items()],
                                       signed), (name, signed, lam)
                checked += 1
    report(capsys, 12, checked > 0,
           f"satake_transform(c_lam) satisfies Macdonald's formula for {checked} dominant "
           f"lam of the criterion-3 cells, unsigned and signed")
