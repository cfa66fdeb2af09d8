"""Grothendieck-group convolution of twisted intersection-motive classes:
twist rule, purity bookkeeping, stalk polynomials, and the trace map."""
import itertools
import random
from collections import Counter

import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, LinComb, SphericalHecke, catalog, g1_class, g1_ring
from satake.k0 import ICClass, K0Error, SatakeK0, ic_class, purity_weight
from satake.laurent import ONE
from satake.rep_ring import RepRing
from satake.verify import suite_parity

from oracles import bilinear, weyl_dim


def P(*terms):
    return LaurentPoly(terms)


class TestPurityWeight:
    def test_examples(self):
        rd = catalog("GL(2)")
        assert purity_weight(rd, ICClass((0, 0), 0)) == 0
        assert purity_weight(rd, ICClass((0, 0), -1)) == 2
        for mu in rdm.dominant_reps(rd, 6):
            assert purity_weight(rd, ICClass(mu, 0)) == rdm.d_pairing(rd, mu)

    def test_parity_matches_mu(self):
        rd = catalog("Sp(4)")
        for mu in rdm.dominant_reps(rd, 6):
            for n in (-1, 0, 3):
                assert purity_weight(rd, ICClass(mu, n)) % 2 == rdm.parity(rd, mu)


class TestConvolution:
    def test_unit(self):
        rd = catalog("SL(3)")
        k0 = SatakeK0(rd)
        for mu in rdm.dominant_reps(rd, 4):
            x = k0.element(mu, 1)
            assert k0.convolve(k0.unit(), x) == x
            assert k0.convolve(x, k0.unit()) == x

    def test_skyscraper(self):
        rd = catalog("GL(2)")
        k0 = SatakeK0(rd)
        for mu in rdm.dominant_reps(rd, 4):
            for m, n in [(0, 0), (1, -2), (-1, 3)]:
                lhs = k0.convolve_ic(ICClass((0, 0), m), ICClass(mu, n))
                assert lhs == LinComb.unit(ICClass(mu, m + n))

    def test_gl2_standard_square(self):
        k0 = SatakeK0(catalog("GL(2)"))
        conv = k0.convolve_ic(ICClass((1, 0), 0), ICClass((1, 0), 0))
        assert conv == LinComb(((ICClass((2, 0), 0), ONE),
                                (ICClass((1, 1), -1), ONE)))

    @pytest.mark.parametrize("name", ["GL(2)", "PGL(2)", "SL(3)", "Sp(4)"])
    def test_weight_and_parity_additive(self, name):
        rd = catalog(name)
        k0 = SatakeK0(rd)
        reps = rdm.dominant_reps(rd, 6)
        for mu, lam in itertools.product(reps, repeat=2):
            if rdm.d_pairing(rd, mu) + rdm.d_pairing(rd, lam) > 6:
                continue
            a, b = ICClass(mu, 0), ICClass(lam, -1)
            wsum = purity_weight(rd, a) + purity_weight(rd, b)
            for cls, coeff in k0.convolve_ic(a, b).items():
                assert purity_weight(rd, cls) == wsum
                assert coeff.eval_at_one() > 0

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)"])
    def test_associative_commutative(self, name):
        rd = catalog(name)
        k0 = SatakeK0(rd)
        rng = random.Random(19)
        reps = rdm.dominant_reps(rd, 4)
        for _ in range(10):
            x, y, z = (k0.element(rng.choice(reps), rng.randrange(-1, 2)) for _ in range(3))
            assert k0.convolve(x, y) == k0.convolve(y, x)
            assert k0.convolve(k0.convolve(x, y), z) == k0.convolve(x, k0.convolve(y, z))

    def test_fiber_dimension_rule(self):
        rd = catalog("Sp(4)")
        k0 = SatakeK0(rd)
        R = k0.R
        reps = rdm.dominant_reps(rd, 4)
        for mu, lam in itertools.product(reps, repeat=2):
            conv = k0.convolve_ic(ICClass(mu, 0), ICClass(lam, 0))
            total = sum(p.eval_at_one() * weyl_dim(R, cls.mu) for cls, p in conv.items())
            assert total == weyl_dim(R, mu) * weyl_dim(R, lam)


class TestTracedConvolution:
    """trace_of_convolution against the trace of the K0 element that it
    never builds; the ic_expansion inputs of c_mul_satake are checked in
    test_hecke.py."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["GL(2)", "PGL(2)", "SL(3)", "Sp(4)", "Sp(4)*SL(2)"])
    def test_twisted_inputs(self, name, signed):
        rd = catalog(name)
        k0 = SatakeK0(rd, signed_trace=signed)
        rng = random.Random(37)
        reps = rdm.dominant_reps(rd, 4)

        def element():
            return LinComb((ICClass(rng.choice(reps), rng.randrange(-2, 3)),
                            P(*((rng.randrange(-2, 3), rng.choice((-2, -1, 1, 3))) for _ in range(2))))
                           for _ in range(4))

        for _ in range(8):
            x, y = element(), element()
            assert any(cls.n for cls in x.keys())
            assert k0.trace_of_convolution(x, y) == k0.trace_to_hecke(k0.convolve(x, y))

    @pytest.mark.parametrize("traced", [False, True])
    def test_odd_offset_refused(self, monkeypatch, traced):
        """A constituent whose <2rho, -> differs from the factors' sum by an
        odd number has no integral twist, in either product."""
        k0 = SatakeK0(catalog("GL(2)"))
        monkeypatch.setattr(RepRing, "tensor_decompose", lambda R, mu, lam: {(1, 0): 1})
        x = k0.element((1, 0))
        product = k0.trace_of_convolution if traced else k0.convolve
        with pytest.raises(K0Error, match="non-integral twist"):
            product(x, x)


class TestStalkPolynomials:
    def test_diagonal_is_one(self):
        for name in ["PGL(2)", "SL(3)", "Sp(4)"]:
            rd = catalog(name)
            k0 = SatakeK0(rd)
            for mu in rdm.dominant_reps(rd, 6):
                assert k0.stalk_polynomial(mu, mu) == ONE

    def test_pgl2_example(self):
        k0 = SatakeK0(catalog("PGL(2)"))
        # h_{2,0} = q^{<rho, 2>} * m(q^{-1}) = q^1 * q^{-1} = 1
        assert k0.stalk_polynomial((2,), (0,)) == ONE

    @pytest.mark.parametrize("name", ["GL(2)", "GL(3)", "SL(2)", "SL(3)",
                                      "PGL(2)", "PGL(3)", "Sp(4)", "torus(1)"])
    def test_parity_report_clean(self, name):
        rd = catalog(name)
        k0 = SatakeK0(rd)
        for mu in rdm.dominant_reps(rd, 10):
            for row in k0.parity_report(mu):
                assert row["ok"], (name, mu, row)

    def test_parity_report_diagonal_rows(self):
        k0 = SatakeK0(catalog("PGL(2)"))
        rows = {row["lam"]: row["poly"] for row in k0.parity_report((2,))}
        assert rows[(2,)] == "1"
        assert rows[(0,)] == "1"

    def test_perturbation_detected(self):
        k0 = SatakeK0(catalog("PGL(2)"))
        k0._stalk_perturbation = {((2,), (0,)): LaurentPoly.q(-1)}
        with pytest.raises(K0Error):
            k0.stalk_polynomial((2,), (0,))

    # GL(4), SO(5) and Sp(4)*PGL(2) have weights mu of odd <2rho, mu>, where
    # the signed trace negates the IC function
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["GL(3)", "GL(4)", "SO(5)", "Sp(4)*PGL(2)"])
    def test_warm_parity_report_derives_no_stalk(self, monkeypatch, name, signed):
        """Once ic_function(mu) is cached, parity_report reads its rows
        there, with the sign undone, and they are the stalks themselves."""
        rd = catalog(name)
        k0 = SatakeK0(rd, signed_trace=signed)
        reps = rdm.dominant_reps(rd, 8)
        expected = [[str(k0.stalk_polynomial(mu, lam)) for lam in rdm.dominant_below(rd, mu)]
                    for mu in reps]
        for mu in reps:
            k0.ic_function(mu)
        calls = Counter()
        stalk = SatakeK0.stalk_polynomial
        monkeypatch.setattr(SatakeK0, "stalk_polynomial",
                            lambda *a: calls.update(["stalk"]) or stalk(*a))
        reports = [k0.parity_report(mu) for mu in reps]
        assert calls == Counter()
        assert [[row["poly"] for row in rows] for rows in reports] == expected
        assert all(row["ok"] for rows in reports for row in rows)

    def test_negative_exponent_makes_one_invalid_row(self):
        """ic_function refuses a q^-1 stalk, and parity_report marks that
        row alone INVALID, as suite_parity reports."""
        sph = SphericalHecke(catalog("PGL(2)"))
        sph.k0._stalk_perturbation = {((2,), (0,)): LaurentPoly.q(-1)}
        rows = {row["lam"]: row for row in sph.k0.parity_report((2,))}
        assert [lam for lam, row in rows.items() if row["poly"] == "INVALID"] == [(0,)]
        assert not rows[(0,)]["ok"] and rows[(2,)]["ok"] and rows[(2,)]["poly"] == "1"
        name, ok, detail = suite_parity(sph, 4)
        assert not ok and "((2,), (0,))" in detail, detail


class TestTraceMap:
    def test_unit_and_twist(self):
        rd = catalog("PGL(2)")
        k0 = SatakeK0(rd)
        c0 = LinComb.unit((0,))
        assert k0.trace_to_hecke(k0.unit()) == c0
        assert k0.trace_to_hecke(k0.element((0,), -1)) == c0.scale(LaurentPoly.q())

    def test_kernel_element(self):
        for name in ["PGL(2)", "GL(2)", "SL(3)", "Sp(4)"]:
            rd = catalog(name)
            k0 = SatakeK0(rd)
            zero = (0,) * rd.rank
            x = LinComb.unit(ICClass(zero, -1)) - \
                LinComb.unit(ICClass(zero, 0), LaurentPoly.q())
            assert k0.trace_to_hecke(x).is_zero()

    @pytest.mark.parametrize("signed", [False, True])
    def test_twists_of_one_class_fold(self, signed):
        k0 = SatakeK0(catalog("PGL(2)"), signed_trace=signed)
        mu, other = (3,), (2,)
        x = LinComb(((ICClass(mu, 0), P((0, 2))), (ICClass(mu, 1), P((1, -1))),
                     (ICClass(mu, -2), P((0, 1), (3, 1))), (ICClass(other, 1), P((0, 5)))))
        expected = LinComb.zero()
        for cls, p in x.items():
            expected = expected + k0.ic_function(cls.mu).scale(LaurentPoly.q(-cls.n) * p)
        assert k0.trace_to_hecke(x) == expected
        # IC_mu(-1) and q * IC_mu(0) have the same trace
        assert k0.trace_to_hecke(LinComb(((ICClass(mu, -1), ONE),
                                          (ICClass(mu, 0), -LaurentPoly.q())))).is_zero()

    def test_unitriangular_hence_injective_on_untwisted_span(self):
        rd = catalog("SL(3)")
        k0 = SatakeK0(rd)
        for mu in rdm.dominant_reps(rd, 6):
            f = k0.ic_function(mu)
            assert f.coefficient(mu) == ONE
            for lam in f.keys():
                assert rdm.dominance_leq(rd, lam, mu)

    def test_signed_convention_flips_odd_classes(self):
        rd = catalog("PGL(2)")
        plain = SatakeK0(rd)
        signed = SatakeK0(rd, signed_trace=True)
        assert signed.ic_function((1,)) == -plain.ic_function((1,))
        assert signed.ic_function((2,)) == plain.ic_function((2,))

    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_warm_cache_still_refuses_bad_weights(self, name):
        rd = catalog(name)
        k0 = SatakeK0(rd)
        mu = max(rdm.dominant_reps(rd, 4), key=lambda v: rdm.d_pairing(rd, v))
        f = k0.ic_function(mu)
        assert k0.ic_function(list(mu)) is f
        for bad in (tuple(-c for c in mu), mu + (0,)):
            with pytest.raises(rdm.RootDatumError):
                k0.ic_function(bad)


def test_ic_class_validation():
    rd = catalog("GL(2)")
    assert ic_class(rd, (2, 0), 1) == ICClass((2, 0), 1)
    with pytest.raises(Exception):
        ic_class(rd, (0, 2), 0)


def test_repr():
    assert repr(ICClass((2, 0), -1)) == "IC[2,0](-1)"


class TestWorkCounts:
    @pytest.mark.parametrize("name", ["GL(2)", "SL(3)", "Sp(4)"])
    def test_convolve_builds_no_per_pair_combination(self, monkeypatch, name):
        """convolve equals the bilinear extension of convolve_ic, yet never
        calls convolve_ic."""
        rd = catalog(name)
        k0 = SatakeK0(rd)
        rng = random.Random(23)
        reps = rdm.dominant_reps(rd, 4)

        def element():
            return LinComb((ICClass(rng.choice(reps), rng.randrange(-1, 2)),
                            P((rng.randrange(-2, 3), rng.randrange(1, 4)))) for _ in range(3))

        cases = [(x, y, bilinear(x, y, k0.convolve_ic))
                 for x, y in ((element(), element()) for _ in range(5))]
        calls = []
        convolve_ic = SatakeK0.convolve_ic
        monkeypatch.setattr(SatakeK0, "convolve_ic",
                            lambda self, a, b: calls.append((a, b)) or convolve_ic(self, a, b))
        for x, y, expected in cases:
            assert k0.convolve(x, y) == expected
        assert calls == []

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["GL(2)", "SL(3)", "Sp(4)", "Sp(4)*SL(2)"])
    def test_sums_of_products_form_no_polynomial_product(self, monkeypatch, name, signed):
        """convolve, trace_to_hecke and G1Ring.mul add every coefficient
        product into one integer accumulator per key: on multi-term inputs
        they call neither LaurentPoly.__mul__ nor LaurentPoly.scale, and
        they equal the plain polynomial arithmetic of oracles.bilinear."""
        rd = catalog(name)
        k0 = SatakeK0(rd, signed_trace=signed)
        g1 = g1_ring(rd)
        rng = random.Random(31)
        reps = rdm.dominant_reps(rd, 4)

        def poly():
            return P(*((rng.randrange(-2, 3), rng.choice((-2, -1, 1, 3))) for _ in range(2)))

        def element(key):
            return LinComb((key(rng.choice(reps), rng.randrange(-1, 2)), poly()) for _ in range(4))

        def g1_key_mul(x, y):
            return LinComb((g1_class(rd, nu, k=x.k + y.k), LaurentPoly(((0, n),)))
                           for nu, n in k0.R.tensor_decompose(x.mu, y.mu).items())

        def trace_of_class(cls, _):
            return k0.ic_function(cls.mu).scale(LaurentPoly.q(-cls.n))

        unit = LinComb.unit(None)
        cases = []
        for _ in range(4):
            x, y = element(ICClass), element(ICClass)
            a, b = (element(lambda mu, n: g1_class(rd, mu, n=n)) for _ in range(2))
            cases += [(k0.convolve, (x, y), bilinear(x, y, k0.convolve_ic)),
                      (k0.trace_to_hecke, (x,), bilinear(x, unit, trace_of_class)),
                      (g1.mul, (a, b), bilinear(a, b, g1_key_mul))]
        assert any(len(expected) > 1 for _, _, expected in cases)
        counts = Counter()
        mul, scale = LaurentPoly.__mul__, LaurentPoly.scale
        monkeypatch.setattr(LaurentPoly, "__mul__",
                            lambda p, r: counts.update(["__mul__"]) or mul(p, r))
        monkeypatch.setattr(LaurentPoly, "scale",
                            lambda p, n: counts.update(["scale"]) or scale(p, n))
        for f, args, expected in cases:
            assert f(*args) == expected
        assert counts == Counter()

    @pytest.mark.parametrize("name", ["GL(2)", "SL(3)", "Sp(4)"])
    def test_convolve_pairs_each_factor_weight_once(self, monkeypatch, name):
        """<2rho, -> is taken once per distinct weight of a call: of the
        factor weights and of the tensor constituents, not once per pair
        or per constituent term."""
        rd = catalog(name)
        k0 = SatakeK0(rd)
        rng = random.Random(29)
        reps = rdm.dominant_reps(rd, 4)
        x, y = (LinComb((ICClass(rng.choice(reps), rng.randrange(-1, 2)), ONE) for _ in range(4))
                for _ in range(2))
        expected = k0.convolve(x, y)
        weights = {c.mu for c in itertools.chain(x.keys(), y.keys())}
        weights.update(nu for a in x.keys() for b in y.keys()
                       for nu in k0.R.tensor_decompose(a.mu, b.mu))
        calls = []
        d_pairing = rdm.d_pairing
        monkeypatch.setattr(rdm, "d_pairing", lambda rd, v: calls.append(v) or d_pairing(rd, v))
        assert k0.convolve(x, y) == expected
        assert sorted(calls) == sorted(weights)

