"""Iwahori-Hecke multiplication, the spherical algebra on the indicator
basis with its two independent multiplication paths, trace functions, and
the transform onto the twisted representation ring."""
import functools
import itertools
import random
from collections import Counter

import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, LinComb, catalog, hecke, verify, weyl
from satake.hecke import IwahoriHecke, SphericalHecke, HeckeError
from satake.k0 import ICClass, SatakeK0
from satake.laurent import ONE
from satake.rep_ring import G1RepClass, RepRing
from satake.verify import dominant_pairs
from satake.weyl import AffineWeylGroup, affine_weyl_group

from oracles import (from_finite, indicator_from_iwahori, omega_elements, orbit_oracle,
                     poincare_polynomial, projected_c_mul, spherical_double_coset, step,
                     stepwise_mul)
from test_acceptance import CROSS_PATH_CELLS
from test_weyl import CARTAN_TYPES, from_cartan, random_element


def P(*terms):
    return LaurentPoly(terms)


class TestIwahori:
    @pytest.mark.parametrize("name", ["PGL(2)", "SL(2)", "SL(3)"])
    def test_quadratic_relation(self, name):
        rd = catalog(name)
        iw = IwahoriHecke(rd)
        for s in iw.W.simple_refs:
            lhs = iw.mul(iw.basis(s), iw.basis(s))
            rhs = LinComb(((s, P((1, 1), (0, -1))), (iw.W.identity, LaurentPoly.q())))
            assert lhs == rhs

    def test_unit(self):
        rd = catalog("SL(3)")
        iw = IwahoriHecke(rd)
        rng = random.Random(23)
        for _ in range(10):
            x = iw.basis(random_element(iw.W, rng))
            assert iw.mul(iw.unit(), x) == x
            assert iw.mul(x, iw.unit()) == x

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "Sp(4)"])
    def test_lengths_add_gives_basis_element(self, name):
        rd = catalog(name)
        iw = IwahoriHecke(rd)
        W = iw.W
        rng = random.Random(29)
        for _ in range(20):
            x = random_element(W, rng)
            omega, word = W.reduced_word(x)
            cut = rng.randrange(len(word) + 1)
            v = W.mul(omega, W.word_to_element(word[:cut]))
            w = W.word_to_element(word[cut:])
            assert W.im_length(v) + W.im_length(w) == W.im_length(x)
            assert iw.mul(iw.basis(v), iw.basis(w)) == iw.basis(x)

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(2)", "SL(3)"])
    def test_associativity_random(self, name):
        rd = catalog(name)
        iw = IwahoriHecke(rd)
        rng = random.Random(31)
        for _ in range(50):
            x, y, z = (iw.basis(random_element(iw.W, rng)) for _ in range(3))
            assert iw.mul(iw.mul(x, y), z) == iw.mul(x, iw.mul(y, z))

    def test_specializes_to_group_algebra(self):
        rd = catalog("SL(3)")
        iw = IwahoriHecke(rd)
        rng = random.Random(37)
        for _ in range(20):
            x = random_element(iw.W, rng)
            y = random_element(iw.W, rng)
            prod = iw.mul(iw.basis(x), iw.basis(y))
            at_one = {k: p.eval_at_one() for k, p in prod.items() if p.eval_at_one()}
            assert at_one == {iw.W.mul(x, y): 1}

    def test_length_bound(self, monkeypatch):
        """The bound is read at call time, and a right factor's length is
        that of its memoised word: with the words of a key of length >= 10
        and of a simple reflection already stored, lowering the bound to 4
        refuses the product in either order before any of it is formed
        (``add_product`` is then not callable), adding no row to the
        translation table and no entry to the word memo."""
        rd = catalog("PGL(2)")
        iw = IwahoriHecke(rd)
        W = iw.W = AffineWeylGroup(rd)
        x = W.translation((10,))
        big, small = iw.basis(x), iw.basis(W.simple_refs[0])
        assert len(W.reduced_word(x)[1]) >= 10
        assert W.reduced_word(W.simple_refs[0])[1] == (0,)
        rows, words = len(W._lams), dict(W._words)
        monkeypatch.setattr(hecke, "MAX_KEY_LENGTH", 4)
        monkeypatch.setattr(hecke, "add_product", None)
        for a, b in ((big, big), (small, big), (big, small)):
            with pytest.raises(hecke.KeyLengthError):
                iw.mul(a, b)
        assert len(W._lams) == rows and W._words == words


ORACLE_GROUPS = ["PGL(2)", "GL(3)", "SO(5)", "Sp(4)*SL(2)", "GL(4)", "G2", "B3"]


def random_comb(W, rng, terms, max_length=5):
    """A seeded LinComb of up to ``terms`` keys with Laurent coefficients."""
    return LinComb((random_element(W, rng, max_length),
                    P((rng.randrange(-2, 3), rng.choice((-3, -1, 1, 2))), (3, rng.randrange(2))))
                   for _ in range(terms))


def oracle_datum(name):
    return from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)


class TestStepwiseOracle:
    """IwahoriHecke.mul, on integer keys into one accumulator, against the
    oracle's per-letter LinComb route with lengths measured at each step;
    and word_to_element against the affine product, neither of which
    reads the move table."""

    @pytest.fixture(params=ORACLE_GROUPS)
    def iw(self, request):
        return IwahoriHecke(oracle_datum(request.param))

    @pytest.mark.parametrize("name", ORACLE_GROUPS + ["GL(6)"])
    def test_word_to_element_is_the_fold_of_mul(self, name):
        """The left fold of W.mul over W.simple_refs[i], on words that
        each hold an affine letter."""
        W = affine_weyl_group(oracle_datum(name))
        n, total = len(W.W0.generators), len(W.simple_refs)
        assert total > n
        rng = random.Random(71)
        for size in (1, 2, 3, 6, 12, 24):
            for _ in range(12):
                word = [rng.randrange(total) for _ in range(size)]
                word[rng.randrange(size)] = rng.randrange(n, total)
                expected = functools.reduce(W.mul, (W.simple_refs[i] for i in word), W.identity)
                assert W.word_to_element(word) == expected, (name, word)

    def test_random_products(self, iw):
        rng = random.Random(59)
        for _ in range(8):
            a = random_comb(iw.W, rng, rng.randrange(2, 6))
            b = random_comb(iw.W, rng, rng.randrange(1, 4))
            assert len(a) > 1
            assert iw.mul(a, b) == stepwise_mul(iw, a, b), (a, b)

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(3)", "GL(4)"])
    def test_right_factors_with_length_zero_part(self, name):
        iw = IwahoriHecke(catalog(name))
        W = iw.W
        rng = random.Random(61)
        omegas = [x for x in omega_elements(W, box=1) if x != W.identity]
        assert omegas
        for omega in omegas:
            x = W.mul(omega, random_element(W, rng))
            assert W.reduced_word(x)[0] != W.identity
            a = random_comb(W, rng, 3)
            for b in (iw.basis(omega), iw.basis(x), LinComb(((omega, ONE), (x, P((1, -2)))))):
                assert iw.mul(a, b) == stepwise_mul(iw, a, b), (a, b)

    def test_cancelling_products_store_no_zero(self, iw):
        """(T_s - q)(T_s + 1) = 0, also after a left factor T_x; the part
        left over from a sum with it has no zero scalar."""
        W = iw.W
        rng = random.Random(67)
        q = LaurentPoly.q()
        for s in W.simple_refs:
            zero = iw.mul(LinComb(((s, ONE), (W.identity, -q))), LinComb(((s, ONE), (W.identity, ONE))))
            assert zero.is_zero()
            x = random_element(W, rng)
            a = iw.mul(iw.basis(x), LinComb(((s, ONE), (W.identity, -q))))
            b = LinComb(((s, ONE), (W.identity, ONE)))
            assert iw.mul(a, b).is_zero() and stepwise_mul(iw, a, b).is_zero()
            y = random_element(W, rng)
            c = LinComb(itertools.chain(a.items(), ((y, ONE),)))
            prod = iw.mul(c, b)
            assert prod == stepwise_mul(iw, c, b) == iw.mul(iw.basis(y), b)
            assert all(p for _, p in prod.items())


class TestWorkCounts:
    """The cost shape of the Iwahori path, pinned by counting calls: no
    length measured by the product itself, each translation paired at
    most once per group, when the group's translation table first meets
    it as an element's, no matrix product per letter of a word, and one
    LinComb per product."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"im_length": 0, "mat_vec": 0, "root_pairings": 0}
        im_length, mat_vec = AffineWeylGroup.im_length, weyl.mat_vec
        root_pairings = AffineWeylGroup.root_pairings

        def counted_im_length(W, x):
            counts["im_length"] += 1
            return im_length(W, x)

        def counted_mat_vec(m, v):
            counts["mat_vec"] += 1
            return mat_vec(m, v)

        def counted_root_pairings(W, nu):
            counts["root_pairings"] += 1
            return root_pairings(W, nu)

        monkeypatch.setattr(AffineWeylGroup, "im_length", counted_im_length)
        monkeypatch.setattr(AffineWeylGroup, "root_pairings", counted_root_pairings)
        monkeypatch.setattr(weyl, "mat_vec", counted_mat_vec)
        return counts

    @staticmethod
    def record_pairings(monkeypatch, W) -> list:
        """The translations W pairs from now on; pairing one that W's
        table already holds, or pairing in another group, fails at once."""
        paired = []
        root_pairings = AffineWeylGroup.root_pairings

        def checked(group, nu):
            assert group is W and nu not in W._ids, nu
            paired.append(nu)
            return root_pairings(group, nu)

        monkeypatch.setattr(AffineWeylGroup, "root_pairings", checked)
        return paired

    @staticmethod
    def record_walks(monkeypatch, W) -> list:
        """The states whose reduced word W walks from now on: each walk
        ends by storing its word in W's memo, and storing a state the memo
        already holds fails at once."""
        walked = []

        class Recorded(dict):
            def __setitem__(self, s, entry):
                assert s not in self, s
                walked.append(s)
                super().__setitem__(s, entry)

        monkeypatch.setattr(W, "_words", Recorded(W._words))
        return walked

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_reduced_word_measures_once(self, counts, monkeypatch, name):
        """Over a seeded mix of word products, reduced words and Hecke
        products, on the cached group in whatever state earlier tests
        left its table and then on a fresh one, a translation is paired
        only while the table does not hold it, so at most once, and no
        length is measured nor matrix product formed.  A word product
        pairs nothing, and a reduced word of a translation far out pairs
        it if it is new, and nothing else.  Each state's descent walk
        runs at most once per group, a product stores its right factor's
        word, and asking again for every word the memo holds walks
        nothing."""
        rd = catalog(name)
        for fresh in (False, True):
            iw = IwahoriHecke(rd)
            if fresh:
                iw.W = AffineWeylGroup(rd)
            W, rng = iw.W, random.Random(41)
            n = len(W.simple_refs)
            omegas = omega_elements(W, box=1)
            far = [tuple(rng.randrange(-9, 10) for _ in range(rd.rank)) for _ in range(4)]

            def element(size):
                x = W.word_to_element([rng.randrange(n) for _ in range(rng.randrange(size))])
                return W.mul(rng.choice(omegas), x)

            with monkeypatch.context() as m:
                paired = self.record_pairings(m, W)
                walked = self.record_walks(m, W)
                counts.update(im_length=0, mat_vec=0, root_pairings=0)
                for _ in range(60):
                    op = rng.randrange(3)
                    if op == 0:
                        before = len(paired)
                        W.word_to_element([rng.randrange(n) for _ in range(64)])
                        assert len(paired) == before
                    elif op == 1:
                        W.reduced_word(element(64))
                    else:
                        y = element(10)
                        iw.mul(LinComb((element(10), ONE) for _ in range(3)), iw.basis(y))
                        assert W._state(y) in W._words
                for lam in far:
                    before, known = len(paired), lam in W._ids
                    W.reduced_word(W.translation(lam))
                    assert paired[before:] == ([] if known else [lam])
                before = len(walked)
                for s in list(W._words):
                    W._word(s)
                assert len(walked) == before
            assert counts == {"im_length": 0, "mat_vec": 0, "root_pairings": len(paired)}
            assert len(paired) == len(set(paired))
            assert paired or not fresh
            assert walked and len(walked) == len(set(walked))

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(3)", "Sp(4)*SL(2)"])
    def test_mul_inverts_nothing(self, monkeypatch, name):
        """Reduced words read right descents of each key itself, so no
        product inverts an element; the affine group has no inverse."""
        iw = IwahoriHecke(catalog(name))
        calls = []
        inverse = weyl.FiniteWeylGroup.inverse
        monkeypatch.setattr(weyl.FiniteWeylGroup, "inverse",
                            lambda W0, w: calls.append(w) or inverse(W0, w))
        assert not hasattr(AffineWeylGroup, "inverse")
        rng = random.Random(47)
        for _ in range(10):
            x, y = (iw.basis(random_element(iw.W, rng)) for _ in range(2))
            iw.mul(x, y)
        assert calls == []

    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_mul_measures_each_key_once(self, counts, monkeypatch, name):
        """The product measures no length: the guard reads the lengths of
        a's keys from the table's pairing vectors, and a translation of
        a's keys, before or after the omega shift, is paired only while
        the table does not hold it, so at most once; afterwards the table
        holds them all.  The group is fresh, so a's translations are new
        to it.  The words of b are read from a memo, so every pairing
        counted is the product's own (``test_reduced_word_measures_once``
        pins theirs): ``AffineWeylGroup._word``, which the product reads
        them from, is replaced by a dict of answers found beforehand."""
        rd = catalog(name)
        monkeypatch.setattr(hecke, "affine_weyl_group", AffineWeylGroup)
        sph = SphericalHecke(rd)
        iw, W = sph.iwahori, sph.W
        iw.W = W
        rng = random.Random(43)
        mu = rdm.dominant_reps(rd, 4)[-1]
        a = indicator_from_iwahori(sph, mu)
        omegas = omega_elements(W, box=1)
        b = LinComb((W.mul(rng.choice(omegas), random_element(W, rng)), ONE) for _ in range(5))
        words = {W._state(x): W._word(W._state(x)) for x in b.keys()}
        shifts = {W.reduced_word(x)[0] for x in b.keys()}
        assert name != "GL(3)" or len(shifts - {W.identity}) >= 2
        left = {w.translation for w in a.keys()}
        shifted = {W.mul(w, omega).translation for w in a.keys() for omega in shifts}
        monkeypatch.setattr(AffineWeylGroup, "_word", lambda W, s: words[s])
        before = set(W._ids)
        assert left - before
        paired = self.record_pairings(monkeypatch, W)
        counts.update(im_length=0)
        iw.mul(a, b)
        assert counts["im_length"] == 0
        assert len(paired) == len(set(paired)), Counter(paired).most_common(3)
        assert left - before <= set(paired) <= (left | shifted) - before
        assert left | shifted <= set(W._ids)

    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_c_mul_multiplies_the_left_minimal_elements_once(self, counts, monkeypatch, name):
        """One IwahoriHecke.mul per uncached product, with a left factor of
        |W_0 mu| keys; the only lengths measured are those of the
        product's keys, so no double coset is enumerated and the product
        measures none."""
        calls = []
        mul = IwahoriHecke.mul

        def recorded_mul(iw, a, b):
            out = mul(iw, a, b)
            calls.append((len(a), len(b), len(out)))
            return out

        monkeypatch.setattr(IwahoriHecke, "mul", recorded_mul)
        rd = catalog(name)
        sph = SphericalHecke(rd)
        for mu, lam in dominant_pairs(rd, 6):
            calls.clear()
            counts.update(im_length=0)
            sph.c_mul_iwahori(mu, lam)
            ((left, right, out),) = calls
            assert left == len(orbit_oracle(rd, mu)) and right == 1, (mu, lam)
            assert counts["im_length"] == out, (mu, lam, counts)
            calls.clear()
            sph.c_mul_iwahori(mu, lam)
            assert calls == []

    @pytest.mark.parametrize("name", ["SL(3)", "Sp(4)*SL(2)"])
    def test_simple_step_forms_no_matrix_product(self, counts, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        a = indicator_from_iwahori(sph, rdm.dominant_reps(rd, 4)[-1])
        counts.update(mat_vec=0)
        for x in a.keys():
            for i in range(len(sph.W.simple_refs)):
                step(sph.W, (x.translation, x.finite.index), i)
        assert counts["mat_vec"] == 0

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(3)", "Sp(4)*SL(2)"])
    def test_mul_builds_one_lincomb_whatever_the_word_length(self, monkeypatch, name):
        """The running products are int dicts: one LinComb per product,
        wrapped from its distinct keys by ``LinComb._canonical`` with no
        summing constructor, and one LaurentPoly per key of the result,
        however long the words."""
        built = Counter()
        lincomb_init, canonical = LinComb.__init__, LaurentPoly._canonical.__func__
        laurent_init, lincomb_canonical = LaurentPoly.__init__, LinComb._canonical.__func__
        of_dict = LaurentPoly.of_dict.__func__

        def counted(kind, f):
            def wrapper(*args, **kwargs):
                built[kind] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LinComb, "__init__", counted("LinComb", lincomb_init))
        monkeypatch.setattr(LinComb, "_canonical",
                            classmethod(counted("LinComb._canonical", lincomb_canonical)))
        monkeypatch.setattr(LaurentPoly, "__init__", counted("LaurentPoly", laurent_init))
        monkeypatch.setattr(LaurentPoly, "_canonical",
                            classmethod(counted("LaurentPoly", canonical)))
        monkeypatch.setattr(LaurentPoly, "of_dict", classmethod(counted("LaurentPoly", of_dict)))
        iw = IwahoriHecke(catalog(name))
        W = iw.W
        rng = random.Random(53)
        for size in (0, 1, 4, 16, 32):
            a = LinComb((W.word_to_element([rng.randrange(len(W.simple_refs)) for _ in range(4)]),
                         P((rng.randrange(-2, 3), rng.choice((-2, 1, 3))))) for _ in range(3))
            b = iw.basis(W.word_to_element([rng.randrange(len(W.simple_refs))
                                            for _ in range(size)]))
            built.clear()
            out = iw.mul(a, b)
            assert built == {"LinComb._canonical": 1, "LaurentPoly": len(out)}, (size, built)


class TestDualWorkCounts:
    """The cost shape of the dual path, pinned by counting calls: one K0
    expansion per factor weight, one q-analog walk per pair (mu, lam) over
    the products, stalk tables and specialization suite of a sweep, one
    coroot solve per walk, made before the walk starts, and one walk down
    the dominance order per weight."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_each_weight_is_computed_once(self, monkeypatch, name, signed):
        expanded, walked, solved, per_walk = Counter(), Counter(), Counter(), []
        to_ic_basis, coroot_coords = SphericalHecke.to_ic_basis, rdm.coroot_coords
        walk = RepRing._q_analog_walk

        def counted_to_ic_basis(sph, f):
            expanded.update(f.keys())
            return to_ic_basis(sph, f)

        def counted_coroot_coords(rd, v):
            solved[tuple(v)] += 1
            return coroot_coords(rd, v)

        def counted_walk(R, mu, lam):
            walked[mu, lam] += 1
            before = solved.total()
            out = walk(R, mu, lam)
            per_walk.append(solved.total() - before)
            return out

        monkeypatch.setattr(SphericalHecke, "to_ic_basis", counted_to_ic_basis)
        monkeypatch.setattr(rdm, "coroot_coords", counted_coroot_coords)
        monkeypatch.setattr(RepRing, "_q_analog_walk", counted_walk)
        rd = catalog(name)
        sph = SphericalHecke(rd, signed_trace=signed)
        # a cold RepRing: the shared one may be warm from other tests
        sph.k0.R = RepRing(rd)
        pairs = list(dominant_pairs(rd, 8))
        for mu, lam in pairs:
            assert sph.c_mul_satake(mu, lam) == sph.c_mul_iwahori(mu, lam), (mu, lam)
        assert verify.suite_parity(sph, 8)[1] and verify.suite_specialization(sph, 8)[1]
        assert set(expanded) <= {w for pair in pairs for w in pair}
        assert all(n == 1 for n in expanded.values()), expanded
        assert walked and all(n == 1 for n in walked.values()), walked
        assert per_walk == [1] * len(per_walk), per_walk


    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_basis_change_pairs_each_weight_once(self, monkeypatch, name, signed):
        """One to_ic_basis call takes d_pairing at most once per distinct
        weight it touches: those of f and of the ic_functions it
        subtracts.  The caches are warmed first, so only the pivot search
        is counted."""
        rd = catalog(name)
        sph = SphericalHecke(rd, signed_trace=signed)
        fs = [sph.c_mul_iwahori(mu, lam) for mu, lam in dominant_pairs(rd, 8)]
        expected = [sph.to_ic_basis(f) for f in fs]
        calls, d_pairing = Counter(), rdm.d_pairing
        monkeypatch.setattr(rdm, "d_pairing", lambda rd, v: calls.update([v]) or d_pairing(rd, v))
        for f, x in zip(fs, expected):
            calls.clear()
            assert sph.to_ic_basis(f) == x
            touched = set(f.keys()).union(*(sph.k0.ic_function(c.mu).keys() for c in x.keys()))
            assert set(calls) <= touched and max(calls.values()) == 1, calls


    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_warm_product_builds_no_class(self, monkeypatch, name, signed):
        """Once the factors' ic_expansions and the constituents'
        ic_functions are cached, c_mul_satake constructs no ICClass and
        calls neither LaurentPoly.__mul__ nor LaurentPoly.shift; the trace
        of convolve, which it replaces, does construct classes."""
        rd = catalog(name)
        sph = SphericalHecke(rd, signed_trace=signed)
        pairs = list(dominant_pairs(rd, 8))
        expected = [sph.c_mul_satake(mu, lam) for mu, lam in pairs]
        counts = Counter()
        new, mul, shift = ICClass.__new__, LaurentPoly.__mul__, LaurentPoly.shift
        monkeypatch.setattr(ICClass, "__new__",
                            lambda cls, *a, **k: counts.update(["ICClass"]) or new(cls, *a, **k))
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, r: counts.update(["__mul__"]) or mul(p, r))
        monkeypatch.setattr(LaurentPoly, "shift", lambda p, k: counts.update(["shift"]) or shift(p, k))
        assert [sph.c_mul_satake(mu, lam) for mu, lam in pairs] == expected
        assert counts == Counter()
        mu, lam = pairs[-1]
        sph.k0.trace_to_hecke(sph.k0.convolve(sph.ic_expansion(mu), sph.ic_expansion(lam)))
        assert counts["ICClass"] > 0


    @pytest.mark.parametrize("name, dmax", [("SL(3)", 12), ("GL(3)", 8)])
    def test_each_dominant_below_is_walked_once(self, name, dmax):
        """The IC functions, the stalk tables, the characters and the
        q = 1 check read dominant_below of every representative: four
        reads of each mu, one walk."""
        rd = catalog(name)
        sph = SphericalHecke(rd)
        sph.k0.R = RepRing(rd)
        reps = rdm.dominant_reps(rd, dmax)
        rdm._dominant_below.cache_clear()
        for mu in reps:
            sph.k0.ic_function(mu)
            sph.k0.parity_report(mu)
            sph.k0.R.character(mu)
        assert verify.suite_specialization(sph, dmax)[1]
        info = rdm._dominant_below.cache_info()
        assert info.misses == len(reps) and info.hits == 3 * len(reps)


class TestUnorderedProducts:
    """c_mul_satake keeps one product per unordered pair {mu, lam}; its
    premise is checked in TestTracedConvolution.  The Iwahori path, which
    still multiplies in both orders, must still notice a corrupted
    stalk."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_one_trace_per_unordered_pair(self, monkeypatch, name, signed):
        calls = []
        trace = SatakeK0.trace_of_convolution
        monkeypatch.setattr(SatakeK0, "trace_of_convolution",
                            lambda k0, x, y: calls.append((x, y)) or trace(k0, x, y))
        rd = catalog(name)
        sph = SphericalHecke(rd, signed_trace=signed)
        pairs = list(dominant_pairs(rd, 8))
        for mu, lam in pairs:
            assert sph.c_mul_satake(mu, lam) == sph.c_mul_iwahori(mu, lam), (mu, lam)
        unordered = {frozenset(pair) for pair in pairs}
        assert len(unordered) < len(pairs)
        assert len(calls) == len(unordered)

    def test_bad_factor_is_refused_and_not_cached(self):
        sph = SphericalHecke(catalog("SL(3)"))
        for mu, lam in [((1, -1), (1, 0)), ((1, 0), (1, -1)), ((1,), (1, 0))]:
            with pytest.raises(rdm.RootDatumError):
                sph.c_mul_satake(mu, lam)
        assert sph._c_mul_satake_cache == {}

    @pytest.mark.parametrize("name, dmax", CROSS_PATH_CELLS)
    def test_injected_fault_is_still_detected(self, name, dmax):
        # at d <= 4, GL(5) has no stalk off the diagonal to corrupt
        results = dict((suite, ok) for suite, ok, _ in
                       verify.run_all(catalog(name), max(dmax, 8), 0, signed_trace=False,
                                      inject_fault=True))
        assert results["cross-path oracle equality"] is False
        assert results["fault injection negative control"] is True


class TestTracedConvolution:
    """c_mul_satake's one pass, SatakeK0.trace_of_convolution, against the
    trace of the K0 convolution that it skips, and against itself with
    its factors swapped (the premise of the unordered-pair cache), on the
    factors' K0 expansions of every cross-path pair."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name, dmax", CROSS_PATH_CELLS)
    def test_equals_trace_of_convolve(self, name, dmax, signed):
        sph = SphericalHecke(catalog(name), signed_trace=signed)
        k0 = sph.k0
        for mu, lam in dominant_pairs(sph.rd, dmax):
            x, y = sph.ic_expansion(mu), sph.ic_expansion(lam)
            traced = k0.trace_of_convolution(x, y)
            assert traced == k0.trace_to_hecke(k0.convolve(x, y)), (mu, lam)
            assert traced == k0.trace_of_convolution(y, x), (mu, lam)
            assert sph.c_mul_satake(lam, mu) is sph.c_mul_satake(mu, lam)


class TestIndicators:
    def test_zero_indicator_is_finite_sum(self):
        rd = catalog("SL(3)")
        sph = SphericalHecke(rd)
        ind = indicator_from_iwahori(sph, (0, 0))
        W = affine_weyl_group(rd)
        assert ind == LinComb((from_finite(W, w), ONE) for w in W.W0.elements)

    def test_max_length_coefficient_one(self):
        rd = catalog("GL(2)")
        sph = SphericalHecke(rd)
        for mu in rdm.dominant_reps(rd, 4):
            coset, _, maximal = spherical_double_coset(sph.W, mu)
            ind = indicator_from_iwahori(sph, mu)
            assert ind.coefficient(maximal) == ONE
            assert set(ind.keys()) == coset

    def test_poincare_polynomial(self):
        assert poincare_polynomial(SphericalHecke(catalog("GL(2)"))) == P((0, 1), (1, 1))
        assert poincare_polynomial(SphericalHecke(catalog("SL(3)"))) == \
            P((0, 1), (1, 2), (2, 2), (3, 1))


class TestSphericalProducts:
    def test_unit(self):
        rd = catalog("SL(3)")
        sph = SphericalHecke(rd)
        zero = (0, 0)
        for mu in rdm.dominant_reps(rd, 4):
            assert sph.c_mul_iwahori(zero, mu) == sph.c(mu)
            assert sph.c_mul_satake(zero, mu) == sph.c(mu)

    def test_pgl2_golden(self):
        sph = SphericalHecke(catalog("PGL(2)"))
        expected = LinComb((((2,), ONE), ((0,), P((0, 1), (1, 1)))))
        assert sph.c_mul_iwahori((1,), (1,)) == expected
        assert sph.c_mul_satake((1,), (1,)) == expected

    def test_gl2_golden(self):
        sph = SphericalHecke(catalog("GL(2)"))
        expected = LinComb((((2, 0), ONE), ((1, 1), P((0, 1), (1, 1)))))
        assert sph.c_mul_iwahori((1, 0), (1, 0)) == expected
        assert sph.c_mul_satake((1, 0), (1, 0)) == expected

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)"])
    def test_commutative_and_support_bounded(self, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        reps = rdm.dominant_reps(rd, 4)
        for mu, lam in itertools.combinations(reps, 2):
            prod = sph.c_mul_iwahori(mu, lam)
            assert prod == sph.c_mul_iwahori(lam, mu)
            top = tuple(a + b for a, b in zip(mu, lam))
            for nu, p in prod.items():
                assert rdm.dominance_leq(rd, nu, top)
                # point counts specialize to nonnegative integers; (q - 1)
                # factors may vanish at q = 1
                assert p.eval_at_one() >= 0

    def test_torus_products_are_translations(self):
        sph = SphericalHecke(catalog("torus(1)"))
        for a, b in itertools.product(range(-3, 4), repeat=2):
            assert sph.c_mul_satake((a,), (b,)) == sph.c((a + b,)) == \
                sph.c_mul_iwahori((a,), (b,))

    def test_signed_convention_cross_path(self):
        rd = catalog("PGL(2)")
        sph = SphericalHecke(rd, signed_trace=True)
        for mu, lam in [((1,), (1,)), ((2,), (1,)), ((2,), (2,))]:
            assert sph.c_mul_iwahori(mu, lam) == sph.c_mul_satake(mu, lam)


def textbook_c_mul(sph, mu, lam):
    """c_mu * c_lam from the whole indicators: 1_mu 1_lam, grouped by
    double coset, with one value per coset divided exactly by P_{W_0}."""
    prod = sph.iwahori.mul(indicator_from_iwahori(sph, mu), indicator_from_iwahori(sph, lam))
    by_coset = {}
    for y, p in prod.items():
        by_coset.setdefault(sph.W.dominant_representative(y.translation), {})[y] = p
    out = []
    for nu, coeffs in by_coset.items():
        assert set(coeffs) == spherical_double_coset(sph.W, nu)[0]
        values = set(coeffs.values())
        assert len(values) == 1
        out.append((nu, values.pop().divexact(poincare_polynomial(sph))))
    return LinComb(out)


class TestReduction:
    @pytest.mark.parametrize("name, dmax, signed", [
        ("SL(3)", 6, False), ("Sp(4)", 6, False), ("GL(3)", 4, False),
        ("Sp(4)*SL(2)", 2, False), ("PGL(2)", 4, True),
    ])
    def test_matches_whole_indicator_product(self, name, dmax, signed):
        sph = SphericalHecke(catalog(name), signed_trace=signed)
        pairs = list(dominant_pairs(sph.rd, dmax))
        assert pairs
        for mu, lam in pairs:
            assert sph.c_mul_iwahori(mu, lam) == textbook_c_mul(sph, mu, lam), (mu, lam)


class TestClosedForms:
    """Z_mu and P_{W_nu} come from inversion flags; here they are compared
    with scans of the double coset and of W_0 (x is compared in
    test_weyl)."""

    @pytest.mark.parametrize("name", ["GL(3)", "PGL(3)", "GL(4)", "GL(5)", "SO(5)", "Sp(4)*SL(2)"])
    def test_left_minimal_sum_is_the_scanned_left_minimal_set(self, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        W = sph.W
        for mu in rdm.dominant_reps(rd, 6):
            coset, _, _ = spherical_double_coset(W, mu)
            # the shortest element of each left coset W_0 z
            shortest = {}
            for y in coset:
                left_coset = frozenset(W.mul(from_finite(W, u), y) for u in W.W0.elements)
                if left_coset not in shortest or W.im_length(y) < W.im_length(shortest[left_coset]):
                    shortest[left_coset] = y
            z_mu = sph.left_minimal_sum(mu)
            assert z_mu == LinComb((z, ONE) for z in shortest.values()), (name, mu)
            assert len(z_mu) == len(orbit_oracle(rd, mu))

    @pytest.mark.parametrize("name", ["GL(3)", "SO(5)", "Sp(4)*SL(2)", "GL(4)"])
    def test_stabiliser_polynomial_is_the_scanned_one(self, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        assert sph.stabiliser_polynomial(tuple([0] * rd.rank)) == poincare_polynomial(sph)
        for mu in rdm.dominant_reps(rd, 6):
            assert sph.stabiliser_polynomial(mu) == LaurentPoly(
                (w.length, 1) for w in sph.W.W0.elements if w.apply_cochar(mu) == mu)


class TestAgainstTheWholeIndicator:
    """c_mul_iwahori against the projection of 1_mu T_x (the oracle that
    multiplies the whole indicator) on every cross-path pair."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("name, dmax", CROSS_PATH_CELLS)
    def test_matches_the_projected_whole_indicator(self, name, dmax, signed):
        sph = SphericalHecke(catalog(name), signed_trace=signed)
        pairs = list(dominant_pairs(sph.rd, dmax))
        assert pairs
        for mu, lam in pairs:
            assert sph.c_mul_iwahori(mu, lam) == projected_c_mul(sph, mu, lam), (mu, lam)


class TestBiInvarianceGuards:
    """Each guard of c_mul_iwahori fires when b = Z_mu T_x is corrupted:
    the exact division by P_{W_lam} catches a value off the lattice, and
    the q = 1 mass identity catches what every division lets through."""

    @staticmethod
    def corrupted(monkeypatch, name, perturb):
        sph = SphericalHecke(catalog(name))
        mul = sph.iwahori.mul
        monkeypatch.setattr(sph.iwahori, "mul", lambda a, b: perturb(sph.W, mul(a, b)))
        return sph

    def test_values_must_divide_by_stabiliser_polynomial(self, monkeypatch):
        sph = self.corrupted(monkeypatch, "SL(3)",
                             lambda W, b: b + LinComb.unit(W.translation((1, 1))))
        with pytest.raises(HeckeError, match="inexact division"):
            sph.c_mul_iwahori((1, 1), (0, 0))

    def test_mass_must_match_orbit_sizes(self, monkeypatch):
        # a whole double coset missing from b leaves every value divisible
        sph = self.corrupted(monkeypatch, "SL(3)", lambda W, b: LinComb(
            (y, p) for y, p in b.items() if W.dominant_representative(y.translation) != (2, 2)))
        with pytest.raises(HeckeError, match="product mass at q = 1 is 30, not .* = 36"):
            sph.c_mul_iwahori((1, 1), (1, 1))

    def test_mass_counts_every_term(self, monkeypatch):
        # 2 T_e divides exactly by P_{W_0}, but counts twice
        sph = self.corrupted(monkeypatch, "SL(3)", lambda W, b: b + LinComb.unit(W.identity))
        with pytest.raises(HeckeError, match="product mass at q = 1 is 2, not .* = 1"):
            sph.c_mul_iwahori((0, 0), (0, 0))


class TestTraceFunctions:
    def test_twisted_unit(self):
        rd = catalog("Sp(4)")
        sph = SphericalHecke(rd)
        zero = (0, 0)
        for n in (-2, 0, 3):
            assert sph.k0.trace_to_hecke(sph.k0.element(zero, n)) == \
                LinComb.unit(zero, LaurentPoly.q(-n))

    def test_leading_coefficient(self):
        rd = catalog("SL(3)")
        sph = SphericalHecke(rd)
        for mu in rdm.dominant_reps(rd, 6):
            assert sph.ic_function(mu).coefficient(mu) == ONE

    def test_pgl2_table(self):
        sph = SphericalHecke(catalog("PGL(2)"))
        assert sph.ic_function((2,)) == LinComb((((2,), ONE), ((0,), ONE)))
        # rank-one dual group: every stalk polynomial is 1
        assert sph.ic_function((4,)) == \
            LinComb((((4,), ONE), ((2,), ONE), ((0,), ONE)))

    def test_basis_change_roundtrip(self):
        rd = catalog("GL(2)")
        sph = SphericalHecke(rd)
        rng = random.Random(41)
        reps = rdm.dominant_reps(rd, 6)
        for _ in range(10):
            terms = [(rng.choice(reps), LaurentPoly.q(rng.randrange(-2, 3), rng.randrange(-3, 4)))
                     for _ in range(3)]
            f = LinComb(terms)
            x = LinComb((ICClass(mu, 0), p) for mu, p in terms)
            assert sph.k0.trace_to_hecke(sph.to_ic_basis(f)) == f
            assert sph.to_ic_basis(sph.k0.trace_to_hecke(x)) == x

    def test_basis_change_adds_no_combinations(self, monkeypatch):
        """The remainder is one int accumulator: to_ic_basis calls neither
        LinComb.__add__ nor LinComb.__sub__."""
        rd = catalog("GL(3)")
        sph = SphericalHecke(rd, signed_trace=True)
        rng = random.Random(43)
        reps = rdm.dominant_reps(rd, 6)
        fs = [LinComb((rng.choice(reps), LaurentPoly.q(rng.randrange(-2, 3), rng.randrange(-3, 4)))
                      for _ in range(4)) for _ in range(10)]
        calls = []
        add, sub = LinComb.__add__, LinComb.__sub__
        monkeypatch.setattr(LinComb, "__add__", lambda x, y: calls.append("+") or add(x, y))
        monkeypatch.setattr(LinComb, "__sub__", lambda x, y: calls.append("-") or sub(x, y))
        expansions = [sph.to_ic_basis(f) for f in fs]
        assert calls == []
        for f, x in zip(fs, expansions):
            assert sph.k0.trace_to_hecke(x) == f

    def test_basis_change_refuses_a_non_unitriangular_table(self):
        sph = SphericalHecke(catalog("PGL(2)"))
        sph.k0._stalk_perturbation = {((2,), (2,)): LaurentPoly.q()}
        with pytest.raises(HeckeError, match="not unitriangular"):
            sph.to_ic_basis(sph.c((2,)))


class TestTransform:
    def test_kernel_image(self):
        rd = catalog("PGL(2)")
        sph = SphericalHecke(rd)
        f = sph.k0.trace_to_hecke(sph.k0.element((0,), -1))  # = q * c_0
        assert f == sph.c((0,)).scale(LaurentPoly.q())
        image = sph.satake_transform(f)
        assert image == LinComb.unit(G1RepClass((0,), 0), LaurentPoly.q())

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)"])
    def test_roundtrip(self, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        rng = random.Random(43)
        reps = rdm.dominant_reps(rd, 6)
        for _ in range(10):
            f = LinComb((rng.choice(reps),
                         LaurentPoly.q(rng.randrange(-2, 3), rng.randrange(-3, 4)))
                        for _ in range(3))
            assert sph.satake_inverse(sph.satake_transform(f)) == f

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)"])
    def test_multiplicative(self, name):
        rd = catalog(name)
        sph = SphericalHecke(rd)
        reps = rdm.dominant_reps(rd, 4)
        for mu, lam in itertools.product(reps, repeat=2):
            if rdm.d_pairing(rd, mu) + rdm.d_pairing(rd, lam) > 6:
                continue
            lhs = sph.satake_transform(sph.c_mul_iwahori(mu, lam))
            rhs = sph.g1.quotient_normal_form(sph.g1.mul(
                sph.satake_transform(sph.c(mu)), sph.satake_transform(sph.c(lam))))
            assert lhs == rhs

    def test_images_are_normal_form(self):
        rd = catalog("SL(3)")
        sph = SphericalHecke(rd)
        for mu in rdm.dominant_reps(rd, 6):
            image = sph.satake_transform(sph.c(mu))
            assert sph.g1.quotient_normal_form(image) == image
            for cls in image.keys():
                assert cls.k in (0, 1)
