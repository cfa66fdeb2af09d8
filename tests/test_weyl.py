"""Finite and extended affine Weyl groups: enumeration, the length
function, reduced words, Bruhat order, and spherical double cosets."""
import random

import pytest

import satake.root_datum as rdm
from satake import catalog
from satake.weyl import WeylError, affine_weyl_group, finite_weyl_group


def random_element(W, rng, max_length=6):
    n = len(W.simple_refs)
    if n == 0:
        return W.translation(tuple(rng.randrange(-2, 3) for _ in range(W.rd.rank)))
    while True:
        word = [rng.randrange(n) for _ in range(rng.randrange(10))]
        x = W.word_to_element(word)
        if W.im_length(x) <= max_length:
            return x


class TestFiniteWeylGroup:
    @pytest.mark.parametrize("name,order", [
        ("GL(2)", 2), ("SL(3)", 6), ("torus(1)", 1),
        ("PGL(2)", 2), ("Sp(4)", 8), ("GL(3)", 6),
    ])
    def test_orders(self, name, order):
        assert len(finite_weyl_group(catalog(name))) == order

    def test_closed_under_multiplication(self):
        W0 = finite_weyl_group(catalog("SL(3)"))
        for a in W0.elements:
            for b in W0.elements:
                assert W0.mul(a, b) in W0.elements

    @pytest.mark.parametrize("name", ["GL(4)", "Sp(4)*SL(2)"])
    def test_mul_and_inverse_agree_with_the_action(self, name):
        rd = catalog(name)
        W0 = finite_weyl_group(rd)
        basis = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
        for a in W0.elements:
            assert W0.mul(a, W0.inverse(a)) == W0.identity
            for b in W0.elements:
                ab = W0.mul(a, b)
                for v in basis:
                    assert ab.apply_cochar(v) == a.apply_cochar(b.apply_cochar(v))

    @pytest.mark.parametrize("name", ["GL(2)", "SL(3)", "Sp(4)", "GL(3)", "Sp(4)*SL(2)"])
    def test_elements_in_length_word_order(self, name):
        W0 = finite_weyl_group(catalog(name))
        assert W0.elements == sorted(W0.elements, key=lambda w: (w.length, w.word))
        assert W0.elements[0] == W0.identity

    def test_inverse(self):
        W0 = finite_weyl_group(catalog("Sp(4)"))
        for w in W0.elements:
            assert W0.mul(w, W0.inverse(w)) == W0.identity
            assert W0.inverse(w).length == w.length

    @pytest.mark.parametrize("name", ["SL(3)", "Sp(4)", "GL(3)", "Sp(4)*SL(2)"])
    def test_length_counts_inverted_roots(self, name):
        rd = catalog(name)
        W0 = finite_weyl_group(rd)
        pos = set(rd.positive_roots)

        def act_char(word, chi):
            # s_i chi = chi - <chi, alpha_i^> alpha_i, rightmost letter first
            for i in reversed(word):
                c = rd.pair(chi, rd.simple_coroots[i])
                chi = tuple(x - c * a for x, a in zip(chi, rd.simple_roots[i]))
            return chi

        for w in W0.elements:
            inverted = sum(1 for beta in rd.positive_roots
                           if act_char(w.word, beta) not in pos)
            assert inverted == w.length

    def test_longest_element(self):
        W0 = finite_weyl_group(catalog("SL(3)"))
        assert W0.longest().length == 3
        assert finite_weyl_group(catalog("Sp(4)")).longest().length == 4


class TestLength:
    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)", "Sp(4)"])
    def test_identity_and_simples(self, name):
        W = affine_weyl_group(catalog(name))
        assert W.im_length(W.identity) == 0
        for s in W.simple_refs:
            assert W.im_length(s) == 1

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)", "Sp(4)"])
    def test_dominant_translation_length(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 10):
            assert W.im_length(W.translation(mu)) == rdm.d_pairing(rd, mu)

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "Sp(4)"])
    def test_subadditive_and_inverse_invariant(self, name):
        W = affine_weyl_group(catalog(name))
        rng = random.Random(7)
        for _ in range(60):
            x = random_element(W, rng)
            y = random_element(W, rng)
            assert W.im_length(W.mul(x, y)) <= W.im_length(x) + W.im_length(y)
            assert W.im_length(W.inverse(x)) == W.im_length(x)


class TestReducedWords:
    def test_identity_and_simples(self):
        W = affine_weyl_group(catalog("SL(3)"))
        word, omega = W.reduced_word(W.identity)
        assert word == () and omega == W.identity
        for i, s in enumerate(W.simple_refs):
            word, omega = W.reduced_word(s)
            assert word == (i,) and omega == W.identity

    def test_pgl2_generator_translation(self):
        W = affine_weyl_group(catalog("PGL(2)"))
        t = W.translation((1,))
        word, omega = W.reduced_word(t)
        assert len(word) == W.im_length(t) == 1
        assert W.im_length(omega) == 0 and omega != W.identity

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)", "Sp(4)"])
    def test_word_reconstructs_element(self, name):
        W = affine_weyl_group(catalog(name))
        rng = random.Random(11)
        for _ in range(40):
            x = random_element(W, rng)
            word, omega = W.reduced_word(x)
            assert len(word) == W.im_length(x)
            assert W.word_to_element(word, omega) == x
            assert W.im_length(omega) == 0


class TestOmega:
    @pytest.mark.parametrize("name,count", [
        ("PGL(2)", 2), ("SL(3)", 1), ("PGL(3)", 3), ("Sp(4)", 1), ("SL(2)", 1),
    ])
    def test_omega_matches_pi1_torsion(self, name, count):
        rd = catalog(name)
        free, torsion = rdm.pi1_invariants(rd)
        assert (free, torsion) == (0, count)
        omegas = affine_weyl_group(rd).omega_elements(box=2)
        assert len(omegas) == count

    def test_gl2_omega_is_infinite_cyclic(self):
        rd = catalog("GL(2)")
        assert rdm.pi1_invariants(rd) == (1, 1)
        W = affine_weyl_group(rd)
        omegas = W.omega_elements(box=1)
        assert all(W.im_length(x) == 0 for x in omegas)
        # translations-with-flip generate a copy of Z; the box holds 5 powers
        assert len(omegas) == 5
        gen = next(x for x in omegas if x.translation == (1, 0))
        assert W.mul(gen, gen).translation == (1, 1)


def subword_reachable(W, word, omega, v):
    """Bruhat comparison against one fixed reduced word, implemented
    independently of AffineWeylGroup.bruhat_leq."""
    target = W.mul(v, W.inverse(omega))
    reachable = {W.identity}
    for i in word:
        s = W.simple_refs[i]
        reachable |= {W.mul(x, s) for x in reachable}
    return target in reachable


class TestBruhat:
    def test_trivial_cases(self):
        W = affine_weyl_group(catalog("SL(3)"))
        rng = random.Random(3)
        for _ in range(20):
            w = random_element(W, rng, max_length=5)
            assert W.bruhat_leq(w, w)
            _, omega = W.reduced_word(w)
            assert W.bruhat_leq(omega, w)
            if W.im_length(w) < 5:
                longer = W.mul(w, W.simple_refs[0])
                if W.im_length(longer) > W.im_length(w):
                    assert not W.bruhat_leq(longer, w)

    def test_length_bound(self):
        W = affine_weyl_group(catalog("PGL(2)"))
        big = W.translation((20,))
        with pytest.raises(WeylError):
            W.bruhat_leq(W.identity, big)

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)"])
    def test_independent_of_reduced_word(self, name):
        """The subword criterion applied to a second, right-greedy reduced
        word must agree with the library's left-greedy one."""
        W = affine_weyl_group(catalog(name))
        rng = random.Random(5)
        for _ in range(50):
            w = random_element(W, rng, max_length=5)
            v = random_element(W, rng, max_length=5)
            word_l, omega = W.reduced_word(w)
            # right-greedy: strip descents on the right instead
            word_r = []
            cur = W.mul(w, W.inverse(omega))
            length = W.im_length(cur)
            while length > 0:
                for i, s in enumerate(W.simple_refs):
                    cand = W.mul(cur, s)
                    cl = W.im_length(cand)
                    if cl < length:
                        word_r.append(i)
                        cur, length = cand, cl
                        break
            word_r.reverse()
            assert len(word_r) == len(word_l)
            _, omega_v = W.reduced_word(v)
            if omega_v != omega:
                continue
            assert subword_reachable(W, tuple(word_r), omega, v) == W.bruhat_leq(v, w)


class TestBraidRelations:
    @pytest.mark.parametrize("name", ["SL(3)", "Sp(4)", "GL(3)"])
    def test_affine_braid_relations(self, name):
        W = affine_weyl_group(catalog(name))
        n = len(W.simple_refs)
        for i in range(n):
            for j in range(i + 1, n):
                # order of s_i s_j; infinite only for rank-one affine types
                prod = W.mul(W.simple_refs[i], W.simple_refs[j])
                m, x = 1, prod
                while x != W.identity and m <= 8:
                    x = W.mul(x, prod)
                    m += 1
                if m > 8:
                    continue
                lhs = W.identity
                rhs = W.identity
                for k in range(m):
                    lhs = W.mul(lhs, W.simple_refs[i if k % 2 == 0 else j])
                    rhs = W.mul(rhs, W.simple_refs[j if k % 2 == 0 else i])
                assert lhs == rhs


class TestDoubleCosets:
    def test_zero_coset_is_finite_weyl_group(self):
        rd = catalog("SL(3)")
        W = affine_weyl_group(rd)
        coset, minimal, maximal = W.spherical_double_coset((0, 0))
        assert coset == frozenset(W.from_finite(w) for w in W.W0.elements)
        assert minimal == W.identity
        assert maximal == W.from_finite(W.W0.longest())

    def test_gl2_minuscule_coset(self):
        rd = catalog("GL(2)")
        W = affine_weyl_group(rd)
        coset, minimal, maximal = W.spherical_double_coset((1, 0))
        # literal enumeration of {u t_mu v : u, v in W_0}
        expected = set()
        tmu = W.translation((1, 0))
        for u in W.W0.elements:
            for v in W.W0.elements:
                expected.add(W.mul(W.mul(W.from_finite(u), tmu), W.from_finite(v)))
        assert coset == frozenset(expected)
        assert len(coset) == 4
        assert W.im_length(minimal) == 0
        assert W.im_length(maximal) == rdm.d_pairing(rd, (1, 0)) + W.W0.longest().length

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "Sp(4)"])
    def test_max_length_for_regular(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        l0 = W.W0.longest().length
        for mu in rdm.dominant_reps(rd, 6):
            regular = all(rd.pair(a, mu) > 0 for a in rd.simple_roots)
            if not regular:
                continue
            _, _, maximal = W.spherical_double_coset(mu)
            assert W.im_length(maximal) == rdm.d_pairing(rd, mu) + l0

    def test_dominant_representative(self):
        rd = catalog("Sp(4)")
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 6):
            for nu in W.orbit(mu):
                assert W.dominant_representative(nu) == mu
