"""Finite and extended affine Weyl groups: enumeration, the length
function, reduced words, and spherical double cosets."""
import itertools
import random

import pytest

import satake.root_datum as rdm
from satake import catalog, lattices, weyl
from satake.lattices import vadd
from satake.weyl import (AffineWeylElement, AffineWeylGroup, FiniteWeylGroup,
                         affine_weyl_group, finite_weyl_group)

from oracles import (affine_simple_refs, from_finite, omega_elements, orbit_oracle,
                     right_greedy_word, spherical_double_coset, step, w0_by_matrices)
from test_acceptance import CROSS_PATH_CELLS


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


SYSTEM_GROUPS = ["Sp(4)*SL(2)", "SL(2)*Sp(4)", "SL(3)*GL(2)*SL(2)", "SO(5)*PGL(3)*torus(2)"]
# every catalog family that has roots, and products of them
WORD_GROUPS = sorted({*(n for n, _ in CROSS_PATH_CELLS), "SO(5)", *SYSTEM_GROUPS})


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

    @pytest.mark.parametrize("name", WORD_GROUPS)
    def test_a_word_is_at_least_as_long_as_its_product(self, name):
        """l(s_i1 ... s_ik) <= k, which lets ``verify`` take every random
        word of at most ``max_length`` letters as it is drawn."""
        W = affine_weyl_group(catalog(name))
        rng = random.Random(11)
        for _ in range(200):
            word = [rng.randrange(len(W.simple_refs)) for _ in range(rng.randrange(13))]
            assert W.im_length(W.word_to_element(word)) <= len(word), word

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "Sp(4)"])
    def test_subadditive_and_inverse_invariant(self, name):
        W = affine_weyl_group(catalog(name))
        rng = random.Random(7)
        for _ in range(60):
            x = random_element(W, rng)
            y = random_element(W, rng)
            assert W.im_length(W.mul(x, y)) <= W.im_length(x) + W.im_length(y)
            # (t_lam w)^-1 = t_{-w^-1 lam} w^-1
            wi = W.W0.inverse(x.finite)
            x_inv = AffineWeylElement(tuple(-c for c in wi.apply_cochar(x.translation)), wi)
            assert W.mul(x, x_inv) == W.identity
            assert W.im_length(x_inv) == W.im_length(x)


class TestReducedWords:
    def test_identity_and_simples(self):
        W = affine_weyl_group(catalog("SL(3)"))
        omega, word = W.reduced_word(W.identity)
        assert word == () and omega == W.identity
        for i, s in enumerate(W.simple_refs):
            omega, word = W.reduced_word(s)
            assert word == (i,) and omega == W.identity

    def test_pgl2_generator_translation(self):
        W = affine_weyl_group(catalog("PGL(2)"))
        t = W.translation((1,))
        omega, word = W.reduced_word(t)
        assert len(word) == W.im_length(t) == 1
        assert W.im_length(omega) == 0 and omega != W.identity

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)", "Sp(4)"])
    def test_word_reconstructs_element(self, name):
        W = affine_weyl_group(catalog(name))
        rng = random.Random(11)
        for _ in range(40):
            x = random_element(W, rng)
            omega, word = W.reduced_word(x)
            assert len(word) == W.im_length(x)
            assert W.mul(omega, W.word_to_element(word)) == x
            assert W.im_length(omega) == 0


def plain_word(omega, word):
    """A ``reduced_word`` answer with omega's finite part as its index, so
    that answers of distinct groups of one datum compare."""
    return omega.translation, omega.finite.index, word


class TestWordMemo:
    """Each group keeps the reduced word of every state asked for: the
    answers are those of a fresh group and of the right-greedy oracle,
    and a walk that fails stores nothing."""

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(3)", "Sp(4)*SL(2)"])
    def test_fresh_and_warm_groups_agree(self, name):
        rd = catalog(name)
        warm, fresh = AffineWeylGroup(rd), AffineWeylGroup(rd)
        rng = random.Random(97)
        for _ in range(60):
            warm.reduced_word(random_element(warm, rng, 10))
        omegas = omega_elements(warm, box=1)
        elements = [warm.mul(rng.choice(omegas), random_element(warm, rng, 8))
                    for _ in range(40)]
        assert len(warm._words) > 5 and not fresh._words
        first = [plain_word(*warm.reduced_word(x)) for x in elements]
        if name != "Sp(4)*SL(2)":     # simply connected: every omega is 1
            assert any(lam != (0,) * rd.rank or k for lam, k, _ in first)
        memo = {}
        for x, answer in zip(elements, first):
            expected = plain_word(*right_greedy_word(warm, x, memo))
            assert plain_word(*fresh.reduced_word(x)) == answer == expected, x
            assert plain_word(*warm.reduced_word(x)) == expected, x

    def test_failed_walk_is_not_stored(self, monkeypatch):
        """A walk told to take one step more than the length finds no
        descent at omega and raises; the state gets no entry, and once
        the fault is gone its word is walked and stored as usual."""
        W = AffineWeylGroup(catalog("GL(3)"))
        x = W.word_to_element([0, 1, 2, 0, 1])
        length = AffineWeylGroup._length
        with monkeypatch.context() as m:
            m.setattr(W, "_length", lambda t, k: length(W, t, k) + 1)
            with pytest.raises(weyl.WeylError, match="no descent"):
                W.reduced_word(x)
        assert W._state(x) not in W._words
        assert plain_word(*W.reduced_word(x)) == plain_word(*right_greedy_word(W, x))
        assert W._state(x) in W._words


class TestOmega:
    @pytest.mark.parametrize("name,count", [
        ("PGL(2)", 2), ("SL(3)", 1), ("PGL(3)", 3), ("Sp(4)", 1), ("SL(2)", 1),
    ])
    def test_omega_matches_pi1_torsion(self, name, count):
        rd = catalog(name)
        free, torsion = rdm.pi1_invariants(rd)
        assert (free, torsion) == (0, count)
        omegas = omega_elements(affine_weyl_group(rd), box=2)
        assert len(omegas) == count

    def test_gl2_omega_is_infinite_cyclic(self):
        rd = catalog("GL(2)")
        assert rdm.pi1_invariants(rd) == (1, 1)
        W = affine_weyl_group(rd)
        omegas = omega_elements(W, box=1)
        assert all(W.im_length(x) == 0 for x in omegas)
        # translations-with-flip generate a copy of Z; the box holds 5 powers
        assert len(omegas) == 5
        gen = next(x for x in omegas if x.translation == (1, 0))
        assert W.mul(gen, gen).translation == (1, 1)


ONE_ROOT_GROUPS = ["GL(2)", "SL(3)", "PGL(3)", "GL(3)", "SO(5)", "Sp(4)*SL(2)", "GL(4)"]


def box(rd, radius):
    return itertools.product(range(-radius, radius + 1), repeat=rd.rank)


class TestOneRootTests:
    """The one-root shortcuts against the Iwahori-Matsumoto length itself."""

    @pytest.mark.parametrize("name", ONE_ROOT_GROUPS)
    def test_step_flag_matches_lengths(self, name):
        """The length flag of ``step``, the one ``IwahoriHecke.mul`` reads."""
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for lam in box(rd, 3 if rd.rank <= 3 else 2):
            for w in W.W0.elements:
                x = AffineWeylElement(lam, w)
                lx = W.im_length(x)
                for i, s in enumerate(W.simple_refs):
                    _, up = step(W, (lam, w.index), i)
                    assert up == (W.im_length(W.mul(x, s)) > lx), (x, i)

    @pytest.mark.parametrize("name", ONE_ROOT_GROUPS)
    def test_step_matches_mul(self, name):
        """The key of x s_i from ``step``, against the affine product."""
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for lam in box(rd, 3 if rd.rank <= 3 else 2):
            for w in W.W0.elements:
                x = AffineWeylElement(lam, w)
                for i, s in enumerate(W.simple_refs):
                    xs = W.mul(x, s)
                    (mu, k), _ = step(W, (lam, w.index), i)
                    assert (mu, W.W0.elements[k]) == (xs.translation, xs.finite), (x, i)

    @pytest.mark.parametrize("name", ONE_ROOT_GROUPS)
    def test_reduced_word_matches_left_greedy(self, name):
        """Against the greedy loop over affine products and lengths, which
        now reads descents on the right, as ``reduced_word`` does."""
        rd = catalog(name)
        W = affine_weyl_group(rd)
        memo = {}
        for lam in box(rd, 3 if rd.rank <= 3 else 2):
            for w in W.W0.elements:
                x = AffineWeylElement(lam, w)
                assert W.reduced_word(x) == right_greedy_word(W, x, memo), x

    @pytest.mark.parametrize("name", ONE_ROOT_GROUPS)
    def test_flip_is_the_one_changed_inversion(self, name):
        W0 = finite_weyl_group(catalog(name))
        for w in W0.elements:
            for i, g in enumerate(W0.generators):
                ws = W0.mul(w, g)
                changed = [j for j, (a, b) in enumerate(zip(w.inverted, ws.inverted)) if a != b]
                assert changed == [W0.rows[w.index][i][0]]

    @pytest.mark.parametrize("name", ONE_ROOT_GROUPS + ["torus(1)"])
    def test_min_coset_length_is_the_minimum_over_w0(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for nu in box(rd, 3 if rd.rank <= 3 else 2):
            brute = min(W.im_length(AffineWeylElement(nu, w)) for w in W.W0.elements)
            assert W.min_coset_length(nu) == brute, nu


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
        coset, minimal, maximal = spherical_double_coset(W, (0, 0))
        assert coset == frozenset(from_finite(W, w) for w in W.W0.elements)
        assert minimal == W.identity
        assert maximal == from_finite(W, W.W0.longest())

    @pytest.mark.parametrize("name", ["GL(2)", "GL(3)", "Sp(4)", "SO(5)", "Sp(4)*SL(2)",
                                      "GL(4)", "torus(1)"])
    def test_matches_literal_enumeration(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 4):
            # literal enumeration of {u t_mu v : u, v in W_0}
            tmu = W.translation(mu)
            expected = {W.mul(W.mul(from_finite(W, u), tmu), from_finite(W, v))
                        for u in W.W0.elements for v in W.W0.elements}
            lengths = sorted(W.im_length(x) for x in expected)
            (shortest,) = [x for x in expected if W.im_length(x) == lengths[0]]
            (longest,) = [x for x in expected if W.im_length(x) == lengths[-1]]
            assert spherical_double_coset(W, mu) == (frozenset(expected), shortest, longest)

    def test_gl2_minuscule_coset(self):
        rd = catalog("GL(2)")
        W = affine_weyl_group(rd)
        coset, minimal, maximal = spherical_double_coset(W, (1, 0))
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
            _, _, maximal = spherical_double_coset(W, mu)
            assert W.im_length(maximal) == rdm.d_pairing(rd, mu) + l0

    @pytest.mark.parametrize("name", ["GL(3)", "PGL(3)", "GL(4)", "SO(5)", "Sp(4)*SL(2)"])
    def test_min_coset_element_is_the_scanned_minimum(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 4):
            _, minimal, _ = spherical_double_coset(W, mu)
            assert W.min_coset_element(mu) == minimal
            for nu in orbit_oracle(rd, mu):
                scanned = min((AffineWeylElement(nu, w) for w in W.W0.elements),
                              key=W.im_length)
                assert W.min_coset_element(nu) == scanned
                assert W.im_length(scanned) == W.min_coset_length(nu)

    @pytest.mark.parametrize("name", ["GL(3)", "PGL(3)", "GL(4)", "SO(5)", "Sp(4)*SL(2)"])
    def test_dominant_representative_is_the_scanned_one(self, name):
        rd = catalog(name)
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 6):
            for nu in orbit_oracle(rd, mu):
                (scanned,) = {w.apply_cochar(nu) for w in W.W0.elements
                              if rdm.is_dominant(rd, w.apply_cochar(nu))}
                assert W.dominant_representative(nu) == scanned == mu

    def test_dominant_representative(self):
        rd = catalog("Sp(4)")
        W = affine_weyl_group(rd)
        for mu in rdm.dominant_reps(rd, 6):
            for nu in orbit_oracle(rd, mu):
                assert W.dominant_representative(nu) == mu


def from_cartan(name, cartan):
    """The simply connected root datum of a Cartan matrix, rows
    <alpha_i, alpha_j^> over j: characters in the fundamental-weight basis,
    cocharacters in the simple-coroot basis."""
    return rdm.make_root_datum(name, len(cartan), cartan, lattices.identity_matrix(len(cartan)))


CARTAN_TYPES = {
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    # A2 on simple roots 0, 2 and A1 on 1: components interleave
    "A2+A1": [[2, 0, -1], [0, 2, 0], [-1, 0, 2]],
}
W0_ORDERS = {"G2": 12, "B3": 48, "D4": 192, "F4": 1152, "A2+A1": 12}


class TestAffineSimpleSystem:
    """The affine simple reflections, read off the root datum, against the
    component search, height search and W_0 scan of the oracle."""

    @pytest.mark.parametrize("name", SYSTEM_GROUPS)
    def test_catalog_products_match_oracle(self, name):
        W = affine_weyl_group(catalog(name))
        assert W.simple_refs == affine_simple_refs(W)

    @pytest.mark.parametrize("name", sorted(CARTAN_TYPES))
    def test_cartan_types_match_oracle(self, name):
        W = AffineWeylGroup(from_cartan(name, CARTAN_TYPES[name]))
        assert len(W.W0) == W0_ORDERS[name]
        assert W.simple_refs == affine_simple_refs(W)
        assert all(W.im_length(s) == 1 for s in W.simple_refs)


class TestAgainstMatrixEnumeration:
    """The flag-keyed search against the oracle's search over matrices:
    the same words, inversion flags and tables, and the word walk acting
    on X_* as the oracle's matrix does, on a basis and a regular vector."""

    @pytest.mark.parametrize("name", sorted({*SYSTEM_GROUPS, *(n for n, _ in CROSS_PATH_CELLS), "GL(6)"})
                             + sorted(CARTAN_TYPES))
    def test_tables_and_action_match(self, name):
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        W, ref = FiniteWeylGroup(rd), w0_by_matrices(rd)
        assert [w.word for w in W.elements] == ref.words
        assert [w.inverted for w in W.elements] == ref.inverted
        finite = [row[:len(rd.simple_roots)] for row in W.rows]
        assert [[entry[1] for entry in row] for row in finite] == ref.right
        assert [[entry[0] for entry in row] for row in finite] == ref.flip
        vectors = list(lattices.identity_matrix(rd.rank)) + [(2, 3, 5, 7, 11, 13, 17, 19)[:rd.rank]]
        for w, act in zip(W.elements, ref.acts):
            assert [w.apply_cochar(v) for v in vectors] == [lattices.mat_vec(act, v) for v in vectors]


class TestOneTable:
    """W_0 and the affine move table share one row list per element, and
    each finite entry's sign and threshold are those of the flag rule:
    the length of t_lam w s_i goes up iff <alpha_j, lam> >= 1 when w
    inverts alpha_j, and iff <alpha_j, lam> <= 0 when it does not; the
    rule is checked against the length itself at lam = 0 and +-e_0."""

    @pytest.mark.parametrize("name", WORD_GROUPS + sorted(CARTAN_TYPES))
    def test_rows_are_the_move_table(self, name):
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        W = AffineWeylGroup(rd)
        W0 = W.W0
        e0 = lattices.identity_matrix(rd.rank)[0]
        vectors = [(0,) * rd.rank, e0, tuple(-c for c in e0)]
        pairings = [W.root_pairings(lam) for lam in vectors]
        assert len(W._table) == len(W0)
        for k, w in enumerate(W0.elements):
            assert W._table[k] is W0.rows[k] and len(W0.rows[k]) == len(W.simple_refs)
            for i, (j, _, sign, threshold, c) in enumerate(W0.rows[k][:len(rd.simple_roots)]):
                assert (sign, threshold, c) == ((1, 1, None) if w.inverted[j] else (-1, 0, None))
                for lam, p in zip(vectors, pairings):
                    x = AffineWeylElement(lam, w)
                    up = W.im_length(W.mul(x, W.simple_refs[i])) > W.im_length(x)
                    assert up == (sign * p[j] >= threshold), (x, i)

    @pytest.mark.parametrize("name", WORD_GROUPS + sorted(CARTAN_TYPES))
    def test_affine_entries_index_one_signed_coroot(self, name):
        """An affine entry's c is j + f N, and ``_coroots[c]`` is the
        signed coroot +-alpha_j^, - exactly when f = 1, with its pairings;
        the sign and threshold rule is checked against the length as for
        the finite entries."""
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        W = AffineWeylGroup(rd)
        N = len(rd.positive_coroots)
        assert len(W._coroots) == 2 * N
        for c, (move, column) in enumerate(W._coroots):
            s = 1 - 2 * (c >= N)
            bv = tuple(s * x for x in rd.positive_coroots[c % N])
            assert (move, list(column)) == (bv, W.root_pairings(bv))
        e0 = lattices.identity_matrix(rd.rank)[0]
        vectors = [(0,) * rd.rank, e0, tuple(-c for c in e0)]
        for w, row in zip(W.W0.elements, W._table):
            for i, (j, k_s, sign, threshold, c) in enumerate(row):
                if i < len(rd.simple_roots):
                    continue
                assert c == j + w.inverted[j] * N
                for lam in vectors:
                    x = AffineWeylElement(lam, w)
                    xs = W.mul(x, W.simple_refs[i])
                    assert xs == (vadd(lam, W._coroots[c][0]), W.W0.elements[k_s])
                    up = W.im_length(xs) > W.im_length(x)
                    assert up == (sign * W.root_pairings(lam)[j] >= threshold), (x, i)


class TestTranslationTable:
    """The per-group translation table that the Iwahori path walks on:
    after a seeded sweep of products, reduced words and word products,
    its indices are dense, each row holds its translation, the pairing
    vector of that translation and successors that are the translation
    plus the signed coroot; and the table's state does not reach the
    output."""

    @pytest.mark.parametrize("name", ["GL(3)", "Sp(4)*SL(2)", "G2"])
    def test_rows_after_a_sweep(self, name):
        from satake.hecke import IwahoriHecke
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        iw = IwahoriHecke(rd)
        W = AffineWeylGroup(rd)
        iw.W = W
        rng = random.Random(83)
        for _ in range(30):
            x, y = (random_element(W, rng, 8) for _ in range(2))
            W.reduced_word(W.mul(x, y))
            iw.mul(iw.basis(x), iw.basis(y))
        lams, ids = W._lams, W._ids
        assert len(lams) > 5
        assert sorted(ids.values()) == list(range(len(lams))) == [ids[lam] for lam in lams]
        assert len(W._pairs) == len(W._succ) == len(lams)
        for t, lam in enumerate(lams):
            assert list(W._pairs[t]) == W.root_pairings(lam), lam
            for c, t_s in enumerate(W._succ[t]):
                assert t_s is None or lams[t_s] == vadd(lam, W._coroots[c][0]), (lam, c)
        assert any(t_s is not None for row in W._succ for t_s in row)
        assert len(W._words) > 5
        for (t, k), ((t_o, k_o), word) in W._words.items():
            assert len(word) == W._length(t, k) and W._length(t_o, k_o) == 0, (t, k)
            key = (lams[t_o], k_o)
            for i in word:
                key, up = step(W, key, i)
                assert up, (t, k, word)
            assert key == (lams[t], k), (t, k, word)

    @pytest.mark.parametrize("group, words", [
        ("GL(3)", ["0,1,2", "2,1,0,2", "1,2,1,0"]),
        ("Sp(4)*SL(2)", ["3,0,1", "4,1,0,2,3", "0,3,0,1,2,4"]),
        ("SO(5)", ["2,1,0,1", "0,2,1,2,0"]),
    ])
    def test_hecke_mul_output_is_table_independent(self, monkeypatch, capsys, group, words):
        """``hecke-mul`` prints the same bytes on a cold group and on one
        whose table unrelated products have grown first."""
        from satake import hecke
        from satake.cli import main
        rd = catalog(group)
        monkeypatch.setattr(hecke, "affine_weyl_group", AffineWeylGroup)
        assert main(["hecke-mul", "--group", group, *words]) == 0
        cold = capsys.readouterr()
        warm = AffineWeylGroup(rd)
        iw = hecke.IwahoriHecke(rd)
        iw.W = warm
        rng = random.Random(89)
        for _ in range(20):
            iw.mul(iw.basis(random_element(warm, rng, 10)), iw.basis(random_element(warm, rng, 10)))
        size = len(warm._lams)
        monkeypatch.setattr(hecke, "affine_weyl_group", lambda rd: warm)
        assert main(["hecke-mul", "--group", group, *words]) == 0
        assert capsys.readouterr() == cold
        assert len(warm._lams) >= size > 1


class TestW0Bound:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the FiniteWeylElement objects built."""
        calls = []
        element = weyl.FiniteWeylElement
        monkeypatch.setattr(weyl, "FiniteWeylElement", lambda *a: calls.append(1) or element(*a))
        return calls

    def test_oversized_group_is_refused_before_enumeration(self, monkeypatch, built):
        monkeypatch.setattr(weyl, "MAX_W0_ORDER", 100)
        with pytest.raises(rdm.RootDatumError, match="120 exceeds bound 100"):
            FiniteWeylGroup(catalog("SL(5)"))
        assert not built

    def test_bound_admits_its_own_order(self, monkeypatch, built):
        monkeypatch.setattr(weyl, "MAX_W0_ORDER", 120)
        assert len(FiniteWeylGroup(catalog("SL(5)"))) == 120
        assert len(built) == 120

    def test_cli_reports_one_error_line(self, monkeypatch, capsys, built):
        from satake.cli import main
        monkeypatch.setattr(weyl, "MAX_W0_ORDER", 100)
        assert main(["verify", "--group", "SL(5)"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not built
