"""Dual-side representation theory: the q-Kostant partition function,
weight multiplicities against the Freudenthal oracle, tensor products
against the Brauer-Klimyk oracle and against greedy peeling of the full
character product, q-analogs, and the twisted representation ring with
its quotient."""
import itertools
import random

import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, LinComb, catalog, g1_class, g1_ring, rep_ring
from satake.laurent import ONE, ZERO
from satake.rep_ring import G1RepClass, RepRing, RepRingError, orbit

from oracles import (FreudenthalOracle, character_oracle, class_element, greedy_tensor_decompose,
                     kostant_partition, orbit_oracle, partition_count_oracle, q_analog_oracle,
                     tensor_oracle, weyl_dim)
from test_acceptance import CROSS_PATH_CELLS
from test_weyl import CARTAN_TYPES, from_cartan

# every cross-path group four steps of d beyond its cross-path bound, and
# every Cartan type; each cell runs in well under 2 s
W0_ORACLE_CELLS = [(name, dmax + 4) for name, dmax in CROSS_PATH_CELLS] + [
    ("G2", 20), ("B3", 12), ("D4", 10), ("F4", 16), ("A2+A1", 10)]


def P(*terms):
    return LaurentPoly(terms)


class TestKostantPartition:
    def test_zero_vector(self):
        for name in ["SL(2)", "SL(3)", "Sp(4)"]:
            assert kostant_partition(rep_ring(catalog(name)), (0,) * catalog(name).rank) == ONE

    def test_sl2_string(self):
        R = rep_ring(catalog("SL(2)"))
        for k in range(5):
            assert kostant_partition(R, (k,)) == LaurentPoly.q(k)

    def test_sl3_two_expressions(self):
        rd = catalog("SL(3)")
        assert kostant_partition(rep_ring(rd), (1, 1)) == P((1, 1), (2, 1))
        # exhaustive multiset enumeration: one singleton and one pair
        assert partition_count_oracle(rd, (1, 1)) == [1, 2]

    def test_outside_cone(self):
        R = rep_ring(catalog("SL(3)"))
        assert kostant_partition(R, (-1, 0)) == ZERO

    @pytest.mark.parametrize("name", ["SL(3)", "Sp(4)"])
    def test_matches_enumeration_oracle(self, name):
        rd = catalog(name)
        R = rep_ring(rd)
        for v in itertools.product(range(4), repeat=rd.rank):
            sizes = partition_count_oracle(rd, v)
            expected = LaurentPoly((s, 1) for s in sizes)
            assert kostant_partition(R, v) == expected


class TestWeightMultiplicity:
    def test_highest_weight(self):
        for name in ["PGL(2)", "SL(3)", "GL(2)", "Sp(4)"]:
            rd = catalog(name)
            R = rep_ring(rd)
            for mu in rdm.dominant_reps(rd, 6):
                assert R.weight_multiplicity(mu, mu) == 1

    def test_pgl2_string(self):
        R = rep_ring(catalog("PGL(2)"))
        for m in range(2, 7):
            assert R.weight_multiplicity((m,), (m - 2,)) == 1
        assert R.weight_multiplicity((3,), (2,)) == 0

    def test_pgl3_adjoint(self):
        rd = catalog("PGL(3)")
        R = rep_ring(rd)
        adjoint = (1, 1)
        assert R.weight_multiplicity(adjoint, (0, 0)) == 2
        assert weyl_dim(R, adjoint) == 8
        assert FreudenthalOracle(rd).multiplicity(adjoint, (0, 0)) == 2

    def test_gl2_symmetric_powers(self):
        R = rep_ring(catalog("GL(2)"))
        for m in range(6):
            assert weyl_dim(R, (m, 0)) == m + 1

    def test_unit_dimension(self):
        for name in ["PGL(2)", "SL(3)", "torus(1)"]:
            rd = catalog(name)
            assert weyl_dim(rep_ring(rd), (0,) * rd.rank) == 1

    @pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "GL(2)", "Sp(4)"])
    def test_against_freudenthal(self, name):
        rd = catalog(name)
        R = rep_ring(rd)
        oracle = FreudenthalOracle(rd)
        for mu in rdm.dominant_reps(rd, 6):
            for lam in rdm.dominant_below(rd, mu):
                assert R.weight_multiplicity(mu, lam) == oracle.multiplicity(mu, lam)

    def test_character_is_weyl_invariant(self):
        rd = catalog("Sp(4)")
        R = rep_ring(rd)
        from satake.weyl import affine_weyl_group
        W = affine_weyl_group(rd)
        char = R.character((1, 1))
        for v, m in char.items():
            for w in W.W0.elements:
                assert char[w.apply_cochar(v)] == m


class TestTensorDecompose:
    def test_unit(self):
        rd = catalog("SL(3)")
        R = rep_ring(rd)
        for mu in rdm.dominant_reps(rd, 4):
            assert R.tensor_decompose(mu, (0, 0)) == {mu: 1}

    def test_gl2_standard_square(self):
        R = rep_ring(catalog("GL(2)"))
        assert R.tensor_decompose((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}

    def test_pgl2_clebsch_gordan(self):
        R = rep_ring(catalog("PGL(2)"))
        assert R.tensor_decompose((1,), (1,)) == {(2,): 1, (0,): 1}
        assert R.tensor_decompose((2,), (3,)) == {(5,): 1, (3,): 1, (1,): 1}

    @pytest.mark.parametrize("name", ["GL(2)", "PGL(2)", "SL(2)", "SL(3)"])
    def test_symmetry_and_dimension_rule(self, name):
        rd = catalog(name)
        R = rep_ring(rd)
        reps = rdm.dominant_reps(rd, 5)
        for mu, lam in itertools.product(reps, repeat=2):
            if rdm.d_pairing(rd, mu) + rdm.d_pairing(rd, lam) > 10:
                continue
            dec = R.tensor_decompose(mu, lam)
            assert dec == R.tensor_decompose(lam, mu)
            assert sum(n * weyl_dim(R, nu) for nu, n in dec.items()) == \
                weyl_dim(R, mu) * weyl_dim(R, lam)
            for nu, n in dec.items():
                assert n > 0
                assert rdm.dominance_leq(rd, nu, tuple(a + b for a, b in zip(mu, lam)))

    @pytest.mark.parametrize("name", ["SL(3)", "Sp(4)", "GL(2)"])
    def test_against_klimyk_oracle(self, name):
        rd = catalog(name)
        R = rep_ring(rd)
        oracle = FreudenthalOracle(rd)
        reps = rdm.dominant_reps(rd, 4)
        for mu, lam in itertools.product(reps, repeat=2):
            assert R.tensor_decompose(mu, lam) == tensor_oracle(rd, mu, lam, oracle)

    @pytest.mark.parametrize("name, bound", [
        ("PGL(2)", 6), ("GL(3)", 6), ("Sp(4)", 6), ("SO(5)", 6), ("Sp(4)*SL(2)", 4),
        ("GL(4)", 4), ("torus(1)", 4)])
    def test_against_greedy_peeling(self, name, bound):
        # same constituents in the same order: decreasing (<2rho, nu>, nu)
        rd = catalog(name)
        R = rep_ring(rd)
        if rd.semisimple_rank:
            reps = rdm.dominant_reps(rd, bound)
        else:
            reps = [(k,) for k in range(-bound, bound + 1)]
        for mu, lam in itertools.product(reps, repeat=2):
            assert list(R.tensor_decompose(mu, lam).items()) == \
                list(greedy_tensor_decompose(R, mu, lam).items()), (mu, lam)

    def test_torus_weights_add(self):
        R = rep_ring(catalog("torus(1)"))
        for a, b in itertools.product(range(-3, 4), repeat=2):
            assert R.tensor_decompose((a,), (b,)) == {(a + b,): 1}

    def test_negative_net_multiplicity_raises(self):
        # a corrupted character: 2((1) + (-3)) + 2rho_hat = -3 reflects
        # once, onto 3, which is 2(1) + 2rho_hat, so V(1) gets net -1
        R = RepRing(catalog("PGL(2)"))
        R._char_cache[(1,)] = {(-3,): 1}
        with pytest.raises(RepRingError, match="negative multiplicity"):
            R.tensor_decompose((1,), (1,))

    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_warm_caches_still_refuse_bad_weights(self, name):
        # weights are checked only when a cache misses: a bad weight never
        # enters a cache, and a list finds the entry of its tuple
        rd = catalog(name)
        R = rep_ring(rd)
        mu = max(rdm.dominant_reps(rd, 4), key=lambda v: rdm.d_pairing(rd, v))
        char, dec = R.character(mu), R.tensor_decompose(mu, mu)
        assert R.character(list(mu)) is char
        assert R.tensor_decompose(list(mu), list(mu)) is dec
        for bad in (tuple(-c for c in mu), mu + (0,)):
            for call in (lambda: R.character(bad), lambda: R.tensor_decompose(mu, bad),
                         lambda: R.tensor_decompose(bad, mu)):
                with pytest.raises(rdm.RootDatumError):
                    call()


class TestWorkCounts:
    @pytest.mark.parametrize("name", ["SL(3)", "GL(3)", "Sp(4)*SL(2)"])
    def test_tensor_reads_only_the_smaller_character(self, monkeypatch, name):
        calls = []
        character = RepRing.character

        def recorded_character(R, mu):
            calls.append(tuple(mu))
            return character(R, mu)

        monkeypatch.setattr(RepRing, "character", recorded_character)
        rd = catalog(name)
        reps = rdm.dominant_reps(rd, 6)
        small = min(reps[1:], key=lambda v: rdm.d_pairing(rd, v))
        big = max(reps, key=lambda v: rdm.d_pairing(rd, v))
        assert rdm.d_pairing(rd, small) < rdm.d_pairing(rd, big)
        for mu, lam in ((small, big), (big, small)):
            calls.clear()
            RepRing(rd).tensor_decompose(mu, lam)
            assert calls == [small], (mu, lam)


class TestLusztigQAnalog:
    def test_diagonal_is_one(self):
        for name in ["PGL(2)", "SL(3)", "Sp(4)"]:
            rd = catalog(name)
            R = rep_ring(rd)
            for mu in rdm.dominant_reps(rd, 6):
                assert R.lusztig_q_analog(mu, mu) == ONE

    def test_pgl2_example(self):
        R = rep_ring(catalog("PGL(2)"))
        assert R.lusztig_q_analog((2,), (0,)) == LaurentPoly.q()
        # rank one: a single surviving Kostant term, q^((mu - lam)/2)
        assert R.lusztig_q_analog((4,), (0,)) == LaurentPoly.q(2)

    @pytest.mark.parametrize("name", ["GL(2)", "PGL(2)", "SL(3)", "Sp(4)"])
    def test_positivity_and_specialization(self, name):
        rd = catalog(name)
        R = rep_ring(rd)
        oracle = FreudenthalOracle(rd)
        for mu in rdm.dominant_reps(rd, 10):
            for lam in rdm.dominant_below(rd, mu):
                m = R.lusztig_q_analog(mu, lam)
                assert m.has_nonnegative_coefficients()
                assert m.eval_at_one() == oracle.multiplicity(mu, lam)


class TestAgainstW0Oracles:
    """The simple-reflection walks of rep_ring against sums and images over
    all of W_0: the dual path reads no W_0 table, so these are the only
    places where the two meet."""

    @pytest.fixture(params=W0_ORACLE_CELLS, ids=lambda cell: f"{cell[0]}-d{cell[1]}")
    def cell(self, request):
        name, dmax = request.param
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        return rd, rdm.dominant_reps(rd, dmax)

    def test_orbit(self, cell):
        rd, reps = cell
        for lam in reps:
            found = orbit(rd, lam)
            # kept per (rd, lam), so immutable
            assert type(found) is tuple and orbit(rd, lam) is found
            assert found[0] == lam and len(set(found)) == len(found)
            assert set(found) == orbit_oracle(rd, lam), lam

    def test_lusztig_q_analog(self, cell):
        rd, reps = cell
        R = RepRing(rd)
        pairs = [(mu, lam) for mu in reps for lam in rdm.dominant_below(rd, mu)]
        assert any(mu != lam for mu, lam in pairs)
        for mu, lam in pairs:
            assert R.lusztig_q_analog(mu, lam) == q_analog_oracle(rd, mu, lam), (mu, lam)

    def test_character(self, cell):
        rd, reps = cell
        R = RepRing(rd)
        for mu in reps:
            assert R.character(mu) == character_oracle(rd, mu), mu


class TestG1Ring:
    def test_class_parity_enforced(self):
        rd = catalog("PGL(2)")
        assert g1_class(rd, (1,), n=0).k == -1
        assert g1_class(rd, (0,), n=1).k == 2  # the square character
        with pytest.raises(RepRingError):
            g1_class(rd, (1,), k=0)
        with pytest.raises(ValueError):
            g1_class(rd, (1,))

    def test_unit_product(self):
        rd = catalog("GL(2)")
        G = g1_ring(rd)
        x = class_element(G, (2, 0), n=1)
        assert G.mul(x, G.unit()) == x

    def test_gl2_standard_square(self):
        rd = catalog("GL(2)")
        G = g1_ring(rd)
        s = class_element(G, (1, 0), n=0)
        prod = G.mul(s, s)
        assert prod == LinComb(((G1RepClass((2, 0), -2), ONE),
                                (G1RepClass((1, 1), -2), ONE)))
        # the (1,1) constituent sits at twist -1: k = 2n - <2rho, mu>
        assert g1_class(rd, (1, 1), k=-2) == g1_class(rd, (1, 1), n=-1)

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)", "SL(3)"])
    def test_associative_commutative(self, name):
        rd = catalog(name)
        G = g1_ring(rd)
        rng = random.Random(13)
        reps = rdm.dominant_reps(rd, 4)

        def rand_elt():
            return LinComb((g1_class(rd, rng.choice(reps), n=rng.randrange(-1, 2)),
                            LaurentPoly.q(rng.randrange(-1, 2), rng.randrange(1, 4)))
                           for _ in range(2))

        for _ in range(10):
            x, y, z = rand_elt(), rand_elt(), rand_elt()
            assert G.mul(x, y) == G.mul(y, x)
            assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))

    def test_quotient_normal_form(self):
        rd = catalog("PGL(2)")
        G = g1_ring(rd)
        d_inv = LinComb.unit(G1RepClass((0,), -2))
        assert G.quotient_normal_form(d_inv) == LinComb.unit(G1RepClass((0,), 0), LaurentPoly.q())
        x = LinComb.unit(G1RepClass((2,), 4), P((0, 3)))
        nf = G.quotient_normal_form(x)
        assert nf == LinComb.unit(G1RepClass((2,), 0), P((-2, 3)))
        assert G.quotient_normal_form(nf) == nf

    def test_quotient_identifies_shifted_classes(self):
        rd = catalog("GL(2)")
        G = g1_ring(rd)
        a = LinComb.unit(G1RepClass((1, 1), 2))
        b = LinComb.unit(G1RepClass((1, 1), 0), LaurentPoly.q(-1))
        assert G.quotient_normal_form(a) == G.quotient_normal_form(b)

    @pytest.mark.parametrize("name", ["PGL(2)", "GL(2)"])
    def test_quotient_is_ring_homomorphism(self, name):
        rd = catalog(name)
        G = g1_ring(rd)
        rng = random.Random(17)
        reps = rdm.dominant_reps(rd, 4)
        for _ in range(10):
            x = LinComb.unit(g1_class(rd, rng.choice(reps), n=rng.randrange(-2, 3)))
            y = LinComb.unit(g1_class(rd, rng.choice(reps), n=rng.randrange(-2, 3)))
            lhs = G.quotient_normal_form(G.mul(x, y))
            rhs = G.quotient_normal_form(
                G.mul(G.quotient_normal_form(x), G.quotient_normal_form(y)))
            assert lhs == rhs
