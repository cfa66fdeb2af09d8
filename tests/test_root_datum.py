"""Root data: catalog construction, duality, dominance order, the length
pairing, the fundamental group, and the modified dual group data."""
import hashlib
import itertools
import json
from pathlib import Path

import pytest

import satake.root_datum as rdm
from satake import RootDatumError, catalog, dual
from satake.lattices import vadd

from oracles import dominant_below_oracle, lattice_index_oracle
from test_acceptance import CROSS_PATH_CELLS
from test_weyl import CARTAN_TYPES, SYSTEM_GROUPS, from_cartan

CATALOG = ["GL(2)", "GL(3)", "SL(2)", "SL(3)", "PGL(2)", "PGL(3)", "Sp(4)", "SO(5)", "torus(1)"]
# every row of the catalog at its least n and above it, and all six rows
# in one product
ROW_NAMES = ["GL(1)", "GL(6)", "SL(7)", "PGL(7)", "torus(3)",
             "GL(2)*SL(3)*PGL(2)*Sp(4)*SO(5)*torus(1)"]


class TestCatalog:
    def test_gl2(self):
        rd = catalog("GL(2)")
        assert rd.rank == 2
        assert rd.simple_roots == ((1, -1),)
        assert rd.simple_coroots == ((1, -1),)

    def test_torus(self):
        rd = catalog("torus(1)")
        assert rd.rank == 1
        assert rd.simple_roots == ()
        assert rd.positive_roots == ()

    def test_sl3_cartan_matches_brute_force(self):
        rd = catalog("SL(3)")
        # recompute every Cartan entry by a literal sum over the dual bases,
        # without going through rd.pair
        cartan = []
        for a in rd.simple_roots:
            row = []
            for bv in rd.simple_coroots:
                row.append(sum(a[i] * bv[i] for i in range(rd.rank)))
            cartan.append(tuple(row))
        assert tuple(cartan) == ((2, -1), (-1, 2))
        assert rd.cartan_matrix() == ((2, -1), (-1, 2))

    def test_sp4_roots(self):
        rd = catalog("Sp(4)")
        assert set(rd.positive_roots) == {(1, -1), (0, 2), (1, 1), (2, 0)}
        assert rd.two_rho() == (4, 2)

    @pytest.mark.parametrize("name", CATALOG + ROW_NAMES + SYSTEM_GROUPS + sorted(CARTAN_TYPES))
    def test_two_rho_hat_is_the_sum_of_positive_coroots(self, name):
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        total = tuple(sum(bv[j] for bv in rd.positive_coroots) for j in range(rd.rank))
        assert rd.two_rho_hat() == total
        assert dual(rd).two_rho() == total

    def test_product(self):
        rd = catalog("GL(2)*torus(1)")
        assert rd.rank == 3
        assert rd.simple_roots == ((1, -1, 0),)

    def test_unknown_group(self):
        with pytest.raises(RootDatumError):
            catalog("E(8)")
        with pytest.raises(RootDatumError):
            catalog("torus(0)")

    @pytest.mark.parametrize("name", ["GL(21)", "torus(100000)", "SL(3)*GL(20)",
                                      f"GL({rdm.MAX_RANK})*torus(1)"])
    def test_rank_refused_from_the_name(self, monkeypatch, name):
        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(rdm.lattices, "identity_matrix", no_matrix)
        monkeypatch.setattr(rdm, "make_root_datum", no_matrix)
        with pytest.raises(RootDatumError, match=f"above the bound {rdm.MAX_RANK}"):
            catalog(name)

    @pytest.mark.parametrize("fam", sorted(rdm._FAMILIES))
    def test_row_rank_is_the_rank_built(self, fam):
        """Each row's rank column, which the rank bound reads, against the
        datum built for every n it accepts up to the bound, and the first
        n past either end refused."""
        row = rdm._FAMILIES[fam]
        n = row.least
        while (row.most is None or n <= row.most) and row.rank(n) <= rdm.MAX_RANK:
            assert catalog(f"{fam}({n})").rank == row.rank(n), n
            n += 1
        assert n > row.least
        for refused in (row.least - 1, n):
            with pytest.raises(RootDatumError):
                catalog(f"{fam}({refused})")

    @pytest.mark.parametrize("roots, coroots", [([(2,)], [(1,)]), ([(1, -1)], [(1,)]),
                                                ([(1, -1, 0)], [(1, -1, 0)])])
    def test_wrong_length_vectors_refused(self, roots, coroots):
        with pytest.raises(RootDatumError, match="not the rank 2"):
            rdm.make_root_datum("X", 2, roots, coroots)

    def test_validation_roots_pair_to_two(self):
        for name in CATALOG:
            rd = catalog(name)
            for beta, bv in zip(rd.positive_roots, rd.positive_coroots):
                assert rd.pair(beta, bv) == 2


class TestDual:
    def test_pgl2_dual_is_sl2(self):
        assert dual(catalog("PGL(2)")).name == "SL(2)"
        assert dual(catalog("PGL(2)")).cartan_matrix() == catalog("SL(2)").cartan_matrix()

    def test_gl_self_dual(self):
        rd = catalog("GL(3)")
        assert dual(rd).name == "GL(3)"
        assert dual(rd).simple_roots == rd.simple_coroots

    def test_sl3_dual_is_pgl3_with_index_three(self):
        dd = dual(catalog("SL(3)"))
        assert dd.name == "PGL(3)"
        assert rdm.pi1_invariants(dd) == (0, 3)

    @pytest.mark.parametrize("name", ["SL(2)", "SL(3)", "PGL(2)", "PGL(3)", "Sp(4)", "SO(5)",
                                      "PGL(2)*PGL(3)", "SO(5)*PGL(2)"])
    def test_pi1_torsion_matches_coset_count(self, name):
        rd = catalog(name)
        # brute-force coset enumeration of X_* modulo the coroot span
        assert rdm.pi1_invariants(rd) == (0, lattice_index_oracle(rd.simple_coroots, rd.rank))

    def test_double_dual_cartan(self):
        for name in CATALOG:
            rd = catalog(name)
            assert dual(dual(rd)).cartan_matrix() == rd.cartan_matrix()

    @pytest.mark.parametrize("name", CATALOG + ["Sp(4)*SL(2)", "SL(2)*PGL(2)"] + ROW_NAMES)
    def test_dual_name_is_accepted_back(self, name):
        rd = catalog(name)
        assert catalog(dual(rd).name) == dual(rd)

    def test_pi1_invariants(self):
        assert rdm.pi1_invariants(catalog("GL(2)")) == (1, 1)
        assert rdm.pi1_invariants(catalog("SL(3)")) == (0, 1)
        assert rdm.pi1_invariants(catalog("PGL(2)")) == (0, 2)
        assert rdm.pi1_invariants(catalog("Sp(4)")) == (0, 1)
        assert rdm.pi1_invariants(catalog("torus(1)")) == (1, 1)


class TestDominance:
    def test_gl2_examples(self):
        rd = catalog("GL(2)")
        assert rdm.dominance_leq(rd, (1, 1), (2, 0))
        assert rdm.dominance_leq(rd, (1, 0), (1, 0))
        assert not rdm.dominance_leq(rd, (0, 0), (1, 0))

    @pytest.mark.parametrize("name", ["GL(2)", "SL(3)", "Sp(4)"])
    def test_partial_order_axioms(self, name):
        rd = catalog(name)
        reps = rdm.dominant_reps(rd, 8)
        for mu in reps:
            assert rdm.dominance_leq(rd, mu, mu)
        for mu, lam in itertools.permutations(reps, 2):
            if rdm.dominance_leq(rd, mu, lam) and rdm.dominance_leq(rd, lam, mu):
                assert mu == lam
        for mu, lam, nu in itertools.product(reps, repeat=3):
            if rdm.dominance_leq(rd, mu, lam) and rdm.dominance_leq(rd, lam, nu):
                assert rdm.dominance_leq(rd, mu, nu)

    def test_dominant_below_contains_endpoints(self):
        rd = catalog("SL(3)")
        below = rdm.dominant_below(rd, (2, 2))
        assert (2, 2) in below
        assert (0, 0) in below
        for lam in below:
            assert rdm.dominance_leq(rd, lam, (2, 2))

    def test_dominant_below_returns_a_fresh_list(self):
        """The walk is kept per (rd, mu); what a caller does to the list it
        gets must not reach the next caller."""
        rd = catalog("SL(3)")
        first = rdm.dominant_below(rd, [2, 2])
        expected = list(first)
        first.append((9, 9))
        first.reverse()
        second = rdm.dominant_below(rd, (2, 2))
        assert type(second) is list and second == expected and second is not first


class TestDominantBelow:
    """dominant_below walks down from mu by positive coroots through
    dominant weights only, which reaches every dominant lam <= mu by
    Stembridge, The partial order of dominant weights, Adv. Math. 136
    (1998), Cor. 2.7; the oracle enumerates every mu - sum c_i alpha_i^ of
    height at most <rho, mu> instead."""

    CELLS = ([(name, dmax + 4) for name, dmax in CROSS_PATH_CELLS]
             + [(name, 8) for name in SYSTEM_GROUPS]
             + [("G2", 20), ("B3", 12), ("D4", 10), ("F4", 16), ("A2+A1", 10)]
             + [("GL(6)", 6), ("torus(2)", 4)])

    @pytest.mark.parametrize("name, dmax", CELLS)
    def test_matches_enumeration(self, name, dmax):
        rd = from_cartan(name, CARTAN_TYPES[name]) if name in CARTAN_TYPES else catalog(name)
        reps = rdm.dominant_reps(rd, dmax)
        assert len(reps) > 1 or not rd.semisimple_rank
        for mu in reps:
            assert rdm.dominant_below(rd, mu) == dominant_below_oracle(rd, mu), mu

    @pytest.mark.parametrize("name, mu", [("SL(3)", (1, 1)), ("GL(3)", (1, 0, -1))])
    def test_simple_coroots_alone_miss_weights(self, name, mu):
        """A mutant walking by the simple coroots only fails the check
        above: from the highest coroot of type A2, mu - alpha_i^ is never
        dominant, so 0 is not reached."""
        rd = catalog(name)
        mutant = rd._replace(positive_coroots=rd.simple_coroots)
        zero = (0,) * rd.rank
        assert rdm.dominant_below(rd, mu) == dominant_below_oracle(rd, mu) == [zero, mu]
        assert rdm.dominant_below(mutant, mu) == [mu]


class TestLengthPairing:
    def test_gl2(self):
        rd = catalog("GL(2)")
        assert rdm.d_pairing(rd, (1, 0)) == 1
        assert rdm.d_pairing(rd, (0, 0)) == 0

    def test_linearity(self):
        for name in CATALOG:
            rd = catalog(name)
            reps = rdm.dominant_reps(rd, 4)
            for mu, lam in itertools.product(reps, repeat=2):
                assert rdm.d_pairing(rd, vadd(mu, lam)) == \
                    rdm.d_pairing(rd, mu) + rdm.d_pairing(rd, lam)

    def test_parity_constant_on_pi1_classes(self):
        for name in CATALOG:
            rd = catalog(name)
            reps = rdm.dominant_reps(rd, 8)
            for mu, lam in itertools.combinations(reps, 2):
                if rdm.pi1_label(rd, mu) == rdm.pi1_label(rd, lam):
                    assert rdm.parity(rd, mu) == rdm.parity(rd, lam)


class TestModifiedDualGroup:
    def test_gl_n_epsilon_trivial_iff_n_odd(self):
        for n in range(1, 6):
            rd = catalog(f"GL({n})")
            # independent check with the closed-form 2rho = (n-1, n-3, ..., 1-n)
            two_rho = tuple(n - 1 - 2 * i for i in range(n))
            assert rd.two_rho() == two_rho
            trivial = all((-1) ** two_rho[i] == 1 for i in range(n))
            assert trivial == (n % 2 == 1)
            assert rdm.epsilon_trivial(rd) == trivial

    def test_pgl2_reports_gl2(self):
        rd = catalog("PGL(2)")
        assert not rdm.epsilon_trivial(rd)
        assert rdm.g1_description(rd) == "GL(2)"

    def test_sl2_reports_direct_product(self):
        rd = catalog("SL(2)")
        assert rdm.epsilon_trivial(rd)
        assert "direct product" in rdm.g1_description(rd)

    def test_epsilon_trivial_iff_direct_product(self):
        for name in CATALOG:
            rd = catalog(name)
            assert rdm.epsilon_trivial(rd) == ("direct product" in rdm.g1_description(rd))


class TestEnumeration:
    def test_dominant_reps_are_dominant_and_bounded(self):
        for name in CATALOG:
            rd = catalog(name)
            reps = rdm.dominant_reps(rd, 8)
            assert len(reps) == len(set(reps))
            for mu in reps:
                assert rdm.is_dominant(rd, mu)
                assert rdm.d_pairing(rd, mu) <= 8

    @pytest.mark.parametrize("name", ["SL(3)", "PGL(3)", "Sp(4)", "SO(5)", "Sp(4)*SL(2)"])
    def test_dominant_reps_match_enumeration(self, name):
        # with a finite centre every dominant cocharacter is its own
        # representative, so the reps are all dominant mu with d_mu <= 10
        rd = catalog(name)
        box = range(-10, 11)
        expected = [mu for mu in itertools.product(box, repeat=rd.rank)
                    if all(rd.pair(a, mu) >= 0 for a in rd.simple_roots)
                    and sum(rd.pair(beta, mu) for beta in rd.positive_roots) <= 10]
        assert rdm.dominant_reps(rd, 10) == expected

    def test_assert_dominant_rejects(self):
        rd = catalog("GL(2)")
        with pytest.raises(RootDatumError):
            rdm.assert_dominant(rd, (0, 1))
        with pytest.raises(RootDatumError):
            rdm.assert_dominant(rd, (1, 0, 0))


class TestSerialization:
    GL2_GOLDEN = ('{"name":"GL(2)","rank":2,"pairing_matrix":[[1,0],[0,1]],'
                  '"simple_roots":[[1,-1]],"simple_coroots":[[1,-1]]}')

    def test_gl2_golden_bytes(self):
        assert catalog("GL(2)").to_json() == self.GL2_GOLDEN

    @pytest.mark.parametrize("name, digest", [
        ("GL(2)", "e75856e92aad4f5dcfe588fb60169f3e16d314b369f16bcc24f33c9529daad8f"),
        ("GL(3)", "7e9270ccdd805853544a67f8509a340924fe12cd7411a9ec11bb69c203791fd3"),
        ("SL(2)", "c863758dd3b4aca203514787096ebf32bf3aea33755bfbffe1cc15d0355e746a"),
        ("SL(3)", "0304b75bf2bd60fc2444efe09cc0b96962c62e2ca7539889481b643ef23cb6a1"),
        ("PGL(2)", "fdd508e5e2a77421f4a84567c7b8b2730dc99c1b3d68c47701bfd833ffafe84b"),
        ("PGL(3)", "58fda369ebd071040ace4a6b1088993c072648f62d706dbc966de7b20fcebd56"),
        ("Sp(4)", "c0efaef1870b86d3452d17f9114390563e211a34ab0672fdc7dfff47fe7e8acc"),
        ("SO(5)", "7652d605853c5708eae7f19d63a88729f2c7c719072115075ad7f78bb4505776"),
        ("torus(1)", "361e073478f75d01b986ec5880ec3223d89cb040e1554ea7162901b395e09361"),
        ("Sp(4)*SL(2)", "1159d1dd6d190cb87067902b9483e32eb2ce15c8948be961128f71de8242aa17"),
        ("SO(5)*PGL(3)*torus(2)",
         "93bf8bbf190d98c91d8203843d8f4d0daa7418a1cc8225b60ca6558f6926a53a"),
        ("GL(20)", "7a88c3194a07362c8ff631653f57e5d39684ca3d173edff6bf57542b1ed68ba4"),
    ])
    def test_golden_digests(self, name, digest):
        """sha256 of to_json(); "pairing_matrix" is always the identity,
        as the characters are written in the dual basis."""
        assert hashlib.sha256(catalog(name).to_json().encode()).hexdigest() == digest

    def test_schema_validates_catalog(self):
        import jsonschema
        schema = json.loads(
            (Path(__file__).parent.parent / "src" / "satake" / "schemas"
             / "root_datum.schema.json").read_text())
        for name in CATALOG:
            jsonschema.validate(json.loads(catalog(name).to_json()), schema)
