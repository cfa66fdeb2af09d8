"""Self-verification suites: each must be able to fail.  A suite is run on
a deliberately corrupted object and must report FAIL.  A bound whose
Iwahori keys would be too long is refused before any suite runs."""
import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, catalog, hecke, verify
from satake.hecke import KeyLengthError, SphericalHecke
from satake.rep_ring import RepRing
from satake.verify import longest_key_length, run_all, suite_dual_group, suite_specialization

from oracles import spherical_double_coset


class ShiftedQAnalogs(RepRing):
    """A fault in the Kostant sum that the q-analogs and the weight
    multiplicities share: every off-diagonal q-analog gains q, and the
    multiplicity read off at q=1 gains 1 with it."""

    def lusztig_q_analog(self, mu, lam):
        m = super().lusztig_q_analog(mu, lam)
        return m if tuple(lam) == tuple(mu) else m + LaurentPoly.q()

    def weight_multiplicity(self, mu, lam):
        return self.lusztig_q_analog(mu, lam).eval_at_one()


@pytest.mark.parametrize("name", ["PGL(2)", "SL(3)", "GL(3)", "Sp(4)"])
def test_specialization_catches_shifted_q_analogs(name, monkeypatch):
    rd = catalog(name)
    sph = SphericalHecke(rd)
    assert suite_specialization(sph, 4) == ("q=1 specialization", True,
                                            "all dominant pairs, d <= 4")
    monkeypatch.setattr(sph.k0, "R", ShiftedQAnalogs(rd))
    suite, passed, _ = suite_specialization(sph, 4)
    assert suite == "q=1 specialization" and not passed


@pytest.mark.parametrize("name", ["PGL(2)", "GL(3)", "Sp(4)*SL(2)"])
def test_dual_group_catches_a_dual_name_catalog_rejects(name, monkeypatch):
    rd = catalog(name)
    sph = SphericalHecke(rd)
    assert suite_dual_group(sph)[1]
    monkeypatch.setattr(rdm, "_dual_name", lambda n: f"dual({n})")
    suite, passed, _ = suite_dual_group(sph)
    assert suite == "dual group data" and not passed


@pytest.mark.parametrize("name", ["GL(3)", "Sp(4)", "Sp(4)*SL(2)"])
def test_longest_key_length_is_that_of_the_maximal_element(name):
    rd = catalog(name)
    W = SphericalHecke(rd).W
    for mu in rdm.dominant_reps(rd, 6):
        assert longest_key_length(rd, mu) == W.im_length(spherical_double_coset(W, mu)[2])


@pytest.mark.parametrize("inject_fault", [False, True])
def test_long_bound_is_refused_before_any_suite(monkeypatch, inject_fault):
    monkeypatch.setattr(hecke, "MAX_KEY_LENGTH", 4)
    monkeypatch.setattr(verify, "suite_quadratic",
                        lambda sph: pytest.fail("a suite ran before the bound was refused"))
    with pytest.raises(KeyLengthError, match="^product too long: key length exceeds bound 4$"):
        run_all(catalog("SL(3)"), 4, 0, signed_trace=False, inject_fault=inject_fault)
