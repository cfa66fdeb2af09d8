"""Self-verification suites: each must be able to fail.  A suite is run on
a deliberately corrupted object and must report FAIL.  A bound whose
Iwahori keys would be too long is refused before any suite runs."""
import pytest

import satake.root_datum as rdm
from satake import LaurentPoly, catalog, hecke, verify
from satake.hecke import KeyLengthError, SphericalHecke
from satake.rep_ring import RepRing
from satake.verify import longest_key_length, run_all, suite_dual_group, suite_specialization


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


# (group, bound): the gate of the first two is the longest cross-path
# factor, that of the last the associativity suite's intermediate products
EDGE_CELLS = [("Sp(4)", 14), ("GL(3)", 14), ("Sp(4)*SL(2)", 4)]


@pytest.mark.parametrize("name, bound", EDGE_CELLS)
def test_no_suite_is_refused_at_the_key_length_edge(monkeypatch, name, bound):
    """With MAX_KEY_LENGTH at the gate, every suite runs and passes, and
    the longest key passed to IwahoriHecke.mul is at most the gate, equal
    to it when the cross-path factors set it."""
    rd = catalog(name)
    edge = longest_key_length(rd, bound)
    monkeypatch.setattr(hecke, "MAX_KEY_LENGTH", edge)
    seen = []
    mul = hecke.IwahoriHecke.mul

    def measured(iw, a, b):
        seen.extend(iw.W.im_length(x) for x in (*a.keys(), *b.keys()))
        return mul(iw, a, b)

    monkeypatch.setattr(hecke.IwahoriHecke, "mul", measured)
    results = run_all(rd, bound, 0, signed_trace=False, inject_fault=False)
    assert all(ok for _, ok, _ in results), results
    assert max(seen) <= edge
    d_max = max(rdm.d_pairing(rd, mu) for mu in rdm.dominant_reps(rd, bound))
    assert edge == max(d_max, 2 * verify.ASSOCIATIVITY_LENGTH)
    if d_max >= edge:
        assert max(seen) == edge


@pytest.mark.parametrize("inject_fault", [False, True])
def test_long_bound_is_refused_before_any_suite(monkeypatch, inject_fault):
    """One step above the edge, run_all refuses before any suite runs."""
    monkeypatch.setattr(verify, "suite_quadratic",
                        lambda sph: pytest.fail("a suite ran before the bound was refused"))
    for name, bound in EDGE_CELLS:
        rd = catalog(name)
        below = longest_key_length(rd, bound) - 1
        monkeypatch.setattr(hecke, "MAX_KEY_LENGTH", below)
        with pytest.raises(KeyLengthError,
                           match=f"^product too long: key length exceeds bound {below}$"):
            run_all(rd, bound, 0, signed_trace=False, inject_fault=inject_fault)
