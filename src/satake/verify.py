"""Self-verification suites, runnable from the CLI and reused by the
test suite.  Every suite returns (name, passed, detail) triples; all
comparisons are exact.
"""
from __future__ import annotations

import math
import random

from . import hecke, root_datum as rdm
from .hecke import KeyLengthError, SphericalHecke
from .k0 import ICClass, purity_weight
from .lattices import Vec, mat_vec, vadd, vscale, zero_vec
from .laurent import LaurentPoly
from .linear import LinComb
from .rep_ring import orbit
from .root_datum import RootDatum, RootDatumError, catalog


Result = tuple[str, bool, str]


def _random_element(W, rng: random.Random, max_length: int):
    n = len(W.simple_refs)
    if n == 0:
        # torus: only length-zero translations exist
        return W.translation(tuple(rng.randrange(-2, 3) for _ in range(W.rd.rank)))
    # a product of k simple reflections has length at most k <= max_length
    return W.word_to_element([rng.randrange(n) for _ in range(rng.randrange(max_length + 1))])


def suite_quadratic(sph: SphericalHecke) -> Result:
    iw = sph.iwahori
    qm1 = LaurentPoly(((1, 1), (0, -1)))
    q = LaurentPoly.q()
    for s in sph.W.simple_refs:
        lhs = iw.mul(iw.basis(s), iw.basis(s))
        rhs = LinComb(((s, qm1), (sph.W.identity, q)))
        if lhs != rhs:
            return ("iwahori quadratic relation", False, f"fails at {s!r}")
    return ("iwahori quadratic relation", True, f"{len(sph.W.simple_refs)} simple reflections")


def suite_associativity(sph: SphericalHecke, seed: int, triples: int, max_length: int) -> Result:
    iw = sph.iwahori
    rng = random.Random(seed)
    for t in range(triples):
        x, y, z = (iw.basis(_random_element(sph.W, rng, max_length)) for _ in range(3))
        if iw.mul(iw.mul(x, y), z) != iw.mul(x, iw.mul(y, z)):
            return ("iwahori associativity", False, f"failure at triple {t}")
    return ("iwahori associativity", True, f"{triples} random triples, lengths <= {max_length}")


def dominant_pairs(rd: RootDatum, dmax: int):
    reps = rdm.dominant_reps(rd, dmax)
    for mu in reps:
        for lam in reps:
            if rdm.d_pairing(rd, vadd(mu, lam)) <= dmax:
                yield mu, lam


def suite_cross_path(sph: SphericalHecke, dmax: int) -> tuple[Result, Result]:
    """Path equality and, on the same sweep, purity-weight additivity."""
    rd = sph.rd
    checked = 0
    weight_ok = True
    weight_detail = ""
    for mu, lam in dominant_pairs(rd, dmax):
        p1 = sph.c_mul_iwahori(mu, lam)
        p2 = sph.c_mul_satake(mu, lam)
        if p1 != p2:
            return (("cross-path oracle equality", False, f"mismatch at {mu} * {lam}"),
                    ("purity weight additivity", False, "not reached"))
        a, b = ICClass(mu, 0), ICClass(lam, 0)
        wsum = purity_weight(rd, a) + purity_weight(rd, b)
        for cls, _ in sph.k0.convolve_ic(a, b).items():
            if purity_weight(rd, cls) != wsum:
                weight_ok = False
                weight_detail = f"violation at {mu} * {lam} -> {cls!r}"
        checked += 1
    return (("cross-path oracle equality", True, f"{checked} dominant pairs, d <= {dmax}"),
            ("purity weight additivity", weight_ok, weight_detail or f"{checked} convolutions"))


def suite_kernel(sph: SphericalHecke) -> Result:
    rd = sph.rd
    zero = zero_vec(rd.rank)
    lhs = sph.k0.trace_to_hecke(
        LinComb.unit(ICClass(zero, -1)) - LinComb.unit(ICClass(zero, 0), LaurentPoly.q()))
    ok = lhs.is_zero()
    return ("trace kernel relation", ok, "trace(IC_0(-1) - q*IC_0) = 0" if ok else f"got {lhs!r}")


def suite_parity(sph: SphericalHecke, dmax: int) -> Result:
    rd = sph.rd
    bad = []
    rows = 0
    for mu in rdm.dominant_reps(rd, dmax):
        for row in sph.k0.parity_report(mu):
            rows += 1
            if not row["ok"]:
                bad.append((mu, row["lam"]))
    if bad:
        return ("stalk parity/positivity", False, f"violations at {bad[:3]}")
    return ("stalk parity/positivity", True, f"{rows} stalk rows, d <= {dmax}")


def suite_length_law(sph: SphericalHecke, dmax: int) -> Result:
    rd = sph.rd
    for mu in rdm.dominant_reps(rd, dmax):
        if sph.W.im_length(sph.W.translation(mu)) != rdm.d_pairing(rd, mu):
            return ("translation length law", False, f"fails at {mu}")
    return ("translation length law", True, f"all dominant representatives, d <= {dmax}")


def suite_specialization(sph: SphericalHecke, dmax: int) -> Result:
    """q -> 1 of the graded q-analogs, summed over the W_0-orbit of each
    weight, against Weyl's dimension formula
    prod_{alpha > 0} <alpha, 2mu + 2rho_hat> / <alpha, 2rho_hat>."""
    R = sph.k0.R
    rd = sph.rd
    two_rho_hat = rd.two_rho_hat()
    denom = math.prod(mat_vec(rd.positive_roots, two_rho_hat))
    for mu in rdm.dominant_reps(rd, dmax):
        shifted = vadd(vscale(2, mu), two_rho_hat)
        dim, rem = divmod(math.prod(mat_vec(rd.positive_roots, shifted)), denom)
        total = sum(R.lusztig_q_analog(mu, lam).eval_at_one() * len(orbit(rd, lam))
                    for lam in rdm.dominant_below(rd, mu))
        if rem or total != dim:
            return ("q=1 specialization", False, f"fails at {mu}")
    return ("q=1 specialization", True, f"all dominant pairs, d <= {dmax}")


def suite_dual_group(sph: SphericalHecke) -> Result:
    rd = sph.rd
    d = rdm.dual(rd)
    if rdm.dual(d).cartan_matrix() != rd.cartan_matrix():
        return ("dual group data", False, "double dual changed the Cartan matrix")
    try:
        accepted = catalog(d.name) == d
    except RootDatumError:
        accepted = False
    if not accepted:
        return ("dual group data", False, f"dual name {d.name!r} is not accepted back")
    return ("dual group data", True,
            f"dual = {d.name}, modified dual group = {rdm.g1_description(rd)}")


def suite_transform(sph: SphericalHecke, dmax: int, seed: int) -> Result:
    rd = sph.rd
    rng = random.Random(seed + 1)
    reps = rdm.dominant_reps(rd, dmax)
    # round trips on random elements
    for _ in range(10):
        f = LinComb((rng.choice(reps), LaurentPoly.q(rng.randrange(-2, 3), rng.randrange(-3, 4)))
                    for _ in range(3))
        if sph.satake_inverse(sph.satake_transform(f)) != f:
            return ("satake transform bijection", False, "round trip failed")
    # multiplicativity on small pairs
    for mu, lam in list(dominant_pairs(rd, min(dmax, 4))):
        lhs = sph.satake_transform(sph.c_mul_iwahori(mu, lam))
        rhs = sph.g1.quotient_normal_form(
            sph.g1.mul(sph.k0_to_g1(sph.ic_expansion(mu)), sph.k0_to_g1(sph.ic_expansion(lam))))
        if lhs != rhs:
            return ("satake transform bijection", False, f"not multiplicative at {mu}, {lam}")
    return ("satake transform bijection", True, "round trips and multiplicativity")


# the longest word of the associativity suite, as run_all runs it
ASSOCIATIVITY_LENGTH = 6


def longest_key_length(rd: RootDatum, bound: int) -> int:
    """A bound on the length of every key that the suites of ``run_all``
    pass to ``IwahoriHecke.mul``; it is attained once the largest d(mu)
    is at least twice ``ASSOCIATIVITY_LENGTH``.

    The cross-path product c_mu * c_lam multiplies Z_mu, whose keys
    t_mu u have length d(mu) - l(u), by T_x of length m(lam) <= d(lam)
    (``SphericalHecke.c_mul_iwahori``); (mu, 0) is one of its pairs for
    every representative mu, so these factors reach the largest d(mu).
    The transform suite multiplies a subset of the same pairs.  The
    associativity suite multiplies words of length at most
    ``ASSOCIATIVITY_LENGTH``, and the keys of their products, its
    intermediate factors, have at most twice that length.  The quadratic
    suite's keys have length 1."""
    reps = rdm.dominant_reps(rd, bound)
    return max(2 * ASSOCIATIVITY_LENGTH, *(rdm.d_pairing(rd, mu) for mu in reps))


def inject_stalk_fault(sph: SphericalHecke, reps: list[Vec]) -> bool:
    """Corrupt one stalk polynomial: add q to h_{mu,lam} for the first
    representative mu with a dominant lam < mu, the first such lam.
    Returns whether there was a stalk to corrupt."""
    for mu in reps:
        lams = [lam for lam in rdm.dominant_below(sph.rd, mu) if lam != mu]
        if lams:
            sph.k0._stalk_perturbation = {(mu, lams[0]): LaurentPoly.q()}
            return True
    return False


def run_all(rd: RootDatum, bound: int, seed: int, signed_trace: bool,
            inject_fault: bool) -> list[Result]:
    # a bound is refused before any suite when some key the suites would
    # pass to the Iwahori product is longer than hecke.MAX_KEY_LENGTH
    if longest_key_length(rd, bound) > hecke.MAX_KEY_LENGTH:
        raise KeyLengthError(hecke.MAX_KEY_LENGTH)
    sph = SphericalHecke(rd, signed_trace=signed_trace)
    # negative control: corrupt one stalk polynomial and expect the
    # cross-path oracle to notice
    if inject_fault and not inject_stalk_fault(sph, rdm.dominant_reps(rd, bound)):
        return [("fault injection", False, "no nontrivial stalk available to corrupt")]

    results = [
        suite_quadratic(sph),
        suite_associativity(sph, seed, triples=50, max_length=ASSOCIATIVITY_LENGTH),
        *suite_cross_path(sph, bound),
        suite_kernel(sph),
        suite_parity(sph, bound),
        suite_length_law(sph, bound),
        suite_specialization(sph, bound),
        suite_dual_group(sph),
        suite_transform(sph, bound, seed),
    ]
    if inject_fault:
        cross = next(r for r in results if r[0] == "cross-path oracle equality")
        detected = not cross[1]
        results.append(("fault injection negative control", detected,
                        "oracle mismatch detected" if detected else "corruption went unnoticed"))
    return results
