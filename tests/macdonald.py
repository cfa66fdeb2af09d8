"""Macdonald's formula for the Satake transform, as a test oracle.

For dominant lam, with ``satake_transform(c_lam) = sum a_{mu,k} V[mu;k]``,
in Weyl-numerator form so that nothing is divided:

    W_lam(q^-1) sum_{(mu,k)} a_{mu,k}(q) q^(-k/2) A_{mu+rho^}
      = q^<rho,lam> sum_{w in W_0} (-1)^l(w) w(x^(lam+rho^) prod_{a^>0} (1 - q^-1 x^(-a^)))

where A_nu = sum_w (-1)^l(w) x^(w nu), W_lam is the Poincare polynomial
of the stabiliser of lam in W_0 and rho^ is half the sum of the positive
coroots (Macdonald, Spherical functions on a group of p-adic type, 1971;
Kato, Spherical functions and a q-analogue of Kostant's weight
multiplicity formula, 1982).  Under the signed trace V[mu;k] carries a
further (-1)^k.

Everything is doubled: a vector v stands for x^(v/2) and an exponent e
for q^(e/2), so rho^ and q^(-k/2) are integral.  Both sides are
alternating, so each is fixed by its coefficients on the dominant regular
chamber, where A_{mu+rho^} has the one monomial x^(mu+rho^): the left
side is read off at 2mu + 2rho^, and each monomial of the right side's
product is straightened into the chamber by simple reflections, carrying
its sign, and dropped if it lies on a wall.

From the package this reads only the root datum, W_0 (for the
stabiliser) and ``LaurentPoly``: no Kostant partition, tensor product or
Hecke product.
"""
from __future__ import annotations

import operator

from satake.laurent import LaurentPoly
from satake.root_datum import RootDatum, d_pairing
from satake.weyl import finite_weyl_group


def straighten(rd: RootDatum, v):
    """(sign, v+) with v+ = w v in the dominant regular chamber and sign
    (-1)^l(w), reflecting by s_i v = v - <alpha_i, v> alpha_i^ while some
    <alpha_i, v> < 0; None once v meets a wall <alpha_i, v> = 0."""
    sign = 1
    while True:
        pairings = [sum(map(operator.mul, a, v)) for a in rd.simple_roots]
        if 0 in pairings:
            return None
        i = next((i for i, c in enumerate(pairings) if c < 0), None)
        if i is None:
            return sign, v
        v = tuple(x - pairings[i] * b for x, b in zip(v, rd.simple_coroots[i]))
        sign = -sign


def two_rho_hat(rd: RootDatum):
    """2rho^, the sum of the positive coroots."""
    return tuple(map(sum, zip(*rd.positive_coroots))) if rd.positive_coroots else (0,) * rd.rank


def alternating_side(rd: RootDatum, lam) -> dict:
    """The right side on the chamber: {2nu: coefficient in doubled q}."""
    terms = {tuple(2 * x + r for x, r in zip(lam, two_rho_hat(rd))): LaurentPoly.q(d_pairing(rd, lam))}
    for bv in rd.positive_coroots:
        # times 1 - q^-1 x^(-a^), doubled
        step = dict(terms)
        for v, p in terms.items():
            v = tuple(x - 2 * b for x, b in zip(v, bv))
            step[v] = step.get(v, LaurentPoly()) - p.shift(-2)
        terms = step
    out: dict = {}
    for v, p in terms.items():
        chamber = straighten(rd, v)
        if chamber is not None:
            sign, v = chamber
            out[v] = out.get(v, LaurentPoly()) + p.scale(sign)
    return {v: p for v, p in out.items() if p}


def stabiliser_polynomial(rd: RootDatum, lam) -> LaurentPoly:
    """W_lam(q^-1), doubled: q^(-2 l(w)) over the w in W_0 with w lam = lam."""
    return LaurentPoly((-2 * w.length, 1) for w in finite_weyl_group(rd).elements
                       if w.apply_cochar(tuple(lam)) == tuple(lam))


def transform_side(rd: RootDatum, lam, transform, signed: bool) -> dict:
    """The left side on the chamber, from the transform of c_lam given as
    (mu, k, a_{mu,k}) triples: {2mu + 2rho^: coefficient in doubled q}."""
    w_lam = stabiliser_polynomial(rd, lam)
    out: dict = {}
    for mu, k, a in transform:
        v = tuple(2 * x + r for x, r in zip(mu, two_rho_hat(rd)))
        doubled = LaurentPoly((2 * e, c) for e, c in a.terms).shift(-k)
        if signed and k % 2:
            doubled = -doubled
        out[v] = out.get(v, LaurentPoly()) + w_lam * doubled
    return {v: p for v, p in out.items() if p}


def holds(rd: RootDatum, lam, transform, signed: bool) -> bool:
    """Whether the transform of c_lam satisfies Macdonald's formula."""
    return transform_side(rd, lam, transform, signed) == alternating_side(rd, lam)
