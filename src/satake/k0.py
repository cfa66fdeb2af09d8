"""The Grothendieck group of the spherical Satake category: twisted
intersection-motive classes, their convolution via tensor decomposition
on the dual side with the forced twist rule, purity bookkeeping, and the
trace map to spherical Hecke functions.

Spherical Hecke functions are LinCombs keyed by dominant cocharacter
tuples (the indicator basis c_mu).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import root_datum as rdm
from .lattices import Vec, zero_vec
from .laurent import LaurentPoly
from .linear import LinComb
from .rep_ring import rep_ring
from .root_datum import RootDatum


class K0Error(RuntimeError):
    pass


@dataclass(frozen=True)
class ICClass:
    """A twisted intersection-motive class (mu, n): dominant cocharacter
    mu with Tate twist n; pure of weight <2rho, mu> - 2n."""

    mu: Vec
    n: int

    def __repr__(self) -> str:
        return f"IC[{','.join(map(str, self.mu))}]({self.n})"


def ic_class(rd: RootDatum, mu: Vec, n: int = 0) -> ICClass:
    return ICClass(rdm.assert_dominant(rd, mu), n)


def purity_weight(rd: RootDatum, a: ICClass) -> int:
    return rdm.d_pairing(rd, a.mu) - 2 * a.n


class SatakeK0:
    """K_0 of the spherical Satake category, free on ICClass keys."""

    def __init__(self, rd: RootDatum, signed_trace: bool = False):
        self.rd = rd
        self.R = rep_ring(rd)
        self.signed_trace = signed_trace
        self._ic_fn_cache: dict[Vec, LinComb] = {}
        self._stalk_perturbation: dict | None = None

    def unit(self) -> LinComb:
        return LinComb.unit(ICClass(zero_vec(self.rd.rank), 0))

    def element(self, mu: Vec, n: int = 0) -> LinComb:
        return LinComb.unit(ic_class(self.rd, mu, n))

    # -- convolution ---------------------------------------------------

    def convolve_ic(self, a: ICClass, b: ICClass) -> LinComb:
        """Convolution of basis classes.  Each tensor constituent nu gets
        the unique Tate twist forced by purity-weight additivity."""
        rd = self.rd
        d_a = rdm.d_pairing(rd, a.mu)
        d_b = rdm.d_pairing(rd, b.mu)
        out = []
        for nu, mult in self.R.tensor_decompose(a.mu, b.mu).items():
            offset = rdm.d_pairing(rd, nu) - d_a - d_b
            if offset % 2 != 0:
                raise K0Error(f"non-integral twist for constituent {nu}")
            cls = ICClass(nu, a.n + b.n + offset // 2)
            out.append((cls, LaurentPoly.const(mult)))
        return LinComb(out)

    def convolve(self, x: LinComb, y: LinComb) -> LinComb:
        return x.bilinear(y, self.convolve_ic)

    # -- stalk polynomials and the trace map ---------------------------

    def sign(self, mu: Vec) -> int:
        if not self.signed_trace:
            return 1
        return -1 if rdm.parity(self.rd, mu) else 1

    def stalk_polynomial(self, mu: Vec, lam: Vec) -> LaurentPoly:
        """h_{mu,lam}(q): the graded stalk dimension polynomial, i.e. the
        q-analog of weight multiplicity reversed and shifted by the half
        codimension <rho, mu - lam>."""
        d_diff = rdm.d_pairing(self.rd, mu) - rdm.d_pairing(self.rd, lam)
        assert d_diff % 2 == 0
        m = self.R.lusztig_q_analog(mu, lam)
        h = m.bar().shift(d_diff // 2)
        if self._stalk_perturbation and (tuple(mu), tuple(lam)) in self._stalk_perturbation:
            h = h + self._stalk_perturbation[(tuple(mu), tuple(lam))]
        if not h.is_zero() and not h.has_nonnegative_exponents():
            raise K0Error(f"stalk polynomial for {mu}, {lam} has negative exponents")
        return h

    def ic_function(self, mu: Vec, n: int = 0) -> LinComb:
        """Trace-of-Frobenius function of a twisted intersection motive,
        in the c-basis: the coefficient of c_lam is sign * q^-n * h_{mu,lam}
        for dominant lam <= mu, zero otherwise."""
        mu = rdm.assert_dominant(self.rd, mu)
        base = self._ic_fn_cache.get(mu)
        if base is None:
            sigma = self.sign(mu)
            terms = []
            for lam in rdm.dominant_below(self.rd, mu):
                h = self.stalk_polynomial(mu, lam)
                if h.is_zero():
                    continue
                terms.append((lam, h.scale(sigma)))
            base = LinComb(terms)
            self._ic_fn_cache[mu] = base
        if n == 0:
            return base
        return base.scale(LaurentPoly.q(-n))

    def trace_to_hecke(self, x: LinComb) -> LinComb:
        """Linear extension of ic_function over a K0 element."""
        return LinComb((lam, h * p) for cls, p in x.items()
                       for lam, h in self.ic_function(cls.mu, cls.n).items())

    # -- parity / positivity reporting ---------------------------------

    def parity_report(self, mu: Vec) -> list[dict]:
        """Stalk table for all dominant lam <= mu, with the parity and
        positivity verdicts made explicit."""
        mu = rdm.assert_dominant(self.rd, mu)
        rows = []
        for lam in rdm.dominant_below(self.rd, mu):
            try:
                h = self.stalk_polynomial(mu, lam)
                nonneg_exp = h.has_nonnegative_exponents() or h.is_zero()
            except K0Error:
                h = None
                nonneg_exp = False
            nonneg_coeff = h is not None and h.has_nonnegative_coefficients()
            rows.append({
                "lam": lam,
                "poly": str(h) if h is not None else "INVALID",
                "nonnegative_exponents": nonneg_exp,
                "nonnegative_coefficients": nonneg_coeff,
                "ok": nonneg_exp and nonneg_coeff,
            })
        return rows


@lru_cache(maxsize=None)
def satake_k0(rd: RootDatum, signed_trace: bool = False) -> SatakeK0:
    return SatakeK0(rd, signed_trace=signed_trace)
