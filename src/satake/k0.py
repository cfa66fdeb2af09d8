"""The Grothendieck group of the spherical Satake category: twisted
intersection-motive classes, their convolution via tensor decomposition
on the dual side with the forced twist rule, purity bookkeeping, and the
trace map to spherical Hecke functions.

Spherical Hecke functions are LinCombs keyed by dominant cocharacter
tuples (the indicator basis c_mu).
"""
from __future__ import annotations

from typing import NamedTuple

from . import root_datum as rdm
from .lattices import Vec, zero_vec
from .laurent import ONE, LaurentPoly, add_product
from .linear import LinComb
from .rep_ring import rep_ring
from .root_datum import RootDatum


class K0Error(RuntimeError):
    pass


class ICClass(NamedTuple):
    """A twisted intersection-motive class (mu, n): dominant cocharacter
    mu with Tate twist n; pure of weight <2rho, mu> - 2n.

    A class is the tuple (mu, n), so it compares equal to a
    ``G1RepClass`` with the same fields; keys of different algebras never
    share a ``LinComb``, so the two never meet."""

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

    def _constituents(self, x: LinComb, y: LinComb):
        """The terms of the convolution of x and y: (nu, n, p, r, N) for
        each tensor constituent nu, of multiplicity N, of each pair of
        classes a, b of x and y with coefficients p and r.  The term is
        N p r IC_nu(n), n = a.n + b.n + t, with the twist t forced by
        purity-weight additivity.  d_pairing is taken once per distinct
        weight of the call, in ``d``."""
        d: dict[Vec, int] = {}

        def d_of(mu: Vec) -> int:
            v = d.get(mu)
            if v is None:
                v = d[mu] = rdm.d_pairing(self.rd, mu)
            return v

        right = [(b, r, d_of(b.mu)) for b, r in y.items()]
        for a, p in x.items():
            d_a = d_of(a.mu)
            for b, r, d_b in right:
                n_ab, d_ab = a.n + b.n, d_a + d_b
                for nu, mult in self.R.tensor_decompose(a.mu, b.mu).items():
                    offset = d_of(nu) - d_ab
                    if offset % 2 != 0:
                        raise K0Error(f"non-integral twist for constituent {nu}")
                    yield nu, n_ab + offset // 2, p, r, mult

    def convolve(self, x: LinComb, y: LinComb) -> LinComb:
        """Convolution extended bilinearly, one IC_nu(n) key per term of
        ``_constituents``."""
        return LinComb.of_products((ICClass(nu, n), p, r, mult)
                                   for nu, n, p, r, mult in self._constituents(x, y))

    def convolve_ic(self, a: ICClass, b: ICClass) -> LinComb:
        """Convolution of basis classes."""
        return self.convolve(LinComb.unit(a), LinComb.unit(b))

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

    def ic_function(self, mu: Vec) -> LinComb:
        """Trace-of-Frobenius function of the untwisted intersection
        motive IC_mu(0), in the c-basis: the coefficient of c_lam is
        sign * h_{mu,lam} for dominant lam <= mu, zero otherwise."""
        base = self._ic_fn_cache.get(tuple(mu))
        if base is None:
            mu = rdm.assert_dominant(self.rd, mu)
            sigma = self.sign(mu)
            stalks = ((lam, self.stalk_polynomial(mu, lam)) for lam in rdm.dominant_below(self.rd, mu))
            base = LinComb((lam, h if sigma == 1 else -h) for lam, h in stalks)
            self._ic_fn_cache[mu] = base
        return base

    def trace_to_hecke(self, x: LinComb) -> LinComb:
        """The trace map from K0 to spherical Hecke functions: a Tate twist
        n on IC_mu contributes the factor q^-n."""
        folded: dict[Vec, dict[int, int]] = {}
        for cls, p in x.items():
            add_product(folded.setdefault(cls.mu, {}), p.terms, ONE.terms, shift=-cls.n)
        return self._trace(folded)

    def trace_of_convolution(self, x: LinComb, y: LinComb) -> LinComb:
        """trace_to_hecke(convolve(x, y)), with no K0 element in between:
        each term N p r IC_nu(n) of the convolution adds N q^-n p r to the
        integer dict of nu."""
        folded: dict[Vec, dict[int, int]] = {}
        for nu, n, p, r, mult in self._constituents(x, y):
            add_product(folded.setdefault(nu, {}), p.terms, r.terms, mult, -n)
        return self._trace(folded)

    def _trace(self, folded: dict[Vec, dict[int, int]]) -> LinComb:
        """The sum of f_mu ic_function(mu) over a {mu: {exponent:
        coefficient}} dict of ints f, the twists already folded in, so
        each ic_function is expanded once per mu."""
        polys = [(mu, LaurentPoly.of_dict(f)) for mu, f in folded.items()]
        return LinComb.of_products((lam, h, p, 1) for mu, p in polys if p
                                   for lam, h in self.ic_function(mu).items())

    # -- parity / positivity reporting ---------------------------------

    def parity_report(self, mu: Vec) -> list[dict]:
        """Stalk table for all dominant lam <= mu, with the parity and
        positivity verdicts made explicit.

        Each row reads h_{mu,lam} off the cached ``ic_function(mu)``, its
        sign undone; a lam missing there has the zero stalk.  When some
        stalk has a negative exponent, ``ic_function`` refuses, and each
        row derives its own stalk, so that only the offending rows are
        INVALID."""
        mu = rdm.assert_dominant(self.rd, mu)
        try:
            fn, sigma = self.ic_function(mu), self.sign(mu)
        except K0Error:
            fn = None
        rows = []
        for lam in rdm.dominant_below(self.rd, mu):
            if fn is not None:
                h = fn.coefficient(lam)
                h = h if sigma == 1 else -h
            else:
                try:
                    h = self.stalk_polynomial(mu, lam)
                except K0Error:  # its only refusal: a negative exponent
                    h = None
            nonneg_exp = h is not None
            nonneg_coeff = nonneg_exp and h.has_nonnegative_coefficients()
            rows.append({
                "lam": lam,
                "poly": str(h) if h is not None else "INVALID",
                "nonnegative_exponents": nonneg_exp,
                "nonnegative_coefficients": nonneg_coeff,
                "ok": nonneg_exp and nonneg_coeff,
            })
        return rows
