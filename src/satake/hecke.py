"""Iwahori-Hecke algebra of the extended affine Weyl group, the spherical
Hecke algebra on the indicator basis c_mu, and the Satake transform onto
the quotient of the representation ring of the modified dual group.

Two independent multiplication paths for the spherical algebra are
provided; their exact agreement is the central self-check of the whole
package.
"""
from __future__ import annotations

from functools import lru_cache

from . import root_datum as rdm
from .k0 import ICClass, SatakeK0
from .lattices import Vec, zero_vec
from .laurent import LaurentPoly
from .linear import LinComb
from .rep_ring import g1_class, g1_ring
from .root_datum import RootDatum
from .weyl import AffineWeylElement, affine_weyl_group


# longest key IwahoriHecke.mul accepts in either factor (read at call time)
MAX_KEY_LENGTH = 64

# the constants of the quadratic relation T_s^2 = (q-1) T_s + q
_Q_MINUS_ONE = LaurentPoly(((1, 1), (0, -1)))
_Q = LaurentPoly.q()


class HeckeError(RuntimeError):
    pass


class KeyLengthError(HeckeError):
    """A factor has a key longer than MAX_KEY_LENGTH: the input is
    refused for its size, which is not a fault of the algebra."""


class IwahoriHecke:
    """The Iwahori-Hecke algebra on the T_w basis, w in the extended
    affine Weyl group, with the standard quadratic relation at q."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.W = affine_weyl_group(rd)

    def unit(self) -> LinComb:
        return LinComb.unit(self.W.identity)

    def basis(self, x: AffineWeylElement) -> LinComb:
        return LinComb.unit(x)

    def _mul_simple_right(self, a: LinComb, i: int) -> LinComb:
        """Right multiplication by T_s for the i-th affine simple
        reflection: T_w T_s = T_ws if the length goes up, else
        (q-1) T_w + q T_ws."""
        W = self.W
        out = []
        for w, p in a.items():
            ws = W.mul_simple(w, i)
            if W.right_ascent(w, i):
                out.append((ws, p))
            else:
                out.append((w, p * _Q_MINUS_ONE))
                out.append((ws, p * _Q))
        return LinComb(out)

    def mul(self, a: LinComb, b: LinComb) -> LinComb:
        """Product computed by right-multiplying along the reduced word of
        every key of b, then by its length-zero part.  Keys longer than
        ``MAX_KEY_LENGTH`` are refused with ``KeyLengthError`` before any
        product is formed; the lengths of b's keys are those of their
        words."""
        W = self.W
        factors = [(W.reduced_word(x), p) for x, p in b.items()]
        lengths = [W.im_length(x) for x in a.keys()] + [len(word) for (word, _), _ in factors]
        if any(n > MAX_KEY_LENGTH for n in lengths):
            raise KeyLengthError(f"product too long: key length exceeds bound {MAX_KEY_LENGTH}")

        def terms():
            for (word, omega), p in factors:
                cur = a
                for i in word:
                    cur = self._mul_simple_right(cur, i)
                trivial = omega == W.identity
                for w, c in cur.items():
                    yield (w if trivial else W.mul(w, omega)), c * p

        return LinComb(terms())


class SphericalHecke:
    """The spherical Hecke algebra with basis c_mu, with both the
    Iwahori-path and the dual-side multiplication, plus the transform to
    the quotient of the representation ring of the modified dual group."""

    def __init__(self, rd: RootDatum, signed_trace: bool = False):
        self.rd = rd
        self.W = affine_weyl_group(rd)
        self.iwahori = IwahoriHecke(rd)
        self.k0 = SatakeK0(rd, signed_trace=signed_trace)
        self.g1 = g1_ring(rd)
        self.signed_trace = signed_trace
        self._c_mul_cache: dict[tuple[Vec, Vec], LinComb] = {}
        self._ic_expansion_cache: dict[Vec, LinComb] = {}

    # -- generic helpers ----------------------------------------------

    def unit(self) -> LinComb:
        return LinComb.unit(zero_vec(self.rd.rank))

    def c(self, mu: Vec) -> LinComb:
        return LinComb.unit(rdm.assert_dominant(self.rd, mu))

    def ic_function(self, mu: Vec) -> LinComb:
        return self.k0.ic_function(mu)

    # -- path 1: through the Iwahori-Hecke algebra ---------------------

    def indicator_from_iwahori(self, mu: Vec) -> LinComb:
        """The bi-invariant double coset indicator as a sum of T_w over
        the spherical double coset of mu, all coefficients 1."""
        coset, _, _ = self.W.spherical_double_coset(mu)
        return LinComb((x, LaurentPoly.one()) for x in coset)

    def c_mul_iwahori(self, mu: Vec, lam: Vec) -> LinComb:
        """c_mu * c_lam through the Iwahori-Hecke algebra, as
        (1_mu T_x 1_W0) / P_{W_x}(q).

        Here 1_nu is the sum of T_y over the double coset W_0 t_nu W_0,
        1_W0 = 1_0, x is the minimal element of W_0 t_lam W_0 and
        W_x = W_0 cap x W_0 x^-1, the stabiliser in W_0 of the
        translation part of x.  The spherical product is
        c_mu * c_lam = 1_mu 1_lam / P_{W_0}(q).  Why the reduction holds:

        * every y in W_0 x W_0 is uniquely u x v with lengths adding,
          where u runs over the minimal representatives of W_0 / W_x and
          v over W_0, so 1_lam = sum_u T_u T_x 1_W0;
        * 1_mu T_s = q 1_mu for every finite simple s, so
          1_mu T_u = q^l(u) 1_mu, and sum_u q^l(u) = P_{W_0} / P_{W_x};
        * hence 1_mu 1_lam = (P_{W_0} / P_{W_x}) 1_mu T_x 1_W0.

        The factor 1_W0 is never multiplied out.  If y'_nu is the minimal
        element of the right coset t_nu W_0, then y'_nu v has length
        l(y'_nu) + l(v), so T_{y'_nu v} 1_W0 = T_{y'_nu} T_v 1_W0 =
        q^l(v) T_{y'_nu} 1_W0.  Hence for b = 1_mu T_x,

            b 1_W0 = sum_nu c_nu T_{y'_nu} 1_W0,
            c_nu = sum_{w in W_0} q^(l(t_nu w) - m(nu)) b_{t_nu w},

        with m(nu) = l(y'_nu) = sum_{alpha > 0} |<alpha, nu>| -
        [<alpha, nu> > 0] (``AffineWeylGroup.min_coset_length``), and
        b 1_W0 takes the value c_nu on all of t_nu W_0.  It is still a
        bi-invariant function: the support of c must be a union of
        W_0-orbits, c must be constant on each orbit, and each value must
        divide exactly by P_{W_x}; any failure is fatal.
        """
        mu = rdm.assert_dominant(self.rd, mu)
        lam = rdm.assert_dominant(self.rd, lam)
        key = (mu, lam)
        cached = self._c_mul_cache.get(key)
        if cached is not None:
            return cached
        W = self.W
        _, x, _ = W.spherical_double_coset(lam)
        b = self.iwahori.mul(self.indicator_from_iwahori(mu), self.iwahori.basis(x))
        m = {nu: W.min_coset_length(nu) for nu in {y.translation for y in b.keys()}}
        c = LinComb((y.translation, p.shift(W.im_length(y) - m[y.translation]))
                    for y, p in b.items())
        pwx = LaurentPoly((w.length, 1) for w in W.W0.elements
                          if w.apply_cochar(x.translation) == x.translation)
        by_orbit: dict[Vec, dict] = {}
        for nu, p in c.items():
            by_orbit.setdefault(W.dominant_representative(nu), {})[nu] = p
        out = []
        for nu, coeffs in sorted(by_orbit.items()):
            if set(coeffs) != W.orbit(nu):
                raise HeckeError(f"product support does not fill the double coset of {nu}")
            values = set(coeffs.values())
            if len(values) != 1:
                raise HeckeError(f"product is not bi-invariant on the double coset of {nu}")
            try:
                value = values.pop().divexact(pwx)
            except ValueError as exc:
                raise HeckeError(f"value on the double coset of {nu}: {exc}") from None
            out.append((nu, value))
        result = LinComb(out)
        self._c_mul_cache[key] = result
        return result

    # -- path 2: through the dual side ---------------------------------

    def to_ic_basis(self, f: LinComb) -> LinComb:
        """Rewrite a c-basis function as the K0 element sum a_mu IC_mu(0)
        whose trace is f, by back-substitution along the dominance order
        (the change of basis is unitriangular)."""
        remaining = f
        out = []
        guard = 0
        while not remaining.is_zero():
            guard += 1
            if guard > 10000:
                raise HeckeError("basis change did not terminate")
            mu = max(remaining.keys(), key=lambda v: (rdm.d_pairing(self.rd, v), v))
            lead = remaining.coefficient(mu)
            sigma = self.k0.sign(mu)
            a = lead if sigma == 1 else lead.scale(-1)
            out.append((ICClass(mu, 0), a))
            remaining = remaining - self.k0.ic_function(mu).scale(a)
            if mu in remaining.keys():
                raise HeckeError("basis change is not unitriangular")
        return LinComb(out)

    def ic_expansion(self, mu: Vec) -> LinComb:
        """to_ic_basis(c(mu)), computed once per dominant mu; the sign
        convention is fixed per instance, so the cache is exact."""
        key = tuple(mu)
        cached = self._ic_expansion_cache.get(key)
        if cached is None:
            cached = self.to_ic_basis(self.c(mu))
            self._ic_expansion_cache[key] = cached
        return cached

    def c_mul_satake(self, mu: Vec, lam: Vec) -> LinComb:
        """c_mu * c_lam through the dual side: change basis into K0,
        convolve there, take the trace back."""
        return self.k0.trace_to_hecke(self.k0.convolve(self.ic_expansion(mu), self.ic_expansion(lam)))

    # -- the transform -------------------------------------------------

    def satake_transform(self, f: LinComb) -> LinComb:
        """Send a spherical function to the quotient normal form of its
        class in the representation ring of the modified dual group."""
        fi = self.to_ic_basis(f)
        return self.g1.quotient_normal_form(
            LinComb((g1_class(self.rd, cls.mu, n=cls.n), a) for cls, a in fi.items()))

    def satake_inverse(self, x: LinComb) -> LinComb:
        """Inverse of satake_transform on quotient-normal-form input."""
        nf = self.g1.quotient_normal_form(x)
        return self.k0.trace_to_hecke(LinComb(
            (ICClass(cls.mu, (cls.k + rdm.d_pairing(self.rd, cls.mu)) // 2), p)
            for cls, p in nf.items()))


@lru_cache(maxsize=None)
def iwahori_hecke(rd: RootDatum) -> IwahoriHecke:
    return IwahoriHecke(rd)


@lru_cache(maxsize=None)
def spherical_hecke(rd: RootDatum, signed_trace: bool = False) -> SphericalHecke:
    return SphericalHecke(rd, signed_trace=signed_trace)
