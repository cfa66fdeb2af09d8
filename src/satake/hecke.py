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
from .laurent import ONE, LaurentPoly, add_product
from .linear import LinComb
from .rep_ring import g1_class, g1_ring
from .root_datum import RootDatum
from .weyl import AffineWeylElement, affine_weyl_group


# longest key IwahoriHecke.mul accepts in either factor (read at call time)
MAX_KEY_LENGTH = 64

class HeckeError(RuntimeError):
    pass


class KeyLengthError(HeckeError):
    """A factor has a key longer than the bound: the input is refused for
    its size, which is not a fault of the algebra."""

    def __init__(self, bound: int):
        super().__init__(f"product too long: key length exceeds bound {bound}")


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

    def mul(self, a: LinComb, b: LinComb) -> LinComb:
        """Product computed, for every key x = omega * s_word of b
        (``AffineWeylGroup.reduced_word``), by mapping a's keys w to
        w omega, since T_w T_omega = T_{w omega} for omega of length
        zero, and then right-multiplying along the word by the
        Iwahori-Matsumoto rule: T_w T_s = T_ws if the length goes up,
        else (q-1) T_w + q T_ws.  Keys longer than ``MAX_KEY_LENGTH`` are
        refused with ``KeyLengthError`` before any product is formed; the
        words of b's keys, and so their lengths, are read from the
        group's memo of reduced words (``AffineWeylGroup._word``), and
        the lengths of a's keys from their pairing vectors.

        Each key of a is turned into its state (t, k) of
        ``AffineWeylGroup`` once.  The running product of each word is a
        dict {(t, k): {exponent: coefficient}} of ints, started from a's
        coefficients times the key's coefficient in b and stepped letter
        by letter through the group's move table; a translation's pairing
        vector and its successor under an affine letter are read from the
        translation table, so each ascent test is one lookup.  Every
        word's result is merged into one accumulator, and the
        polynomials and the LinComb are built once, at the end."""
        W = self.W
        table, pairs, shift, state = W._table, W._pairs, W._shift, W._state
        left = [(w, state(w), c.terms) for w, c in a.items()]
        factors = [(W._word(state(x)), p.terms) for x, p in b.items()]
        if (any(W._length(*s) > MAX_KEY_LENGTH for _, s, _ in left)
                or any(len(word) > MAX_KEY_LENGTH for (_, word), _ in factors)):
            raise KeyLengthError(MAX_KEY_LENGTH)
        acc: dict = {}
        for ((t_o, k_o), word), p in factors:
            if t_o == k_o == 0:       # omega is 1, whose state is (0, 0)
                cur = {s: add_product({}, terms, p) for _, s, terms in left}
            else:
                omega = AffineWeylElement(W._lams[t_o], W.W0.elements[k_o])
                cur = {state(W.mul(w, omega)): add_product({}, terms, p) for w, _, terms in left}
            for i in word:
                nxt: dict = {}
                for key, poly in cur.items():
                    t, k = key
                    j, k_s, sign, threshold, sc = table[k][i]
                    up = sign * pairs[t][j] >= threshold
                    key_s = (t if sc is None else shift(t, sc), k_s)
                    to_s = nxt.get(key_s)
                    if up and to_s is None:
                        nxt[key_s] = poly
                    elif up:
                        for e, c in poly.items():
                            to_s[e] = to_s.get(e, 0) + c
                    else:
                        to_s = nxt.setdefault(key_s, {})
                        to_w = nxt.setdefault(key, {})
                        for e, c in poly.items():
                            to_s[e + 1] = to_s.get(e + 1, 0) + c
                            to_w[e + 1] = to_w.get(e + 1, 0) + c
                            to_w[e] = to_w.get(e, 0) - c
                cur = nxt
            for key, poly in cur.items():
                into = acc.setdefault(key, poly)
                if into is not poly:
                    for e, c in poly.items():
                        into[e] = into.get(e, 0) + c
        lams, elements = W._lams, W.W0.elements
        return LinComb._canonical({AffineWeylElement(lams[t], elements[k]): f
                                   for (t, k), poly in acc.items()
                                   if (f := LaurentPoly.of_dict(poly))})


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
        self._c_mul_cache: dict[tuple[Vec, Vec], LinComb] = {}
        self._c_mul_satake_cache: dict[tuple[Vec, Vec], LinComb] = {}
        self._stabiliser_cache: dict[Vec, LaurentPoly] = {}
        self._ic_expansion_cache: dict[Vec, LinComb] = {}

    # -- generic helpers ----------------------------------------------

    def unit(self) -> LinComb:
        return LinComb.unit(zero_vec(self.rd.rank))

    def c(self, mu: Vec) -> LinComb:
        return LinComb.unit(rdm.assert_dominant(self.rd, mu))

    def ic_function(self, mu: Vec) -> LinComb:
        return self.k0.ic_function(mu)

    # -- path 1: through the Iwahori-Hecke algebra ---------------------

    def left_minimal_sum(self, mu: Vec) -> LinComb:
        """Z_mu, the sum of T_z over the |W_0 mu| elements z of W_0 t_mu W_0
        that are minimal in their left coset W_0 z, for a dominant mu.

        z is minimal in W_0 z iff z^-1 is minimal in z^-1 W_0, one of the
        right cosets t_eta W_0 of W_0 t_-mu W_0, so z = (t_eta v_eta)^-1 =
        t_{-v_eta^-1 eta} v_eta^-1 for eta in W_0 (-mu)
        (``AffineWeylGroup.min_coset_element``).  For beta > 0, v_eta
        sends beta to a positive root gamma with <gamma, eta> <= 0 or to
        -gamma with <gamma, eta> > 0, so <beta, v_eta^-1 eta> =
        <v_eta beta, eta> <= 0, with equality only if v_eta beta > 0.
        Hence v_eta^-1 eta = -mu, z = t_mu u with u = v_eta^-1, and u
        inverts only roots beta with <beta, mu> > 0.  Such u are the
        minimal elements of the cosets W_mu u, |W_0 mu| of them, and the
        map eta -> u is injective, so Z_mu sums T_{t_mu u} over exactly
        these u."""
        moved = [k != 0 for k in self.W.root_pairings(mu)]
        return LinComb((AffineWeylElement(mu, u), ONE) for u in self.W.W0.inverting_within(moved))

    def stabiliser_polynomial(self, nu: Vec) -> LaurentPoly:
        """P_{W_nu}(q), the sum of q^l(w) over the stabiliser W_nu of a
        dominant nu in W_0, computed once per nu.

        W_nu is the parabolic subgroup of the simple reflections that fix
        nu, so its elements are the w that invert only roots orthogonal
        to nu; ``left_minimal_sum`` takes the complementary roots."""
        cached = self._stabiliser_cache.get(nu)
        if cached is None:
            fixed = [k == 0 for k in self.W.root_pairings(nu)]
            cached = LaurentPoly((w.length, 1) for w in self.W.W0.inverting_within(fixed))
            self._stabiliser_cache[nu] = cached
        return cached

    def c_mul_iwahori(self, mu: Vec, lam: Vec) -> LinComb:
        """c_mu * c_lam through the Iwahori-Hecke algebra, as
        sum_y b_y q^(l(y) - m(nu+)) P_{W_nu+}(q) c_nu+ / P_{W_lam}(q)
        over the keys y = t_nu w of b = Z_mu T_x, with nu+ the dominant
        conjugate of nu.

        Here 1_nu is the sum of T_y over the double coset W_0 t_nu W_0,
        1_W0 = 1_0, x = t_lam v_lam (``AffineWeylGroup.min_coset_element``)
        is the minimal element of W_0 t_lam W_0, m(nu) is the length of
        the minimal element of t_nu W_0 (``min_coset_length``) and P_{W_nu}
        is the Poincare polynomial of the stabiliser of nu in W_0; the
        stabiliser of the translation part of x is W_x = W_lam.  The
        spherical product is c_mu * c_lam = 1_mu 1_lam / P_{W_0}(q).  Why
        the reduction holds (Iwahori-Matsumoto length additivity, as in
        Macdonald's Spherical functions on a group of p-adic type):

        * x is minimal in W_0 t_lam W_0: over nu in W_0 lam, m(nu) is the
          sum of |<alpha, nu>| less the number of positive alpha with
          <alpha, nu> > 0, and that number is largest exactly for nu = lam;
        * every y in a double coset W_0 x' W_0, x' its minimal element, is
          uniquely u x' v with lengths adding, u a minimal representative
          of W_0 / W_x' and v in W_0; so 1_lam = sum_u T_u T_x 1_W0, and
          1_W0 T_y 1_W0 = q^(l(y) - l(x')) 1_W0 T_x' 1_W0
                        = q^(l(y) - l(x')) P_{W_x'} 1_nu+
          for y in W_0 t_nu+ W_0, since 1_W0 T_u = q^l(u) 1_W0 and
          T_v 1_W0 = q^l(v) 1_W0;
        * read on the left, every y in W_0 t_mu W_0 is uniquely u z with u
          in W_0, z minimal in W_0 z and lengths adding, so
          1_mu = 1_W0 Z_mu (``left_minimal_sum``), with |W_0 mu| terms;
        * 1_mu T_s = q 1_mu for every finite simple s, so
          1_mu T_u = q^l(u) 1_mu, and sum_u q^l(u) = P_{W_0} / P_{W_lam};
        * hence 1_mu 1_lam = (P_{W_0} / P_{W_lam}) 1_W0 (Z_mu T_x) 1_W0,
          and each key y of b = Z_mu T_x contributes
          b_y q^(l(y) - m(nu+)) P_{W_nu+} / P_{W_lam} to c_nu+.

        Grouped by nu, the sum over y is the projection of b onto the
        right cosets t_nu W_0, shifted by q^(m(nu) - m(nu+)).  The result
        is bi-invariant by construction, so two guards remain: each value
        must divide exactly by P_{W_lam}, and at q = 1, where the algebra
        is the group algebra, the point counts must add up,
        sum_nu a_nu(1) |W_0 nu| = |W_0 mu| |W_0 lam|; any failure is fatal.
        """
        mu = rdm.assert_dominant(self.rd, mu)
        lam = rdm.assert_dominant(self.rd, lam)
        key = (mu, lam)
        cached = self._c_mul_cache.get(key)
        if cached is not None:
            return cached
        W = self.W
        z_mu = self.left_minimal_sum(mu)
        b = self.iwahori.mul(z_mu, self.iwahori.basis(W.min_coset_element(lam)))
        dom = {nu: W.dominant_representative(nu) for nu in {y.translation for y in b.keys()}}
        m = {nu: W.min_coset_length(nu) for nu in set(dom.values())}
        s = LinComb((dom[y.translation], p.shift(W.im_length(y) - m[dom[y.translation]]))
                    for y, p in b.items())
        pwl = self.stabiliser_polynomial(lam)
        out = []
        for nu, p in sorted(s.items()):
            try:
                value = (p * self.stabiliser_polynomial(nu)).divexact(pwl)
            except ValueError as exc:
                raise HeckeError(f"value on the double coset of {nu}: {exc}") from None
            out.append((nu, value))
        order = len(W.W0)
        mass = sum(p.eval_at_one() * (order // self.stabiliser_polynomial(nu).eval_at_one())
                   for nu, p in out)
        expected = len(z_mu) * (order // pwl.eval_at_one())
        if mass != expected:
            raise HeckeError(f"product mass at q = 1 is {mass}, not |W_0 mu| |W_0 lam| = {expected}")
        result = LinComb(out)
        self._c_mul_cache[key] = result
        return result

    # -- path 2: through the dual side ---------------------------------

    def to_ic_basis(self, f: LinComb) -> LinComb:
        """Rewrite a c-basis function as the K0 element sum a_mu IC_mu(0)
        whose trace is f, by back-substitution along the dominance order
        (the change of basis is unitriangular).  The remainder is one
        {weight: {exponent: coefficient}} dict of ints, from which each
        step subtracts a_mu ic_function(mu) in place.  The pivot is the
        remaining weight of largest (d_mu, mu); d_mu is taken once per
        weight, as the weight first enters the remainder, and its parity
        gives the pivot's sign, as in SatakeK0.sign."""
        remaining = {mu: dict(p.terms) for mu, p in f.items()}
        d = {mu: rdm.d_pairing(self.rd, mu) for mu in remaining}
        out = []
        guard = 0
        while remaining:
            guard += 1
            if guard > 10000:
                raise HeckeError("basis change did not terminate")
            mu = max(remaining, key=lambda v: (d[v], v))
            lead = LaurentPoly.of_dict(remaining[mu])
            a = -lead if self.k0.signed_trace and d[mu] % 2 else lead
            out.append((ICClass(mu, 0), a))
            for lam, h in self.k0.ic_function(mu).items():
                if lam not in d:
                    d[lam] = rdm.d_pairing(self.rd, lam)
                acc = add_product(remaining.setdefault(lam, {}), h.terms, a.terms, -1)
                if not any(acc.values()):
                    del remaining[lam]
            if mu in remaining:
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
        convolve there, take the trace back, the last two in one pass.

        Computed once per unordered pair {mu, lam}, and both orders get the
        same object.  The cache is exact because the terms of
        ``trace_of_convolution`` in both orders are the same multiset:
        ``tensor_decompose`` gives one result for both orders of its
        factors, the twist of a constituent is symmetric in the two
        classes, and p r = r p.  Both factors are checked for dominance
        before the key is formed, so bad input raises and is never
        cached."""
        mu = rdm.assert_dominant(self.rd, mu)
        lam = rdm.assert_dominant(self.rd, lam)
        key = (mu, lam) if mu <= lam else (lam, mu)
        cached = self._c_mul_satake_cache.get(key)
        if cached is None:
            cached = self.k0.trace_of_convolution(self.ic_expansion(mu), self.ic_expansion(lam))
            self._c_mul_satake_cache[key] = cached
        return cached

    # -- the transform -------------------------------------------------

    def satake_transform(self, f: LinComb) -> LinComb:
        """Send a spherical function to the quotient normal form of its
        class in the representation ring of the modified dual group."""
        return self.k0_to_g1(self.to_ic_basis(f))

    def k0_to_g1(self, x: LinComb) -> LinComb:
        """The quotient normal form of the image of a K0 element sum
        a IC_mu(n) in the representation ring of the modified dual group."""
        return self.g1.quotient_normal_form(
            LinComb((g1_class(self.rd, cls.mu, n=cls.n), a) for cls, a in x.items()))

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
