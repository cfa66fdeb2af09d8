"""Characters and weight multiplicities for the dual group, graded
q-analogs of weight multiplicity, and the representation ring of the
modified dual group with its quotient by the twist relation.

All computations happen on the cocharacter lattice of G, which is the
weight lattice of the dual group; the positive roots of the dual group
are the positive coroots of G.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import lattices, root_datum as rdm
from .lattices import Vec, vadd, vsub, zero_vec
from .laurent import LaurentPoly
from .linear import LinComb
from .root_datum import RootDatum


class RepRingError(RuntimeError):
    pass


class RepRing:
    """Character combinatorics of the dual group attached to a root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._kostant_cache: dict[tuple, LaurentPoly] = {}
        self._q_analog_cache: dict[tuple[Vec, Vec], LaurentPoly] = {}
        self._char_cache: dict[Vec, dict[Vec, int]] = {}
        self._tensor_cache: dict[tuple[Vec, Vec], dict[Vec, int]] = {}

    # -- q-Kostant partition function ---------------------------------

    def _kostant_graded(self, coords: tuple[int, ...], i: int) -> LaurentPoly:
        """The sum, over multisets of the positive coroots from the i-th on
        whose sum has simple-coroot coordinates coords, of q^(multiset
        size)."""
        if not any(coords):
            return LaurentPoly.one()
        pos_coords = self.rd.positive_coroot_coords
        if i == len(pos_coords):
            return LaurentPoly.zero()
        key = (coords, i)
        cached = self._kostant_cache.get(key)
        if cached is not None:
            return cached
        gamma = pos_coords[i]

        def rests():
            # coords minus k * gamma for k = 0, 1, ... while nonnegative
            cur = coords
            while all(c >= 0 for c in cur):
                yield cur
                cur = tuple(c - g for c, g in zip(cur, gamma))

        out = LaurentPoly((e + k, c) for k, rest in enumerate(rests())
                          for e, c in self._kostant_graded(rest, i + 1).terms)
        self._kostant_cache[key] = out
        return out

    # -- weight multiplicities ----------------------------------------

    def lusztig_q_analog(self, mu: Vec, lam: Vec) -> LaurentPoly:
        """The q-graded analog of weight multiplicity,
        sum_w (-1)^l(w) P(w(mu + rho_hat) - (lam + rho_hat)); evaluates at
        q=1 to weight_multiplicity(mu, lam), and equals 1 when lam = mu.
        Walked once per pair (mu, lam) and kept: the stalks, characters and
        verify suites all read the same pairs."""
        key = (tuple(mu), tuple(lam))
        m = self._q_analog_cache.get(key)
        if m is None:
            m = self._q_analog_cache[key] = self._q_analog_walk(*key)
        return m

    def _q_analog_walk(self, mu: Vec, lam: Vec) -> LaurentPoly:
        """Kostant's sum of ``lusztig_q_analog``, by a walk.  Only the w
        with c >= 0 contribute, c the simple-coroot coordinates of
        (w v - 2(lam + rho_hat)) / 2 for v = 2(mu + rho_hat).  They form
        a lower set (a left descent s_i of w adds a positive multiple of
        alpha_i^ to w v), walked up from e, where c is that of mu - lam, by
        length: s_i w for p = <alpha_i, w v> > 0 lowers c_i by p/2, an
        integer as <beta, 2rho_hat> = 2 ht(beta); v is regular, so w v
        keys w."""
        rd = self.rd
        mu = rdm.assert_dominant(rd, mu)
        coords = rdm.coroot_coords(rd, vsub(mu, lam))
        if coords is None or any(c < 0 for c in coords):
            return LaurentPoly.zero()
        level = {vadd(lattices.vscale(2, mu), rd.two_rho_hat()): coords}
        terms, sign = [], 1
        while level:
            terms += ((e, sign * k) for c in level.values()
                      for e, k in self._kostant_graded(c, 0).terms)
            level = {y: c[:i] + (c[i] - p // 2,) + c[i + 1:] for x, c in level.items()
                     for i, p, y in _descents(rd, x) if c[i] >= p // 2}
            sign = -sign
        return LaurentPoly(terms)

    def weight_multiplicity(self, mu: Vec, lam: Vec) -> int:
        """Dimension of the lam weight space of the irreducible dual-group
        representation of highest weight mu (Kostant's formula)."""
        m = self.lusztig_q_analog(mu, lam).eval_at_one()
        if m < 0:
            raise RepRingError(f"negative weight multiplicity for {mu}, {lam}")
        return m

    # -- characters, dimensions, tensor products -----------------------

    def character(self, mu: Vec) -> dict[Vec, int]:
        """All weights of the irreducible with highest weight mu, with
        multiplicities; W_0-invariant by construction."""
        cached = self._char_cache.get(tuple(mu))
        if cached is not None:
            return cached
        mu = rdm.assert_dominant(self.rd, mu)
        char: dict[Vec, int] = {}
        for lam in rdm.dominant_below(self.rd, mu):
            m = self.weight_multiplicity(mu, lam)
            if m:
                char.update(dict.fromkeys(orbit(self.rd, lam), m))
        self._char_cache[mu] = char
        return char

    def tensor_decompose(self, mu: Vec, lam: Vec) -> dict[Vec, int]:
        """Decomposition multiplicities of the tensor product of the two
        irreducibles, by Brauer-Klimyk.  Each weight v of the smaller
        factor's character gives 2(big + v) + 2rho_hat, big the larger
        highest weight; that vector is straightened into the dominant
        chamber by simple reflections, and the constituent it lands on
        gains or loses the multiplicity of v by the parity of the
        reflections.  Vectors on a reflecting hyperplane contribute
        nothing.  The result is ordered by decreasing (<2rho, nu>, nu)
        and cached under both orders of the factors."""
        cached = self._tensor_cache.get((tuple(mu), tuple(lam)))
        if cached is not None:
            return cached
        rd = self.rd
        mu = rdm.assert_dominant(rd, mu)
        lam = rdm.assert_dominant(rd, lam)
        small, big = sorted((mu, lam), key=lambda v: (rdm.d_pairing(rd, v), v))
        two_rho_hat = rd.two_rho_hat()
        base = vadd(lattices.vscale(2, big), two_rho_hat)
        net: dict[Vec, int] = {}
        for v, m in self.character(small).items():
            hit = _straighten(rd, vadd(base, lattices.vscale(2, v)))
            if hit is not None:
                x, odd = hit
                nu = tuple((c - r) // 2 for c, r in zip(x, two_rho_hat))
                net[nu] = net.get(nu, 0) + (-m if odd else m)
        result: dict[Vec, int] = {}
        for nu in sorted(net, key=lambda v: (rdm.d_pairing(rd, v), v), reverse=True):
            n = net[nu]
            if n < 0:
                raise RepRingError(f"negative multiplicity {n} of {nu} in tensor product")
            if n:
                result[nu] = n
        self._tensor_cache[(mu, lam)] = self._tensor_cache[(lam, mu)] = result
        return result


def _descents(rd: RootDatum, x: Vec):
    """(i, p, s_i x = x - p alpha_i^) for each p = <alpha_i, x> > 0."""
    for i, (alpha, coroot) in enumerate(zip(rd.simple_roots, rd.simple_coroots)):
        p = sum(r * c for r, c in zip(alpha, x))
        if p > 0:
            yield i, p, tuple(c - p * a for c, a in zip(x, coroot))


@lru_cache(maxsize=None)
def orbit(rd: RootDatum, lam: Vec) -> tuple[Vec, ...]:
    """The W_0-orbit w lam of a dominant lam (a tuple), by the length of w
    minimal in w W_lam: length k + 1 gives the s_i nu, <alpha_i, nu> > 0,
    of length k.  Walked once per (rd, lam): characters and the q = 1
    check share the walks."""
    level, found = {lam}, []
    while level:
        found += sorted(level)
        level = {x for nu in level for _, _, x in _descents(rd, nu)}
    return tuple(found)


def _straighten(rd: RootDatum, x: Vec) -> tuple[Vec, bool] | None:
    """(the dominant W_0-conjugate of x, whether it took an odd number of
    simple reflections), or None if x lies on a reflecting hyperplane.
    Each step reflects in a simple root pairing negatively with x, which
    leaves x on a hyperplane exactly when it started on one."""
    odd = False
    while True:
        for alpha, coroot in zip(rd.simple_roots, rd.simple_coroots):
            p = sum(r * c for r, c in zip(alpha, x))
            if p <= 0:
                break
        else:
            return x, odd
        if p == 0:
            return None
        x = tuple(c - p * a for c, a in zip(x, coroot))
        odd = not odd


@lru_cache(maxsize=None)
def rep_ring(rd: RootDatum) -> RepRing:
    return RepRing(rd)


# ---------------------------------------------------------------------------
# the representation ring of the modified dual group


class G1RepClass(NamedTuple):
    """Basis element of the representation ring of the modified dual
    group: a dominant highest weight together with the central-torus
    weight k, constrained to k = <2rho, mu> mod 2.

    A class is the tuple (mu, k), so it compares equal to an ``ICClass``
    with the same fields; keys of different algebras never share a
    ``LinComb``, so the two never meet."""

    mu: Vec
    k: int

    def __repr__(self) -> str:
        return f"V[{','.join(map(str, self.mu))};{self.k}]"


def g1_class(rd: RootDatum, mu: Vec, *, n: int | None = None, k: int | None = None) -> G1RepClass:
    """Construct a class either from the twist index n (so that
    k = 2n - <2rho, mu>) or from the central weight k directly."""
    mu = rdm.assert_dominant(rd, mu)
    d = rdm.d_pairing(rd, mu)
    if (n is None) == (k is None):
        raise ValueError("give exactly one of n and k")
    if k is None:
        k = 2 * n - d
    if (k - d) % 2 != 0:
        raise RepRingError(f"central weight {k} violates parity of {mu}")
    return G1RepClass(mu, k)


class G1Ring:
    """The representation ring of the modified dual group, with basis
    G1RepClass, and its quotient by the relation identifying the inverse
    square character with q."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.R = rep_ring(rd)

    def unit(self) -> LinComb:
        return LinComb.unit(G1RepClass(zero_vec(self.rd.rank), 0))

    def mul(self, a: LinComb, b: LinComb) -> LinComb:
        """The product: each tensor constituent nu of a pair of classes,
        with multiplicity N, gains N p r at central weight x.k + y.k."""
        return LinComb.of_products((g1_class(self.rd, nu, k=x.k + y.k), p, r, n)
                                   for x, p in a.items() for y, r in b.items()
                                   for nu, n in self.R.tensor_decompose(x.mu, y.mu).items())

    def quotient_normal_form(self, x: LinComb) -> LinComb:
        """Rewrite every key to central weight in {0, 1}, trading central
        weight -2 for a factor of q; idempotent."""
        return LinComb((G1RepClass(cls.mu, cls.k % 2), p.shift(-(cls.k // 2)))
                       for cls, p in x.items())


@lru_cache(maxsize=None)
def g1_ring(rd: RootDatum) -> G1Ring:
    return G1Ring(rd)
