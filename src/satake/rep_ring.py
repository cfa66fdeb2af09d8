"""Characters and weight multiplicities for the dual group, graded
q-analogs of weight multiplicity, and the representation ring of the
modified dual group with its quotient by the twist relation.

All computations happen on the cocharacter lattice of G, which is the
weight lattice of the dual group; the positive roots of the dual group
are the positive coroots of G.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import lattices, root_datum as rdm
from .lattices import Vec, vadd, vsub, zero_vec
from .laurent import LaurentPoly
from .linear import LinComb
from .root_datum import RootDatum
from .weyl import affine_weyl_group, finite_weyl_group


class RepRingError(RuntimeError):
    pass


class RepRing:
    """Character combinatorics of the dual group attached to a root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.W0 = finite_weyl_group(rd)
        self._kostant_cache: dict[tuple, LaurentPoly] = {}
        self._partition_cache: dict[Vec, LaurentPoly] = {}
        self._char_cache: dict[Vec, dict[Vec, int]] = {}
        self._tensor_cache: dict[tuple[Vec, Vec], dict[Vec, int]] = {}

    # -- q-Kostant partition function ---------------------------------

    def kostant_partition(self, v: Vec) -> LaurentPoly:
        """Sum over multisets of positive coroots with sum v of
        q^(multiset size); zero if v is not a nonnegative combination.
        One coroot solve per vector: the result is kept by v."""
        v = tuple(v)
        cached = self._partition_cache.get(v)
        if cached is None:
            coords = rdm.coroot_coords(self.rd, v)
            if coords is None or any(c < 0 for c in coords):
                cached = LaurentPoly.zero()
            else:
                cached = self._kostant_graded(coords, 0)
            self._partition_cache[v] = cached
        return cached

    def _kostant_graded(self, coords: tuple[int, ...], i: int) -> LaurentPoly:
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

        rho_hat (half-sum of positive coroots) may be half-integral, so
        everything is computed in doubled coordinates.
        """
        mu = rdm.assert_dominant(self.rd, mu)
        two_rho_hat = self.rd.two_rho_hat()
        dbl_mu = vadd(lattices.vscale(2, mu), two_rho_hat)
        dbl_lam = vadd(lattices.vscale(2, tuple(lam)), two_rho_hat)

        def halved(w) -> Vec:
            u = vsub(w.apply_cochar(dbl_mu), dbl_lam)
            if any(c % 2 for c in u):
                raise RepRingError("odd doubled coordinate in Kostant sum")
            return tuple(c // 2 for c in u)

        return LaurentPoly((e, -c if w.length % 2 else c) for w in self.W0.elements
                           for e, c in self.kostant_partition(halved(w)).terms)

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
        aw = affine_weyl_group(self.rd)
        for lam in rdm.dominant_below(self.rd, mu):
            m = self.weight_multiplicity(mu, lam)
            if m == 0:
                continue
            for nu in aw.orbit(lam):
                char[nu] = m
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


def _straighten(rd: RootDatum, x: Vec) -> tuple[Vec, bool] | None:
    """(the dominant W_0-conjugate of x, whether it took an odd number of
    simple reflections), or None if x lies on a reflecting hyperplane.
    Each step reflects in a simple root pairing negatively with x, which
    leaves x on a hyperplane exactly when it started on one."""
    odd = False
    while True:
        for row, coroot in zip(rd.simple_root_rows, rd.simple_coroots):
            p = sum(r * c for r, c in zip(row, x))
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


@dataclass(frozen=True)
class G1RepClass:
    """Basis element of the representation ring of the modified dual
    group: a dominant highest weight together with the central-torus
    weight k, constrained to k = <2rho, mu> mod 2."""

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
