"""Finite and extended affine (Iwahori-Weyl) Weyl groups.

The affine group is realized abstractly as X_*(T) semidirect W_0; no
alcove geometry is stored.  The base alcove enters only through the
length formula and the choice of the affine simple reflections.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from . import lattices, root_datum as rdm
from .lattices import Vec, mat_vec, vadd, vsub, zero_vec
from .root_datum import RootDatum


class WeylError(RuntimeError):
    pass


Mat = tuple[Vec, ...]

# |W_0| above this (the order of the Weyl group of type A_9) is refused
MAX_W0_ORDER = 3628800


@dataclass(frozen=True)
class FiniteWeylElement:
    """An element of W_0, stored as its action on X_*.

    ``word`` is a fixed reduced word in simple-reflection indices, found
    by breadth-first enumeration, so it is canonical per group.
    ``index`` is the position in ``FiniteWeylGroup.elements``, and
    ``inverted[j]`` is 1 if w^-1 sends the j-th positive root to a
    negative one, else 0; neither takes part in equality or hashing.
    """

    act_cochar: Mat  # action on X_* (matrix by rows)
    word: tuple[int, ...]
    length: int
    index: int = field(compare=False)
    inverted: tuple[int, ...] = field(compare=False)

    def apply_cochar(self, lam: Vec) -> Vec:
        return mat_vec(self.act_cochar, lam)

    def __repr__(self) -> str:
        return "w[" + ("e" if not self.word else ".".join(map(str, self.word))) + "]"


def _reflection(rd: RootDatum, beta: Vec, bv: Vec) -> Mat:
    """The reflection lam -> lam - <beta, lam> bv of X_*, as a row matrix."""
    ident = lattices.identity_matrix(rd.rank)
    return lattices.transpose([vsub(e, lattices.vscale(rd.pair(beta, e), bv)) for e in ident])


class FiniteWeylGroup:
    """Complete enumeration of W_0 with cached reduced words.

    Breadth-first search from the identity, multiplying by simple
    reflections on the right, meets the elements in (length, word) order,
    so ``elements`` is sorted that way.  Products and inverses walk the
    canonical words through the table ``right[k][i]`` = index of
    ``elements[k]`` times s_i.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        refl = [_reflection(rd, a, av) for a, av in zip(rd.simple_roots, rd.simple_coroots)]
        self.elements: list[FiniteWeylElement] = []
        self._right: list[list[int]] = []
        by_matrix: dict[Mat, int] = {}

        def add(act: Mat, word: tuple[int, ...]) -> None:
            # w^-1 alpha > 0 iff alpha^ lies in w(positive coroots)
            images = frozenset(mat_vec(act, bv) for bv in rd.positive_coroots)
            inverted = tuple(int(bv not in images) for bv in rd.positive_coroots)
            if len(word) != sum(inverted):
                raise WeylError("BFS produced a non-reduced word")
            by_matrix[act] = len(self.elements)
            self.elements.append(FiniteWeylElement(act, word, len(word), len(self.elements), inverted))
            if len(self.elements) > MAX_W0_ORDER:
                raise WeylError(f"|W_0| exceeds bound {MAX_W0_ORDER}")

        add(lattices.identity_matrix(rd.rank), ())
        # elements[len(self._right):] is the frontier of the search
        while len(self._right) < len(self.elements):
            w = self.elements[len(self._right)]
            row = []
            for i, s in enumerate(refl):
                act = lattices.mat_mul(w.act_cochar, s)
                if act not in by_matrix:
                    add(act, w.word + (i,))
                row.append(by_matrix[act])
            self._right.append(row)
        self.identity = self.elements[0]
        self.generators = [self.elements[k] for k in self._right[0]]

    def _walk(self, k: int, word: Iterable[int]) -> FiniteWeylElement:
        for i in word:
            k = self._right[k][i]
        return self.elements[k]

    def mul(self, a: FiniteWeylElement, b: FiniteWeylElement) -> FiniteWeylElement:
        return self._walk(a.index, b.word)

    def inverse(self, a: FiniteWeylElement) -> FiniteWeylElement:
        return self._walk(0, reversed(a.word))

    def longest(self) -> FiniteWeylElement:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class AffineWeylElement:
    """(translation, finite part), with group law
    (lam, w)(lam', w') = (lam + w lam', w w')."""

    translation: Vec
    finite: FiniteWeylElement

    def __repr__(self) -> str:
        return f"t{list(self.translation)}*{self.finite!r}"


def render_affine(x: AffineWeylElement) -> str:
    wstr = "e" if not x.finite.word else ".".join(f"s{i}" for i in x.finite.word)
    return f"t[{','.join(map(str, x.translation))}]*{wstr}"


class AffineWeylGroup:
    """The extended affine Weyl group X_*(T) semidirect W_0 together with
    its affine simple system and length function."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.W0 = FiniteWeylGroup(rd)
        # <alpha, -> as an integer row, one per positive root alpha
        cols = lattices.transpose(rd.pairing)
        self._root_rows = tuple(mat_vec(cols, alpha) for alpha in rd.positive_roots)
        self.identity = AffineWeylElement(zero_vec(rd.rank), self.W0.identity)
        self.simple_refs: list[AffineWeylElement] = [
            AffineWeylElement(zero_vec(rd.rank), g) for g in self.W0.generators
        ]
        # one affine reflection per irreducible component: s_0 = t_{theta^} s_theta
        for comp in self._components():
            theta, theta_cov = self._highest_root(comp)
            act = _reflection(rd, theta, theta_cov)
            s_theta = next(w for w in self.W0.elements if w.act_cochar == act)
            self.simple_refs.append(AffineWeylElement(theta_cov, s_theta))
        self._dc_cache: dict[Vec, tuple] = {}

    # -- structure ----------------------------------------------------

    def _components(self) -> list[list[int]]:
        n = self.rd.semisimple_rank
        cartan = self.rd.cartan_matrix()
        seen = set()
        comps = []
        for i in range(n):
            if i in seen:
                continue
            comp = [i]
            seen.add(i)
            stack = [i]
            while stack:
                j = stack.pop()
                for k in range(n):
                    if k not in seen and cartan[j][k] != 0:
                        seen.add(k)
                        comp.append(k)
                        stack.append(k)
            comps.append(sorted(comp))
        return comps

    def _highest_root(self, comp: list[int]) -> tuple[Vec, Vec]:
        best = None
        for beta, bv in zip(self.rd.positive_roots, self.rd.positive_coroots):
            coeffs = lattices.solve_integer_combination(self.rd.simple_roots, beta)
            support = [i for i, c in enumerate(coeffs) if c != 0]
            if not set(support) <= set(comp):
                continue
            height = sum(coeffs)
            if best is None or height > best[0]:
                best = (height, beta, bv)
        assert best is not None
        return best[1], best[2]

    # -- group operations ---------------------------------------------

    def translation(self, lam: Vec) -> AffineWeylElement:
        return AffineWeylElement(tuple(lam), self.W0.identity)

    def from_finite(self, w: FiniteWeylElement) -> AffineWeylElement:
        return AffineWeylElement(zero_vec(self.rd.rank), w)

    def mul(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        return AffineWeylElement(
            vadd(x.translation, x.finite.apply_cochar(y.translation)),
            self.W0.mul(x.finite, y.finite),
        )

    def inverse(self, x: AffineWeylElement) -> AffineWeylElement:
        wi = self.W0.inverse(x.finite)
        return AffineWeylElement(lattices.vneg(wi.apply_cochar(x.translation)), wi)

    def word_to_element(self, word: Iterable[int], omega: Optional[AffineWeylElement] = None) -> AffineWeylElement:
        x = self.identity
        for i in word:
            x = self.mul(x, self.simple_refs[i])
        if omega is not None:
            x = self.mul(x, omega)
        return x

    # -- length, reduced words, Bruhat order --------------------------

    def im_length(self, x: AffineWeylElement) -> int:
        """Iwahori-Matsumoto length of t_lam w: the sum over positive roots
        alpha of |<alpha, lam>| if w^-1 alpha > 0, else |<alpha, lam> - 1|."""
        lam = x.translation
        return sum(abs(sum(r * c for r, c in zip(row, lam)) - inv)
                   for row, inv in zip(self._root_rows, x.finite.inverted))

    def reduced_word(self, x: AffineWeylElement) -> tuple[tuple[int, ...], AffineWeylElement]:
        """Left-greedy reduced word; returns (word, omega) with
        x = (product of simple reflections along word) * omega and
        len(word) = im_length(x)."""
        word: list[int] = []
        cur = x
        length = self.im_length(cur)
        while length > 0:
            for i, s in enumerate(self.simple_refs):
                cand = self.mul(s, cur)
                cl = self.im_length(cand)
                if cl < length:
                    word.append(i)
                    cur, length = cand, cl
                    break
            else:
                raise WeylError(f"no descent for positive-length element {x!r}")
        return tuple(word), cur

    def bruhat_leq(self, v: AffineWeylElement, w: AffineWeylElement, bound: int = 12) -> bool:
        """Subword-property Bruhat order; comparable only within one
        length-zero component."""
        lw = self.im_length(w)
        if lw > bound:
            raise WeylError(f"length {lw} exceeds Bruhat bound {bound}")
        word_w, omega_w = self.reduced_word(w)
        word_v, omega_v = self.reduced_word(v)
        if omega_v != omega_w:
            return False
        if len(word_v) > len(word_w):
            return False
        target = self.mul(v, self.inverse(omega_w))
        reachable = {self.identity}
        for i in word_w:
            s = self.simple_refs[i]
            reachable |= {self.mul(x, s) for x in reachable}
        return target in reachable

    # -- spherical double cosets ---------------------------------------

    def spherical_double_coset(self, mu: Vec):
        """The set W_0 t_mu W_0 with its minimal and maximal length
        elements.  mu must be dominant."""
        mu = rdm.assert_dominant(self.rd, mu)
        if mu in self._dc_cache:
            return self._dc_cache[mu]
        tmu = self.translation(mu)
        coset = set()
        for u in self.W0.elements:
            left = self.mul(self.from_finite(u), tmu)
            for v in self.W0.elements:
                coset.add(self.mul(left, self.from_finite(v)))
        by_len = sorted(coset, key=lambda x: (self.im_length(x), x.translation, x.finite.word))
        minimal, maximal = by_len[0], by_len[-1]
        if len(by_len) > 1 and self.im_length(by_len[1]) == self.im_length(minimal):
            raise WeylError("minimal double coset element is not unique")
        result = (frozenset(coset), minimal, maximal)
        self._dc_cache[mu] = result
        return result

    def dominant_representative(self, lam: Vec) -> Vec:
        """The dominant W_0-orbit representative of a cocharacter."""
        for w in self.W0.elements:
            cand = w.apply_cochar(lam)
            if rdm.is_dominant(self.rd, cand):
                return cand
        raise WeylError(f"no dominant conjugate found for {lam}")

    def orbit(self, lam: Vec) -> frozenset:
        return frozenset(w.apply_cochar(lam) for w in self.W0.elements)

    def omega_elements(self, box: int = 2) -> list[AffineWeylElement]:
        """Length-zero elements with translation coordinates in [-box, box].

        For catalog groups with finite fundamental group this is the whole
        of the length-zero subgroup."""
        out = []
        rank = self.rd.rank
        coords = range(-box, box + 1)

        def rec(i, acc):
            if i == rank:
                lam = tuple(acc)
                for w in self.W0.elements:
                    x = AffineWeylElement(lam, w)
                    if self.im_length(x) == 0:
                        out.append(x)
                return
            for c in coords:
                rec(i + 1, acc + [c])

        rec(0, [])
        return sorted(out, key=lambda x: (x.translation, x.finite.word))


@lru_cache(maxsize=None)
def affine_weyl_group(rd: RootDatum) -> AffineWeylGroup:
    return AffineWeylGroup(rd)


@lru_cache(maxsize=None)
def finite_weyl_group(rd: RootDatum) -> FiniteWeylGroup:
    return affine_weyl_group(rd).W0
