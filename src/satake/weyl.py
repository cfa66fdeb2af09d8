"""Finite and extended affine (Iwahori-Weyl) Weyl groups.

The affine group is realized abstractly as X_*(T) semidirect W_0; no
alcove geometry is stored.  The base alcove enters only through the
length formula and the choice of the affine simple reflections.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import lattices, root_datum as rdm
from .lattices import Vec, mat_vec, vadd, vsub, zero_vec
from .root_datum import RootDatum


class WeylError(RuntimeError):
    pass


Mat = tuple[Vec, ...]


@dataclass(frozen=True)
class FiniteWeylElement:
    """An element of W_0, stored as its action on both lattices.

    ``word`` is a fixed reduced word in simple-reflection indices, found
    by breadth-first enumeration, so it is canonical per group.
    """

    act_char: Mat    # action on X* (matrix by rows)
    act_cochar: Mat  # action on X_*
    word: tuple[int, ...]
    length: int

    def apply_char(self, chi: Vec) -> Vec:
        return mat_vec(self.act_char, chi)

    def apply_cochar(self, lam: Vec) -> Vec:
        return mat_vec(self.act_cochar, lam)

    def __repr__(self) -> str:
        return "w[" + ("e" if not self.word else ".".join(map(str, self.word))) + "]"


def _reflection_matrices(rd: RootDatum, i: int) -> tuple[Mat, Mat]:
    n = rd.rank
    e = lattices.identity_matrix(n)
    char_cols = [rd.reflect_char(i, e[j]) for j in range(n)]
    cochar_cols = [rd.reflect_cochar(i, e[j]) for j in range(n)]
    # columns are the images of basis vectors; store as row-matrices
    return lattices.transpose(char_cols), lattices.transpose(cochar_cols)


class FiniteWeylGroup:
    """Complete enumeration of W_0 with cached reduced words."""

    def __init__(self, rd: RootDatum, bound: int = 3628800):
        self.rd = rd
        n = rd.rank
        ident = lattices.identity_matrix(n)
        self.identity = FiniteWeylElement(ident, ident, (), 0)
        self._by_matrix: dict[Mat, FiniteWeylElement] = {ident: self.identity}
        self.generators = []
        for i in range(rd.semisimple_rank):
            ac, aco = _reflection_matrices(rd, i)
            self.generators.append(FiniteWeylElement(ac, aco, (i,), 1))

        frontier = [self.identity]
        while frontier:
            new = []
            for e in frontier:
                for i, g in enumerate(self.generators):
                    ac = lattices.mat_mul(e.act_char, g.act_char)
                    aco = lattices.mat_mul(e.act_cochar, g.act_cochar)
                    if aco not in self._by_matrix:
                        length = self._length_from_matrix(ac)
                        elem = FiniteWeylElement(ac, aco, e.word + (i,), length)
                        if len(elem.word) != length:
                            raise WeylError("BFS produced a non-reduced word")
                        self._by_matrix[aco] = elem
                        new.append(elem)
                        if len(self._by_matrix) > bound:
                            raise WeylError(f"|W_0| exceeds bound {bound}")
            frontier = new
        self.elements = sorted(self._by_matrix.values(), key=lambda w: (w.length, w.word))
        self._pos_root_set = frozenset(rd.positive_roots)
        # for each w, the set of positive roots alpha with w^-1(alpha) > 0
        self._sent_from_pos: dict[FiniteWeylElement, frozenset] = {}
        for w in self.elements:
            self._sent_from_pos[w] = frozenset(
                w.apply_char(beta) for beta in rd.positive_roots)
        self._inverse: dict[FiniteWeylElement, FiniteWeylElement] = {}
        for w in self.elements:
            for v in self.elements:
                if lattices.mat_mul(w.act_cochar, v.act_cochar) == self.identity.act_cochar:
                    self._inverse[w] = v
                    break

    def _length_from_matrix(self, act_char: Mat) -> int:
        count = 0
        for beta in self.rd.positive_roots:
            img = mat_vec(act_char, beta)
            if img not in frozenset(self.rd.positive_roots):
                count += 1
        return count

    def mul(self, a: FiniteWeylElement, b: FiniteWeylElement) -> FiniteWeylElement:
        return self._by_matrix[lattices.mat_mul(a.act_cochar, b.act_cochar)]

    def inverse(self, a: FiniteWeylElement) -> FiniteWeylElement:
        return self._inverse[a]

    def simple(self, i: int) -> FiniteWeylElement:
        return self.generators[i]

    def by_matrix(self, act_cochar: Mat) -> FiniteWeylElement:
        return self._by_matrix[act_cochar]

    def longest(self) -> FiniteWeylElement:
        return max(self.elements, key=lambda w: w.length)

    def sends_into_positive(self, w: FiniteWeylElement, alpha: Vec) -> bool:
        """True iff w^-1(alpha) is a positive root (alpha assumed positive)."""
        return alpha in self._sent_from_pos[w]

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

    def __init__(self, rd: RootDatum, finite_bound: int = 3628800):
        self.rd = rd
        self.W0 = FiniteWeylGroup(rd, bound=finite_bound)
        self.identity = AffineWeylElement(zero_vec(rd.rank), self.W0.identity)
        self.simple_refs: list[AffineWeylElement] = [
            AffineWeylElement(zero_vec(rd.rank), g) for g in self.W0.generators
        ]
        # one affine reflection per irreducible component: s_0 = t_{theta^} s_theta
        for comp in self._components():
            theta, theta_cov = self._highest_root(comp)
            s_theta = self._root_reflection(theta, theta_cov)
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

    def _root_reflection(self, beta: Vec, bv: Vec) -> FiniteWeylElement:
        n = self.rd.rank
        e = lattices.identity_matrix(n)
        cochar_cols = [vsub(e[j], lattices.vscale(self.rd.pair(beta, e[j]), bv)) for j in range(n)]
        return self.W0.by_matrix(lattices.transpose(cochar_cols))

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
        """Iwahori-Matsumoto length of t_lam w."""
        rd = self.rd
        lam, w = x.translation, x.finite
        total = 0
        for alpha in rd.positive_roots:
            c = rd.pair(alpha, lam)
            if self.W0.sends_into_positive(w, alpha):
                total += abs(c)
            else:
                total += abs(c - 1)
        return total

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
