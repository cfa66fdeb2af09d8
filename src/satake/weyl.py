"""Finite and extended affine (Iwahori-Weyl) Weyl groups.

The affine group is realized abstractly as X_*(T) semidirect W_0; no
alcove geometry is stored.  The base alcove enters only through the
length formula and the choice of the affine simple reflections.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import lattices
from .lattices import Vec, mat_vec, vadd, vsub, zero_vec
from .root_datum import RootDatum, RootDatumError


class WeylError(RuntimeError):
    """An internal fault of the group tables, not a refusal of input."""


# |W_0| above this (the order of the Weyl group of type E_6, which builds
# in a few seconds) is refused
MAX_W0_ORDER = 51840


class FiniteWeylElement:
    """An element of W_0, stored as a reduced word; immutable.

    ``word`` is a fixed reduced word in simple-reflection indices, found
    by breadth-first enumeration, so it is canonical per group.  Each
    element is built once, by its ``FiniteWeylGroup``, so equality and
    hashing are identity.  ``index`` is the position in
    ``FiniteWeylGroup.elements``, and ``inverted[j]`` is 1 if w^-1 sends
    the j-th positive root to a negative one, else 0.  (A field named
    ``index`` would shadow ``tuple.index``, so this is no NamedTuple.)
    """

    __slots__ = ("word", "length", "index", "inverted", "rd")

    def __init__(self, word: tuple[int, ...], length: int, index: int,
                 inverted: tuple[int, ...], rd: RootDatum):
        for name, value in zip(self.__slots__, (word, length, index, inverted, rd)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWeylElement is immutable")

    def apply_cochar(self, lam: Vec) -> Vec:
        """w lam, walking the word from the right, each letter s_i doing
        lam -> lam - <alpha_i, lam> alpha_i^."""
        for i in reversed(self.word):
            c = sum(map(operator.mul, self.rd.simple_roots[i], lam))
            lam = tuple(x - c * b for x, b in zip(lam, self.rd.simple_coroots[i]))
        return tuple(lam)

    def __repr__(self) -> str:
        return "w[" + ("e" if not self.word else ".".join(map(str, self.word))) + "]"


class FiniteWeylGroup:
    """Complete enumeration of W_0 with cached reduced words.

    Breadth-first search from the identity, multiplying by simple
    reflections on the right, meets the elements in (length, word) order,
    so ``elements`` is sorted that way.  Each element has one row list,
    ``rows[k]``, whose i-th entry for a finite s_i is the move-table entry
    ``(j, k_s, sign, threshold, None)`` of ``AffineWeylGroup``
    (which appends the affine entries to the same lists); products and
    inverses walk the canonical words through its column ``k_s``, the
    index of ``elements[k]`` times s_i.

    The search forms no matrix.  It carries the images w alpha_j^ of the
    simple coroots, which move along an edge as (w s_i) alpha_j^ =
    w alpha_j^ - <alpha_i, alpha_j^> w alpha_i^, and keys each element by
    its inversion flags, which determine it: ``by_inverted``.  Since s_i
    permutes the positive roots other than alpha_i, the flags of w and
    w s_i differ at exactly one positive root alpha_j, the one whose
    coroot is +-w alpha_i^; a dict of signed positive coroots gives j,
    and toggling that flag gives the key of w s_i.  An element's images
    are dropped once its row is written.

    |W_0| is known before the search: the exponents of W_0 are the parts
    of the partition dual to the numbers r_k of positive roots of height
    k (Kostant), so |W_0| = prod_k (k+1)^(r_k - r_{k+1}).  A group above
    ``MAX_W0_ORDER`` is refused with ``RootDatumError``, as a group of too
    high a rank is, before any element is built.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        heights = Counter(map(sum, rd.positive_root_coords))
        order = math.prod((k + 1) ** (heights[k] - heights[k + 1]) for k in heights)
        if order > MAX_W0_ORDER:
            raise RootDatumError(f"|W_0| = {order} exceeds bound {MAX_W0_ORDER}")
        cartan = rd.cartan_matrix()
        # +-alpha^ -> index of the positive coroot alpha^
        signed = {tuple(s * c for c in bv): j
                  for j, bv in enumerate(rd.positive_coroots) for s in (1, -1)}
        self.elements: list[FiniteWeylElement] = []
        self.rows: list[list[tuple]] = []
        self.by_inverted: dict[tuple[int, ...], FiniteWeylElement] = {}
        # images[k][j] = elements[k] alpha_j^, None once rows[k] is written
        images: list[tuple[Vec, ...] | None] = []

        def add(word: tuple[int, ...], inverted: tuple[int, ...], image: tuple[Vec, ...]) -> None:
            if len(word) != sum(inverted):
                raise WeylError("BFS produced a non-reduced word")
            w = FiniteWeylElement(word, len(word), len(self.elements), inverted, rd)
            self.elements.append(w)
            self.by_inverted[inverted] = w
            images.append(image)

        add((), (0,) * len(rd.positive_coroots), rd.simple_coroots)
        # elements[len(self.rows):] is the frontier of the search
        while len(self.rows) < len(self.elements):
            k = len(self.rows)
            w, image = self.elements[k], images[k]
            images[k] = None
            row = []
            for i, wi in enumerate(image):
                j = signed[wi]
                flags = w.inverted[:j] + (1 - w.inverted[j],) + w.inverted[j + 1:]
                if flags not in self.by_inverted:
                    add(w.word + (i,), flags, tuple(tuple(x - c * y for x, y in zip(wj, wi))
                                                    for wj, c in zip(image, cartan[i])))
                # the length goes up iff sign * <alpha_j, lam> >= threshold
                # (``AffineWeylGroup._move_table``)
                sign, threshold = (1, 1) if w.inverted[j] else (-1, 0)
                row.append((j, self.by_inverted[flags].index, sign, threshold, None))
            self.rows.append(row)
        if len(self.elements) != order:
            raise WeylError(f"BFS found {len(self.elements)} elements, not |W_0| = {order}")
        self.identity = self.elements[0]
        self.generators = [self.elements[entry[1]] for entry in self.rows[0]]

    def _walk(self, k: int, word: Iterable[int]) -> FiniteWeylElement:
        for i in word:
            k = self.rows[k][i][1]
        return self.elements[k]

    def mul(self, a: FiniteWeylElement, b: FiniteWeylElement) -> FiniteWeylElement:
        return self._walk(a.index, b.word)

    def inverse(self, a: FiniteWeylElement) -> FiniteWeylElement:
        return self._walk(0, reversed(a.word))

    def inverting_within(self, allowed: Iterable[bool]) -> list[FiniteWeylElement]:
        """The elements whose inversion flags are set only at positive
        roots where ``allowed`` is true, in the order of ``elements``."""
        forbidden = [not a for a in allowed]
        return [w for w in self.elements if not any(map(operator.and_, w.inverted, forbidden))]

    def longest(self) -> FiniteWeylElement:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)


class AffineWeylElement(NamedTuple):
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
    its affine simple system and length function.

    Besides the finite simple reflections, there is one affine reflection
    s_0 = t_{theta^} s_theta per irreducible component, theta its highest
    root: the positive root for which no theta + alpha_i is a root.
    Highest roots of distinct components have disjoint supports, so
    sorting their simple-root coordinates in descending order puts them
    in the order of the first simple root of each component.  With
    theta^ = u alpha_k^ (``_simple_conjugate``), s_theta = u s_k u^-1.

    Word products, reduced words and Hecke products walk integer states
    (t, k), k indexing ``W0.elements`` and t the translation table, grown
    on first touch: row t holds ``_lams[t]`` (``_ids`` inverts it), its
    pairings ``_pairs[t]`` and, memoised in ``_succ[t][c]``, the row of
    its sum with the signed coroot c of ``_coroots``.  Beside the table,
    ``_words`` maps a state to its right-greedy (omega state, word),
    stored the first time the word is asked for (``_word``) and kept, as
    the table is, for the group's lifetime."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        W0 = self.W0 = FiniteWeylGroup(rd)
        self.identity = AffineWeylElement(zero_vec(rd.rank), W0.identity)
        self.simple_refs: list[AffineWeylElement] = [
            AffineWeylElement(zero_vec(rd.rank), g) for g in W0.generators
        ]
        roots = set(rd.positive_root_coords)
        unit = lattices.identity_matrix(rd.semisimple_rank)
        highest = [c for c in rd.positive_root_coords if all(vadd(c, e) not in roots for e in unit)]
        affine = []
        for theta in sorted(highest, reverse=True):
            theta_cov = rd.positive_coroots[rd.positive_root_coords.index(theta)]
            u, m = self._simple_conjugate(theta_cov)
            s_theta = W0.mul(W0.mul(u, W0.generators[m]), W0.inverse(u))
            self.simple_refs.append(AffineWeylElement(theta_cov, s_theta))
            affine.append((u, m, s_theta))
        self._table = self._move_table(affine)
        self._lams: list[Vec] = []
        self._ids: dict[Vec, int] = {}
        self._pairs: list[tuple[int, ...]] = []
        self._succ: list[list[int | None]] = []
        self._words: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, ...]]] = {}
        self._tid(self.identity.translation)

    # -- structure ----------------------------------------------------

    def _simple_conjugate(self, bv: Vec) -> tuple[FiniteWeylElement, int]:
        """(u, k) with u alpha_k^ = bv, hence u alpha_k = beta, for a
        positive coroot bv = beta^.  While bv is not simple, some
        <alpha_i, bv> > 0, and s_i bv is a positive coroot of lower
        height."""
        rd = self.rd
        u = self.W0.identity
        while bv not in rd.simple_coroots:
            i, c = next((i, c) for i, c in enumerate(mat_vec(rd.simple_roots, bv)) if c > 0)
            bv = vsub(bv, lattices.vscale(c, rd.simple_coroots[i]))
            u = self.W0.mul(u, self.W0.generators[i])
        return u, rd.simple_coroots.index(bv)

    def _move_table(self, affine) -> list[list[tuple]]:
        """The move table: ``table[k][i] = (j, k_s, sign, threshold, c)``
        for w = W0.elements[k] and the i-th affine simple reflection.  The
        finite entries are those of ``W0.rows``; the affine ones are
        appended to the same lists, from the (u, m, s_theta) of each
        affine reflection, where theta^ = u alpha_m^, so the table is
        ``W0.rows``.  Every word product, reduced word and Hecke product
        reads this table.

        alpha_j is the positive root +-w alpha_i for a finite s_i, and
        +-w theta = +-(wu) alpha_m for s_0 = t_{theta^} s_theta; the sign
        is - exactly when w inverts alpha_j, i.e. its flag f is 1.  k_s
        is the index of w s_i or w s_theta.  A finite s_i keeps the
        translation: x s_i = t_lam (w s_i), and c is None.  s_0 gives
        t_{lam + w theta^} (w s_theta), so c = j + f N, N the number of
        positive roots, indexes ``_coroots``, which holds each signed
        coroot +-alpha_j^ once, as the pair (move, column): the vector
        added to lam and the pairings +-<alpha, alpha_j^> over the
        positive roots alpha added to those of lam.

        For x = t_lam w and k = <alpha_j, lam>, l(x s_i) > l(x) iff
        sign * k >= threshold.  For a finite s_i the flags of w and w s_i
        differ only at j, so the length formula changes by |k - 1 + f| -
        |k - f|: it goes up exactly when (k > 0) == f, i.e. k >= 1 if
        f = 1 and -k >= 0 if f = 0.  An affine s_0 = t_{theta^} s_theta
        is the reflection in the affine root 1 - theta, which x sends to
        (1 + <w theta, lam>) - w theta; the length goes up iff that root
        is positive, i.e. its constant is > 0, or is 0 and its linear
        part is a positive root.  If f = 0, w theta = alpha_j and the
        test is 1 + k > 0, i.e. k >= 0; if f = 1, w theta = -alpha_j and
        the test is 1 - k >= 0, i.e. -k >= -1."""
        W0, rd = self.W0, self.rd
        plus = [(bv, tuple(self.root_pairings(bv))) for bv in rd.positive_coroots]
        self._coroots = plus + [(tuple(-c for c in bv), tuple(-c for c in col)) for bv, col in plus]
        for w, row in zip(W0.elements, W0.rows):
            for u, m, s_theta in affine:
                j = W0.rows[W0.mul(w, u).index][m][0]
                f = w.inverted[j]
                sign, threshold = (-1, -1) if f else (1, 0)
                row.append((j, W0.mul(w, s_theta).index, sign, threshold, j + f * len(plus)))
        return W0.rows

    # -- the translation table -------------------------------------------

    def _tid(self, lam: Vec, pairings: tuple[int, ...] | None = None) -> int:
        """The index of the translation lam, added on first touch with its
        pairing vector: ``pairings`` if given, else ``root_pairings``'s."""
        t = self._ids.get(lam)
        if t is None:
            self._pairs.append(tuple(self.root_pairings(lam)) if pairings is None else pairings)
            t = self._ids[lam] = len(self._lams)
            self._lams.append(lam)
            self._succ.append([None] * len(self._coroots))
        return t

    def _shift(self, t: int, c: int) -> int:
        """The index of _lams[t] plus the signed coroot c, memoised in
        ``_succ[t][c]``; its pairings are those of t plus the coroot's
        column, so no root is paired."""
        t_s = self._succ[t][c]
        if t_s is None:
            move, column = self._coroots[c]
            t_s = self._succ[t][c] = self._tid(tuple(map(operator.add, self._lams[t], move)),
                                               tuple(map(operator.add, self._pairs[t], column)))
        return t_s

    def _state(self, x: AffineWeylElement) -> tuple[int, int]:
        return self._tid(x.translation), x.finite.index

    def _length(self, t: int, k: int) -> int:
        """``im_length`` of the state (t, k), from the stored pairings."""
        return sum(map(abs, map(operator.sub, self._pairs[t], self.W0.elements[k].inverted)))

    # -- group operations ---------------------------------------------

    def translation(self, lam: Vec) -> AffineWeylElement:
        return AffineWeylElement(tuple(lam), self.W0.identity)

    def mul(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        return AffineWeylElement(
            vadd(x.translation, x.finite.apply_cochar(y.translation)),
            self.W0.mul(x.finite, y.finite),
        )

    def word_to_element(self, word: Iterable[int]) -> AffineWeylElement:
        """The product of the affine simple reflections along ``word``,
        walked on states from the identity's, (0, 0), through the move
        table and the translation table; no root is paired."""
        t = k = 0
        table = self._table
        for i in word:
            _, k_s, _, _, c = table[k][i]
            if c is not None:
                t = self._shift(t, c)
            k = k_s
        return AffineWeylElement(self._lams[t], self.W0.elements[k])

    # -- length and reduced words --------------------------------------

    def im_length(self, x: AffineWeylElement) -> int:
        """Iwahori-Matsumoto length of t_lam w: the sum over positive roots
        alpha of |<alpha, lam>| if w^-1 alpha > 0, else |<alpha, lam> - 1|,
        from pairings formed afresh, apart from the translation table."""
        return sum(map(abs, map(operator.sub, self.root_pairings(x.translation),
                                x.finite.inverted)))

    def min_coset_length(self, nu: Vec) -> int:
        """min over w in W_0 of l(t_nu w), the length of the minimal
        element of the right coset t_nu W_0.

        Term by term the length formula is smallest when w^-1 inverts
        exactly the positive alpha with <alpha, nu> > 0, and that set is
        closed and co-closed, hence an inversion set, so the minimum is
        the sum over positive alpha of |<alpha, nu>| - [<alpha, nu> > 0]."""
        return sum(abs(k) - (k > 0) for k in self.root_pairings(nu))

    def min_coset_element(self, nu: Vec) -> AffineWeylElement:
        """The minimal element t_nu v_nu of the right coset t_nu W_0.

        By ``min_coset_length``, v_nu^-1 inverts exactly the positive
        alpha with <alpha, nu> > 0, so v_nu is the element of W_0 with
        those inversion flags, looked up in ``W0.by_inverted``."""
        flags = tuple(int(k > 0) for k in self.root_pairings(nu))
        return AffineWeylElement(tuple(nu), self.W0.by_inverted[flags])

    def root_pairings(self, nu: Vec) -> list[int]:
        """<alpha, nu> for each positive root alpha, in the order of the
        inversion flags.  Lengths and the move table's columns read their
        pairings from here, and the translation table reads each
        translation's from here once (``_tid``)."""
        return [sum(map(operator.mul, alpha, nu)) for alpha in self.rd.positive_roots]

    def reduced_word(self, x: AffineWeylElement) -> tuple[AffineWeylElement, tuple[int, ...]]:
        """Right-greedy reduced word; returns (omega, word) with
        x = omega * (product of simple reflections along word), omega of
        length zero and len(word) = im_length(x).  The answer is the memo
        entry of x's state (``_word``)."""
        (t, k), word = self._word(self._state(x))
        return AffineWeylElement(self._lams[t], self.W0.elements[k]), word

    def _word(self, s: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, ...]]:
        """(omega, word) of ``reduced_word`` for the state s, omega as a
        state, walked once per group and then read from ``_words``.

        Each step takes the first i with l(y s_i) < l(y) for the current
        y (first s itself) and moves y to y s_i, both read from the move
        table; the letters are found from the right end of the word, and
        the y left at length zero is omega.  Each descent test reads one
        pairing of the translation table; a walk that raises stores
        nothing."""
        entry = self._words.get(s)
        if entry is None:
            table, pairs = self._table, self._pairs
            t, k = s
            word: list[int] = []
            for _ in range(self._length(t, k)):
                p = pairs[t]
                for i, (j, k_s, sign, threshold, c) in enumerate(table[k]):
                    if sign * p[j] < threshold:
                        break
                else:
                    x = AffineWeylElement(self._lams[s[0]], self.W0.elements[s[1]])
                    raise WeylError(f"no descent for positive-length element {x!r}")
                word.append(i)
                if c is not None:
                    t = self._shift(t, c)
                k = k_s
            entry = self._words[s] = ((t, k), tuple(reversed(word)))
        return entry

    # -- W_0-orbits ------------------------------------------------------

    def dominant_representative(self, lam: Vec) -> Vec:
        """The dominant W_0-orbit representative of a cocharacter, u^-1 lam
        for the u in W_0 whose inversion flags are [<alpha, lam> < 0].

        That set is an inversion set, as in ``min_coset_length``.  For
        alpha > 0, either u alpha = beta > 0, which u^-1 does not invert,
        so <alpha, u^-1 lam> = <beta, lam> >= 0; or u alpha = -beta with
        beta > 0 inverted, so <alpha, u^-1 lam> = -<beta, lam> > 0."""
        flags = tuple(int(k < 0) for k in self.root_pairings(lam))
        return self.W0.inverse(self.W0.by_inverted[flags]).apply_cochar(lam)


@lru_cache(maxsize=None)
def affine_weyl_group(rd: RootDatum) -> AffineWeylGroup:
    return AffineWeylGroup(rd)


def finite_weyl_group(rd: RootDatum) -> FiniteWeylGroup:
    return affine_weyl_group(rd).W0
