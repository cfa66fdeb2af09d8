"""Based root data of split reductive groups and their duals.

A root datum stores the cocharacter lattice X_* as Z^rank in a fixed
basis and the character lattice X^* as Z^rank in the dual basis, so the
pairing <chi, lam> is the dot product and a root is its own functional on
X_*.  Any based root datum has such a presentation: GL_n, SL_n, PGL_n and
Sp_4 differ only in their simple roots and coroots.  The Langlands dual
swaps the two lists.  The catalog knows each family as one row of
``_FAMILIES``: the n it accepts, the rank of fam(n), its simple roots and
coroots, and its dual's name; a new family is one row.  Everything
downstream (Weyl groups, Hecke algebras, the dual representation ring)
is driven by this data.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import lattices
from .lattices import Vec, mat_vec, vsub, zero_vec


class RootDatumError(ValueError):
    pass


class RootDatum(NamedTuple):
    """A based root datum; immutable and hashable, safe to share.

    Characters are written in the basis dual to that of the cocharacters,
    so ``pair`` is the dot product and ``positive_roots[k]`` is also the
    functional <beta_k, -> on X_*.  ``positive_root_coords[k]`` holds the
    simple-root coordinates of ``positive_roots[k]``,
    ``positive_coroot_coords[k]`` the simple-coroot coordinates of
    ``positive_coroots[k]``, ``two_rho_row`` is 2rho, the sum of the
    positive roots, and ``two_rho_hat_row`` is the sum of the positive
    coroots.  These four are derived from the other fields by
    ``make_root_datum``, so they take part in equality and hashing
    without changing either: two data equal in their other fields are
    equal in these too.
    """

    name: str
    rank: int
    simple_roots: tuple[Vec, ...]     # in X*
    simple_coroots: tuple[Vec, ...]   # in X_*, bijective with simple_roots
    positive_roots: tuple[Vec, ...]   # aligned with positive_coroots
    positive_coroots: tuple[Vec, ...]
    positive_root_coords: tuple[Vec, ...]
    positive_coroot_coords: tuple[Vec, ...]
    two_rho_row: Vec
    two_rho_hat_row: Vec

    def pair(self, chi: Vec, lam: Vec) -> int:
        """The pairing <chi, lam> of a character with a cocharacter."""
        return sum(c * x for c, x in zip(chi, lam))

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def two_rho(self) -> Vec:
        """Sum of the positive roots, an element of X*."""
        return self.two_rho_row

    def two_rho_hat(self) -> Vec:
        """Sum of the positive coroots, an element of X_*."""
        return self.two_rho_hat_row

    def cartan_matrix(self) -> tuple[Vec, ...]:
        """Rows <alpha_i, alpha_j^> over j, one per simple root alpha_i."""
        return tuple(mat_vec(self.simple_coroots, alpha) for alpha in self.simple_roots)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "rank": self.rank,
            "pairing_matrix": [list(r) for r in lattices.identity_matrix(self.rank)],
            "simple_roots": [list(r) for r in self.simple_roots],
            "simple_coroots": [list(r) for r in self.simple_coroots],
        }
        return json.dumps(doc, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"RootDatum({self.name})"


def _saturate_positives(simple_roots, simple_coroots):
    """Close the simple (root, coroot) pairs under simple reflections,
    keeping those in the nonnegative cone of simple roots.

    Returns the positive roots and coroots, sorted by height, with their
    coordinates in the simple roots and in the simple coroots."""
    n = len(simple_roots)
    unit = lattices.identity_matrix(n)
    # root -> (coroot, simple-root coordinates, simple-coroot coordinates)
    items = {simple_roots[i]: (simple_coroots[i], unit[i], unit[i]) for i in range(n)}
    frontier = list(items)
    while frontier:
        new = []
        for beta in frontier:
            bv, coeffs, co_coeffs = items[beta]
            for i in range(n):
                # s_i beta = beta - <beta, alpha_i^> alpha_i
                c = sum(b * r for b, r in zip(beta, simple_coroots[i]))
                nbeta = vsub(beta, lattices.vscale(c, simple_roots[i]))
                ncoeffs = vsub(coeffs, lattices.vscale(c, unit[i]))
                if all(x >= 0 for x in ncoeffs) and nbeta not in items:
                    # s_i beta^ = beta^ - <alpha_i, beta^> alpha_i^
                    cb = sum(r * b for r, b in zip(simple_roots[i], bv))
                    nbv = vsub(bv, lattices.vscale(cb, simple_coroots[i]))
                    items[nbeta] = (nbv, ncoeffs, vsub(co_coeffs, lattices.vscale(cb, unit[i])))
                    new.append(nbeta)
        frontier = new
    # sort by height then lexicographically, for stable output
    ordered = sorted(items, key=lambda b: (sum(items[b][1]), b))
    coroots, coords, co_coords = (tuple(items[b][k] for b in ordered) for k in range(3))
    return tuple(ordered), coroots, coords, co_coords


def make_root_datum(name, rank, simple_roots, simple_coroots) -> RootDatum:
    """The datum with these simple roots, in the basis of X^* dual to that
    of X_*, and simple coroots, in X_* = Z^rank."""
    if rank <= 0:
        raise RootDatumError(f"nonpositive rank {rank}")
    simple_roots = tuple(tuple(r) for r in simple_roots)
    simple_coroots = tuple(tuple(r) for r in simple_coroots)
    if len(simple_roots) != len(simple_coroots):
        raise RootDatumError("simple roots and coroots must biject")
    for v in simple_roots + simple_coroots:
        if len(v) != rank:
            raise RootDatumError(f"simple (co)root {v} has length {len(v)}, not the rank {rank}")
    pos_roots, pos_coroots, root_coords, coroot_coords = \
        _saturate_positives(simple_roots, simple_coroots)
    ones = (1,) * len(pos_roots)
    rd = RootDatum(name, rank, simple_roots, simple_coroots, pos_roots, pos_coroots,
                   root_coords, coroot_coords, lattices.combination(ones, pos_roots, rank),
                   lattices.combination(ones, pos_coroots, rank))
    _validate(rd)
    return rd


def _validate(rd: RootDatum) -> None:
    cartan = rd.cartan_matrix()
    n = rd.semisimple_rank
    for i in range(n):
        if cartan[i][i] != 2:
            raise RootDatumError(f"<alpha_{i}, alpha_{i}^> = {cartan[i][i]} != 2")
        for j in range(n):
            if i != j and cartan[i][j] > 0:
                raise RootDatumError("positive off-diagonal Cartan entry")
    for beta, bv, c, cv in zip(rd.positive_roots, rd.positive_coroots,
                               rd.positive_root_coords, rd.positive_coroot_coords):
        if rd.pair(beta, bv) != 2:
            raise RootDatumError(f"<beta, beta^> != 2 for {beta}")
        if lattices.combination(c, rd.simple_roots, rd.rank) != beta or \
                lattices.combination(cv, rd.simple_coroots, rd.rank) != bv:
            raise RootDatumError(f"stored simple (co)root coordinates miss {beta}")


# ---------------------------------------------------------------------------
# catalog


def _gl_roots(n: int) -> tuple[Vec, ...]:
    """e_i - e_(i+1) in Z^n: the simple roots of GL(n), also its coroots."""
    e = lattices.identity_matrix(n)
    return tuple(vsub(e[i], e[i + 1]) for i in range(n - 1))


def _sl_roots(n: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """SL(n) with cocharacters in the simple-coroot basis and characters in
    its dual, the fundamental-weight basis: the simple roots are the rows
    of the Cartan matrix, the pairings of GL(n)'s simple roots."""
    a = _gl_roots(n)
    return tuple(mat_vec(a, x) for x in a), lattices.identity_matrix(n - 1)


# type C2 on the standard lattice Z^2: long root 2e_2, short root e_1 - e_2
_SP4_ROOTS = (((1, -1), (0, 2)), ((1, -1), (0, 1)))


class _Family(NamedTuple):
    """One row of the catalog: fam(n) exists for least <= n <= most (no
    upper end if most is None), has rank ``rank(n)``, simple roots and
    coroots ``roots(n)``, and its Langlands dual is named ``dual(n)``.
    The columns are functions of n run at call time, so a name is
    refused by its rank before any vector is built."""

    least: int
    most: Optional[int]
    rank: Callable[[int], int]
    roots: Callable[[int], tuple]
    dual: Callable[[int], str]

    def refusal(self, fam: str) -> str:
        if self.least == self.most:
            return f"only {fam}({self.least}) is in the catalog"
        return f"{fam}(n) needs n >= {self.least}"


# a new family is one row; the adjoint rows swap the simply connected ones
_FAMILIES = {
    "GL": _Family(1, None, lambda n: n, lambda n: (_gl_roots(n),) * 2, lambda n: f"GL({n})"),
    "SL": _Family(2, None, lambda n: n - 1, _sl_roots, lambda n: f"PGL({n})"),
    "PGL": _Family(2, None, lambda n: n - 1, lambda n: _sl_roots(n)[::-1], lambda n: f"SL({n})"),
    "Sp": _Family(4, 4, lambda n: n // 2, lambda n: _SP4_ROOTS, lambda n: f"SO({n + 1})"),
    "SO": _Family(5, 5, lambda n: n // 2, lambda n: _SP4_ROOTS[::-1], lambda n: f"Sp({n - 1})"),
    "torus": _Family(1, None, lambda n: n, lambda n: ((), ()), lambda n: f"torus({n})"),
}
# at most nine ASCII digits, so that int() never meets an over-long string
_CATALOG_RE = re.compile(rf"^({'|'.join(_FAMILIES)})\(([0-9]{{1,9}})\)$")

# a name of rank above this is refused before any matrix is built; W_0 has
# its own bound, weyl.MAX_W0_ORDER (weyl imports this module)
MAX_RANK = 20


def product(a: RootDatum, b: RootDatum) -> RootDatum:
    """Direct product, (co)roots embedded blockwise."""
    ra, rb = a.rank, b.rank

    def embed_a(v):
        return tuple(v) + zero_vec(rb)

    def embed_b(v):
        return zero_vec(ra) + tuple(v)

    roots = [embed_a(r) for r in a.simple_roots] + [embed_b(r) for r in b.simple_roots]
    coroots = [embed_a(r) for r in a.simple_coroots] + [embed_b(r) for r in b.simple_coroots]
    return make_root_datum(f"{a.name}*{b.name}", ra + rb, roots, coroots)


def _parse(part: str) -> Optional[tuple[str, int]]:
    """(family, n) of a one-family name such as ``SL(3)``, or None."""
    m = _CATALOG_RE.match(part.strip())
    return (m.group(1), int(m.group(2))) if m else None


@lru_cache(maxsize=None)
def catalog(name: str) -> RootDatum:
    """Look up a group by name, e.g. ``GL(2)``, ``SL(3)``, ``PGL(2)``,
    ``Sp(4)``, ``SO(5)``, ``torus(1)``, or a product ``GL(2)*torus(1)``.

    Everything it knows of a family is the family's row in ``_FAMILIES``:
    a new family is one row."""
    name = name.strip()
    parts = name.split("*")
    # unknown parts count 0 here and are refused below
    rank = sum(_FAMILIES[fam].rank(n) for fam, n in filter(None, map(_parse, parts)))
    if rank > MAX_RANK:
        raise RootDatumError(f"{name!r} has rank {rank}, above the bound {MAX_RANK}")
    if len(parts) > 1:
        rd = catalog(parts[0])
        for p in parts[1:]:
            rd = product(rd, catalog(p))
        return rd
    parsed = _parse(name)
    if parsed is None:
        raise RootDatumError(f"unknown group {name!r}")
    fam, n = parsed
    row = _FAMILIES[fam]
    if n < row.least or (row.most is not None and n > row.most):
        raise RootDatumError(row.refusal(fam))
    return make_root_datum(f"{fam}({n})", row.rank(n), *row.roots(n))


def _dual_name(name: str) -> str:
    def one(part):
        parsed = _parse(part)
        if parsed is None:
            return f"dual({part})"
        fam, n = parsed
        return _FAMILIES[fam].dual(n)
    return "*".join(one(p) for p in name.split("*"))


def dual(rd: RootDatum) -> RootDatum:
    """The Langlands dual datum: X^* and X_* swap, and so do the simple
    roots and coroots; the dual bases stay dual, so nothing else moves."""
    return make_root_datum(_dual_name(rd.name), rd.rank, rd.simple_coroots, rd.simple_roots)


# ---------------------------------------------------------------------------
# dominance, length pairing, parity, pi_1


def is_dominant(rd: RootDatum, mu: Vec) -> bool:
    return all(sum(r * x for r, x in zip(alpha, mu)) >= 0 for alpha in rd.simple_roots)


def assert_dominant(rd: RootDatum, mu: Vec) -> Vec:
    mu = tuple(mu)
    if len(mu) != rd.rank:
        raise RootDatumError(f"cocharacter {mu} has wrong rank for {rd.name}")
    if not is_dominant(rd, mu):
        raise RootDatumError(f"{mu} is not dominant for {rd.name}")
    return mu


def dominance_leq(rd: RootDatum, lam: Vec, mu: Vec) -> bool:
    """lam <= mu iff mu - lam is a nonnegative integer combination of
    simple coroots."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != rd.rank or len(mu) != rd.rank:
        raise RootDatumError("rank mismatch in dominance comparison")
    sol = coroot_coords(rd, vsub(mu, lam))
    return sol is not None and all(c >= 0 for c in sol)


def coroot_coords(rd: RootDatum, v: Vec) -> Optional[Vec]:
    """The coordinates of v in the simple coroots, or None if v is not an
    integer combination of them."""
    return lattices.integer_solve(rd.simple_coroots, tuple(v))


def d_pairing(rd: RootDatum, mu: Vec) -> int:
    """d_mu = <2rho, mu>, the relative dimension of the Schubert cell."""
    return sum(r * x for r, x in zip(rd.two_rho_row, mu))


def parity(rd: RootDatum, mu: Vec) -> int:
    return d_pairing(rd, mu) % 2


def pi1_label(rd: RootDatum, lam: Vec) -> Vec:
    """Canonical label of the class of lam in X_* / (coroot lattice)."""
    return lattices.reduce_mod_lattice(tuple(lam), lattices.hnf_basis(rd.simple_coroots))


def pi1_invariants(rd: RootDatum) -> tuple[int, int]:
    """(free rank, torsion order) of the algebraic fundamental group."""
    return lattices.lattice_quotient_invariants(rd.simple_coroots, rd.rank)


# ---------------------------------------------------------------------------
# the modified dual group


def epsilon_trivial(rd: RootDatum) -> bool:
    """Whether epsilon = 2rho(-1) is trivial, i.e. (-1)^<2rho, e_j> = 1 on
    the basis vectors e_j; then the modified dual group is the direct
    product of the dual group and GL(1)."""
    return all(c % 2 == 0 for c in rd.two_rho_row)


def g1_description(rd: RootDatum) -> str:
    """Human-readable structure of the modified dual group; builds no dual."""
    dname = _dual_name(rd.name)
    if epsilon_trivial(rd):
        return f"{dname} x GL(1) (direct product)"
    if dname == "SL(2)":
        # (SL(2) x GL(1)) / mu_2 glued along the center is GL(2)
        return "GL(2)"
    return f"({dname} x GL(1)) / mu_2 (nontrivial gluing)"


# ---------------------------------------------------------------------------
# enumeration of dominant cocharacters


def dominant_reps(rd: RootDatum, dmax: int) -> list[Vec]:
    """One dominant cocharacter per achievable vector of simple-root
    pairings with <2rho, mu> <= dmax.

    This enumerates the dominant cone modulo central cocharacters (which
    pair to zero with every root); each representative is produced by an
    integral solve and canonicalized, so the output is finite and stable.
    """
    n = rd.semisimple_rank
    if n == 0:
        return [zero_vec(rd.rank)]
    # d = sum_i m_i * <alpha_i, mu> where m_i counts occurrences of alpha_i
    # in the positive roots: the column sums of their simple-root coordinates
    weights = lattices.combination((1,) * len(rd.positive_roots), rd.positive_root_coords, n)
    # column j holds the pairings <alpha_i, e_j> of the simple roots with
    # the j-th basis vector of X_*, their j-th coordinates
    columns = lattices.transpose(rd.simple_roots)

    out = []

    def rec(i, remaining, acc):
        if i == n:
            sol = lattices.integer_solve(columns, tuple(acc))
            if sol is not None:
                out.append(sol)
            return
        k = 0
        while k * weights[i] <= remaining:
            rec(i + 1, remaining - k * weights[i], acc + [k])
            k += 1

    rec(0, dmax, [])
    assert all(is_dominant(rd, mu) for mu in out)
    return sorted(set(out))


def dominant_below(rd: RootDatum, mu: Vec) -> list[Vec]:
    """All dominant lam <= mu in the dominance order, including mu, sorted.

    A fresh list over the walk of ``_dominant_below``, which runs once per
    (rd, mu): the IC functions, stalk tables, characters and the q = 1
    check all read the same weights."""
    return list(_dominant_below(rd, tuple(mu)))


@lru_cache(maxsize=None)
def _dominant_below(rd: RootDatum, mu: Vec) -> tuple[Vec, ...]:
    """``dominant_below``, walked down from mu by subtracting positive
    coroots, going on from the dominant results only.  Between dominant
    lam <= mu there is a chain of dominant weights whose steps are
    positive roots (Stembridge, The partial order of dominant weights,
    Adv. Math. 136 (1998), Cor. 2.7, for the dual root system, whose
    positive roots are the positive coroots), so the walk reaches exactly
    the dominant lam <= mu."""
    found, level = {mu}, {mu}
    while level:
        level = {lam for x in level for lam in (vsub(x, beta) for beta in rd.positive_coroots)
                 if lam not in found and is_dominant(rd, lam)}
        found |= level
    return tuple(sorted(found))
