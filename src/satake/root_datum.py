"""Based root data of split reductive groups and their duals.

A root datum stores the character and cocharacter lattices as Z^rank in a
fixed basis, an explicit integer pairing matrix, and the simple (co)roots.
The pairing is *not* assumed to be the identity, so GL_n, SL_n, PGL_n and
Sp_4 all live in the same framework.  Everything downstream (Weyl groups,
Hecke algebras, the dual representation ring) is driven by this data.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from . import lattices
from .lattices import Vec, mat_vec, vadd, vsub, zero_vec


class RootDatumError(ValueError):
    pass


@dataclass(frozen=True)
class RootDatum:
    """A based root datum; immutable and hashable, safe to share."""

    name: str
    rank: int
    pairing: tuple[Vec, ...]          # rows indexed by X*, columns by X_*
    simple_roots: tuple[Vec, ...]     # in X*
    simple_coroots: tuple[Vec, ...]   # in X_*, bijective with simple_roots
    positive_roots: tuple[Vec, ...]   # aligned with positive_coroots
    positive_coroots: tuple[Vec, ...]

    def pair(self, chi: Vec, lam: Vec) -> int:
        """The bilinear pairing <chi, lam> of a character with a cocharacter."""
        return sum(self.pairing[i][j] * chi[i] * lam[j]
                   for i in range(self.rank) for j in range(self.rank))

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def two_rho(self) -> Vec:
        """Sum of the positive roots, an element of X*."""
        v = zero_vec(self.rank)
        for beta in self.positive_roots:
            v = vadd(v, beta)
        return v

    def two_rho_hat(self) -> Vec:
        """Sum of the positive coroots, an element of X_*."""
        v = zero_vec(self.rank)
        for beta in self.positive_coroots:
            v = vadd(v, beta)
        return v

    def cartan_matrix(self) -> tuple[Vec, ...]:
        return tuple(tuple(self.pair(a, bv) for bv in self.simple_coroots)
                     for a in self.simple_roots)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "rank": self.rank,
            "pairing_matrix": [list(r) for r in self.pairing],
            "simple_roots": [list(r) for r in self.simple_roots],
            "simple_coroots": [list(r) for r in self.simple_coroots],
        }
        return json.dumps(doc, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"RootDatum({self.name})"


def _saturate_positives(rank, pairing, simple_roots, simple_coroots):
    """Close the simple (root, coroot) pairs under simple reflections,
    keeping those in the nonnegative cone of simple roots."""
    def pair(chi, lam):
        return sum(pairing[i][j] * chi[i] * lam[j] for i in range(rank) for j in range(rank))

    n = len(simple_roots)
    # track the coefficient vector of each root in the simple-root basis
    items = {simple_roots[i]: (simple_coroots[i], tuple(1 if j == i else 0 for j in range(n)))
             for i in range(n)}
    frontier = list(items)
    while frontier:
        new = []
        for beta in frontier:
            bv, coeffs = items[beta]
            for i in range(n):
                c = pair(beta, simple_coroots[i])
                nbeta = vsub(beta, lattices.vscale(c, simple_roots[i]))
                ncoeffs = tuple(coeffs[j] - (c if j == i else 0) for j in range(n))
                if all(x >= 0 for x in ncoeffs) and nbeta not in items:
                    cb = pair(simple_roots[i], bv)
                    nbv = vsub(bv, lattices.vscale(cb, simple_coroots[i]))
                    items[nbeta] = (nbv, ncoeffs)
                    new.append(nbeta)
        frontier = new
    # sort by height then lexicographically, for stable output
    def height(beta):
        return sum(items[beta][1])
    ordered = sorted(items, key=lambda b: (height(b), b))
    roots = tuple(ordered)
    coroots = tuple(items[b][0] for b in ordered)
    return roots, coroots


def make_root_datum(name, rank, pairing, simple_roots, simple_coroots) -> RootDatum:
    if rank <= 0:
        raise RootDatumError(f"nonpositive rank {rank}")
    pairing = tuple(tuple(r) for r in pairing)
    simple_roots = tuple(tuple(r) for r in simple_roots)
    simple_coroots = tuple(tuple(r) for r in simple_coroots)
    if len(simple_roots) != len(simple_coroots):
        raise RootDatumError("simple roots and coroots must biject")
    pos_roots, pos_coroots = _saturate_positives(rank, pairing, simple_roots, simple_coroots)
    rd = RootDatum(name, rank, pairing, simple_roots, simple_coroots, pos_roots, pos_coroots)
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
    for beta, bv in zip(rd.positive_roots, rd.positive_coroots):
        if rd.pair(beta, bv) != 2:
            raise RootDatumError(f"<beta, beta^> != 2 for {beta}")


# ---------------------------------------------------------------------------
# catalog


def _cartan_A(n: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _gl(n: int) -> RootDatum:
    if n < 1:
        raise RootDatumError("GL(n) needs n >= 1")
    e = lattices.identity_matrix(n)
    roots = [vsub(e[i], e[i + 1]) for i in range(n - 1)]
    return make_root_datum(f"GL({n})", n, e, roots, roots)


def _sl(n: int) -> RootDatum:
    if n < 2:
        raise RootDatumError("SL(n) needs n >= 2")
    r = n - 1
    # characters in the fundamental-weight basis, cocharacters in the
    # simple-coroot basis; the pairing is then the identity and the simple
    # roots are the rows of the Cartan matrix.
    e = lattices.identity_matrix(r)
    cartan = _cartan_A(r)
    return make_root_datum(f"SL({n})", r, e, [tuple(row) for row in cartan], e)


def _sp4() -> RootDatum:
    # type C2 on the standard lattice Z^2: long root 2e_2, short root e_1 - e_2
    e = lattices.identity_matrix(2)
    roots = [(1, -1), (0, 2)]
    coroots = [(1, -1), (0, 1)]
    return make_root_datum("Sp(4)", 2, e, roots, coroots)


def _torus(n: int) -> RootDatum:
    if n < 1:
        raise RootDatumError("torus(n) needs n >= 1")
    return make_root_datum(f"torus({n})", n, lattices.identity_matrix(n), [], [])


def product(a: RootDatum, b: RootDatum) -> RootDatum:
    """Direct product, block sums of all data."""
    ra, rb = a.rank, b.rank

    def embed_a(v):
        return tuple(v) + zero_vec(rb)

    def embed_b(v):
        return zero_vec(ra) + tuple(v)

    pairing = tuple(tuple(a.pairing[i]) + zero_vec(rb) for i in range(ra)) + \
        tuple(zero_vec(ra) + tuple(b.pairing[i]) for i in range(rb))
    roots = [embed_a(r) for r in a.simple_roots] + [embed_b(r) for r in b.simple_roots]
    coroots = [embed_a(r) for r in a.simple_coroots] + [embed_b(r) for r in b.simple_coroots]
    return make_root_datum(f"{a.name}*{b.name}", ra + rb, pairing, roots, coroots)


_DUAL_NAMES = {"GL": "GL", "SL": "PGL", "PGL": "SL", "Sp": "SO", "SO": "Sp", "torus": "torus"}
_CATALOG_RE = re.compile(r"^(GL|SL|PGL|Sp|SO|torus)\((\d+)\)$")


@lru_cache(maxsize=None)
def catalog(name: str) -> RootDatum:
    """Look up a group by name, e.g. ``GL(2)``, ``SL(3)``, ``PGL(2)``,
    ``Sp(4)``, ``SO(5)``, ``torus(1)``, or a product ``GL(2)*torus(1)``."""
    name = name.strip()
    if "*" in name:
        parts = name.split("*")
        rd = catalog(parts[0])
        for p in parts[1:]:
            rd = product(rd, catalog(p))
        return rd
    m = _CATALOG_RE.match(name)
    if not m:
        raise RootDatumError(f"unknown group {name!r}")
    fam, num = m.group(1), int(m.group(2))
    if fam == "GL":
        return _gl(num)
    if fam == "SL":
        return _sl(num)
    if fam == "PGL":
        if num < 2:
            raise RootDatumError("PGL(n) needs n >= 2")
        return dual(_sl(num))
    if fam == "Sp":
        if num != 4:
            raise RootDatumError("only Sp(4) is in the catalog")
        return _sp4()
    if fam == "SO":
        if num != 5:
            raise RootDatumError("only SO(5) is in the catalog")
        return dual(_sp4())
    if fam == "torus":
        return _torus(num)
    raise RootDatumError(f"unknown group {name!r}")


def _dual_name(name: str) -> str:
    def one(n):
        m = _CATALOG_RE.match(n)
        if not m:
            return f"dual({n})"
        fam, num = m.group(1), int(m.group(2))
        dfam = _DUAL_NAMES[fam]
        if fam == "Sp":
            return f"SO({num + 1})"
        if fam == "SO":
            return f"Sp({num - 1})"
        return f"{dfam}({num})"
    return "*".join(one(p) for p in name.split("*"))


def dual(rd: RootDatum) -> RootDatum:
    """The Langlands dual datum: lattices and (co)roots swapped, pairing
    transposed."""
    return make_root_datum(
        _dual_name(rd.name),
        rd.rank,
        lattices.transpose(rd.pairing),
        rd.simple_coroots,
        rd.simple_roots,
    )


# ---------------------------------------------------------------------------
# dominance, length pairing, parity, pi_1


def is_dominant(rd: RootDatum, mu: Vec) -> bool:
    return all(rd.pair(a, mu) >= 0 for a in rd.simple_roots)


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
    diff = vsub(mu, lam)
    if not any(diff):
        return True
    if not rd.simple_coroots:
        return False
    sol = lattices.solve_integer_combination(rd.simple_coroots, diff)
    return sol is not None and all(c >= 0 for c in sol)


def d_pairing(rd: RootDatum, mu: Vec) -> int:
    """d_mu = <2rho, mu>, the relative dimension of the Schubert cell."""
    return rd.pair(rd.two_rho(), tuple(mu))


def parity(rd: RootDatum, mu: Vec) -> int:
    return d_pairing(rd, mu) % 2


@lru_cache(maxsize=None)
def _coroot_hnf(rd: RootDatum):
    cols = [c for c in rd.simple_coroots if any(c)]
    if not cols:
        return ()
    return lattices.hnf_basis(cols)


def pi1_label(rd: RootDatum, lam: Vec) -> Vec:
    """Canonical label of the class of lam in X_* / (coroot lattice)."""
    return lattices.reduce_mod_lattice(tuple(lam), _coroot_hnf(rd))


def pi1_invariants(rd: RootDatum) -> tuple[int, int]:
    """(free rank, torsion order) of the algebraic fundamental group."""
    return lattices.lattice_quotient_invariants(rd.simple_coroots, rd.rank)


# ---------------------------------------------------------------------------
# the modified dual group


@dataclass(frozen=True)
class G1Data:
    dual_datum: RootDatum
    epsilon_trivial: bool
    direct_product: bool


def epsilon_value(rd: RootDatum, lam: Vec) -> int:
    """Evaluate the order-two central element on a character of the dual
    torus (= cocharacter of T), giving +-1."""
    return -1 if parity(rd, lam) else 1


def g1_data(rd: RootDatum) -> G1Data:
    e = lattices.identity_matrix(rd.rank)
    trivial = all(epsilon_value(rd, e[j]) == 1 for j in range(rd.rank))
    return G1Data(dual_datum=dual(rd), epsilon_trivial=trivial, direct_product=trivial)


def g1_description(rd: RootDatum) -> str:
    """Human-readable structure of the modified dual group."""
    data = g1_data(rd)
    dname = data.dual_datum.name
    if data.direct_product:
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
    # in the positive roots
    weights = []
    for i in range(n):
        total = 0
        for beta in rd.positive_roots:
            coeffs = lattices.solve_integer_combination(rd.simple_roots, beta)
            total += coeffs[i]
        weights.append(total)
    rows = tuple(mat_vec(rd.pairing, a) for a in rd.simple_roots)  # <alpha_i, -> as row functionals

    out = []

    def rec(i, remaining, acc):
        if i == n:
            sol = lattices.integer_solve(rows, tuple(acc))
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
    """All dominant lam <= mu in the dominance order, including mu."""
    mu = tuple(mu)
    n = rd.semisimple_rank
    if n == 0:
        return [mu]
    bound = d_pairing(rd, mu) // 2
    out = []

    def rec(i, left, acc):
        if i == n:
            lam = mu
            for c, av in zip(acc, rd.simple_coroots):
                lam = vsub(lam, lattices.vscale(c, av))
            if is_dominant(rd, lam):
                out.append(lam)
            return
        for c in range(left + 1):
            rec(i + 1, left - c, acc + [c])

    rec(0, bound, [])
    return sorted(set(out))
