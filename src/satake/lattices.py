"""Small exact integer linear algebra helpers.

Everything here operates on tuples of ints (lattice vectors) or lists of
such tuples, and every step is integer arithmetic.  The one linear solver
is ``integer_solve``: it reads the column Hermite normal form of its basis,
which ``column_hnf`` computes once per basis and memoises, and
forward-substitutes.  The matrices involved are tiny (rank <= 10), so no
attempt at asymptotic cleverness is made.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Optional, Sequence

Vec = tuple[int, ...]


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(k: int, a: Vec) -> Vec:
    return tuple(k * x for x in a)


def zero_vec(rank: int) -> Vec:
    return (0,) * rank


def combination(coeffs: Sequence[int], vectors: Sequence[Vec], dim: int) -> Vec:
    """sum_j coeffs[j] * vectors[j], a vector of length dim."""
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim))


def mat_vec(rows: Sequence[Vec], v: Vec) -> Vec:
    return tuple(sum(r[i] * v[i] for i in range(len(v))) for r in rows)


def transpose(rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    if not rows:
        return ()
    return tuple(tuple(r[j] for r in rows) for j in range(len(rows[0])))


def identity_matrix(n: int) -> tuple[Vec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def column_hnf(columns: tuple[Vec, ...]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Column-style Hermite normal form, memoised per (hashable) basis.

    Returns (H, U) where U is unimodular (given as a list of columns over
    the original column index set) and the columns of H are the original
    columns times U.  Zero columns of H are dropped from neither H nor U;
    H's nonzero columns are in echelon form with positive pivots and
    reduced entries to the left of each pivot.
    """
    m = len(columns[0]) if columns else 0
    cols = [list(c) for c in columns]
    n = len(cols)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U

    def colop_sub(j, k, f):
        # col_j -= f * col_k
        for i in range(m):
            cols[j][i] -= f * cols[k][i]
        for i in range(n):
            u[j][i] -= f * u[k][i]

    def colswap(j, k):
        cols[j], cols[k] = cols[k], cols[j]
        u[j], u[k] = u[k], u[j]

    def colneg(j):
        for i in range(m):
            cols[j][i] = -cols[j][i]
        for i in range(n):
            u[j][i] = -u[j][i]

    pivot_col = 0
    for row in range(m):
        # Euclid among columns >= pivot_col at this row.
        while True:
            nz = [j for j in range(pivot_col, n) if cols[j][row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][row]))
            j0 = nz[0]
            for j in nz[1:]:
                f = cols[j][row] // cols[j0][row]
                colop_sub(j, j0, f)
        nz = [j for j in range(pivot_col, n) if cols[j][row] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pivot_col:
            colswap(j0, pivot_col)
        if cols[pivot_col][row] < 0:
            colneg(pivot_col)
        pv = cols[pivot_col][row]
        for j in range(pivot_col):
            f = cols[j][row] // pv
            if f:
                colop_sub(j, pivot_col, f)
        pivot_col += 1
        if pivot_col == n:
            break
    h = tuple(tuple(c) for c in cols)
    uu = tuple(tuple(c) for c in u)
    return h, uu


def hnf_basis(columns: Sequence[Vec]) -> tuple[Vec, ...]:
    """Nonzero HNF columns spanning the same lattice as ``columns``."""
    h, _ = column_hnf(tuple(columns))
    return tuple(c for c in h if any(c))


def reduce_mod_lattice(v: Vec, basis: Sequence[Vec]) -> Vec:
    """Canonical representative of v modulo the lattice spanned by an HNF basis."""
    w = list(v)
    m = len(v)
    for col in basis:
        pivot = next((i for i in range(m) if col[i] != 0), None)
        if pivot is None:
            continue
        k = w[pivot] // col[pivot]
        if k:
            for i in range(m):
                w[i] -= k * col[i]
    return tuple(w)


def lattice_quotient_invariants(columns: Sequence[Vec], rank: int) -> tuple[int, int]:
    """(free_rank, torsion_order) of Z^rank / span_Z(columns).

    With B the span's HNF basis of s columns, the torsion order is the gcd
    of B's s x s minors.  That gcd is the index in Z^s of the lattice
    spanned by B's rows, which is the product of the pivots of their
    Hermite form."""
    basis = hnf_basis(columns)
    pivots = (next(x for x in c if x) for c in hnf_basis(transpose(basis)))
    return rank - len(basis), prod(pivots)


def integer_solve(columns: Sequence[Vec], target: Vec) -> Optional[Vec]:
    """Find x in Z^n with sum_j x_j * columns[j] = target, or None.

    ``columns`` is the basis, n integer vectors of the length of ``target``.
    """
    h, u = column_hnf(tuple(columns))
    # forward-substitute H y = target on pivot structure
    y = []
    w = list(target)
    for col in h:
        pivot = next((i for i, c in enumerate(col) if c != 0), None)
        if pivot is None:
            y.append(0)
            continue
        k, r = divmod(w[pivot], col[pivot])
        if r:
            return None
        y.append(k)
        for i, c in enumerate(col):
            w[i] -= k * c
    if any(w):
        return None
    x = tuple(sum(uj[i] * yj for uj, yj in zip(u, y)) for i in range(len(u)))
    assert combination(x, columns, len(target)) == tuple(target)
    return x
