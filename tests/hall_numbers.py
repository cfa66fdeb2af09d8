"""Hall numbers of finite abelian p-groups, counted subgroup by subgroup:
an oracle for the structure constants of the spherical Hecke algebra of
GL(n) that imports nothing from ``satake``.

For partitions lam, mu and nu (written as n-tuples, padded with zeros)
let M_lam = Z/p^lam_1 + ... + Z/p^lam_n.  The Hall number

    g^lam_{mu,nu}(p) = #{N <= M_lam : N ~ M_nu, M_lam / N ~ M_mu}

is the coefficient of c_lam in c_mu c_nu in the spherical Hecke algebra
of GL(n) over Q_p, c_lam the indicator of K t^lam K (Macdonald, Symmetric
functions and Hall polynomials, II (4.3) and V (2.6)).  The library
reaches the same numbers as polynomials in q, through the Iwahori-Hecke
algebra or through the dual group; here they are counted at q = p.

Subgroups are found breadth-first by S -> S + <g>.  A finite abelian
p-group X has the type read off its torsion counts, as
|X[p^k]| = p^(sum_i min(lam_i, k)), and the quotient's counts are
|(M / N)[p^k]| = |{x : p^k x in N}| / |N|.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache


def _type(counts: list[int], p: int, n: int) -> tuple[int, ...]:
    """The partition lam, as an n-tuple, of a group with |X[p^k]| =
    counts[k] for k = 0, 1, ...: the number of parts >= k is the exponent
    of counts[k] / counts[k - 1]."""
    at_least = []
    for lower, upper in zip(counts, counts[1:]):
        ratio, e = upper // lower, 0
        while ratio > 1:
            ratio //= p
            e += 1
        at_least.append(e)
    return tuple(sum(1 for c in at_least if c > i) for i in range(n))


@lru_cache(maxsize=None)
def hall_numbers(lam: tuple[int, ...], p: int) -> dict:
    """{(mu, nu): g^lam_{mu,nu}(p)} over every subgroup N of M_lam, with
    N ~ M_nu and M_lam / N ~ M_mu; pairs that count 0 are left out."""
    n = len(lam)
    moduli = [p ** e for e in lam]
    group = list(itertools.product(*(range(m) for m in moduli)))
    index = {x: i for i, x in enumerate(group)}
    # the group law and the maps x -> p^k x on indices; 0 is the identity
    add = [[index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in group]
           for x in group]
    top = max(lam, default=0)
    power = [[index[tuple(p ** k * a % m for a, m in zip(x, moduli))] for x in group]
             for k in range(top + 1)]

    def cyclic(g):
        out, x = [0], g
        while x:
            out.append(x)
            x = add[x][g]
        return out

    cyclics = [cyclic(g) for g in range(len(group))]
    found = {frozenset([0])}
    level = list(found)
    while level:
        grown = set()
        for sub in level:
            for g, multiples in enumerate(cyclics):
                if g not in sub:
                    grown.add(frozenset(add[s][c] for s in sub for c in multiples))
        grown -= found
        found |= grown
        level = list(grown)

    counts = Counter()
    for sub in found:
        sub_counts = [sum(1 for x in sub if not times[x]) for times in power]
        quotient_counts = [sum(1 for x in times if x in sub) // len(sub) for times in power]
        counts[_type(quotient_counts, p, n), _type(sub_counts, p, n)] += 1
    return dict(counts)
