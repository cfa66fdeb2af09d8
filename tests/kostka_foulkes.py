"""Kostka-Foulkes polynomials of GL(n) by the charge statistic, an oracle
for the stalks of the intersection motives that imports nothing from
``satake``.

For partitions lam and mu of the same size, with at most n parts each
(written as n-tuples, padded with zeros),

    K_{lam,mu}(q) = sum over semistandard tableaux T of shape lam and
                    content mu of q^charge(T)

(Lascoux and Schuetzenberger; Macdonald, Symmetric functions and Hall
polynomials, III.6).  By Lusztig's theorem K_{lam,mu} is the q-analog of
the multiplicity of the weight mu in the irreducible GL(n)-module of
highest weight lam, and the stalk of IC_lam at the point t^mu has the
graded dimension

    h_{lam,mu}(q) = q^<rho, lam - mu> K_{lam,mu}(q^-1).

The library reaches the same polynomials through Kostant's alternating
sum, walked over the Weyl group, and q-Kostant partition functions; here
they are counted tableau by tableau.  Polynomials are {exponent:
coefficient} dicts with no zero coefficient.
"""
from __future__ import annotations

from collections import Counter


def partitions(size: int, n: int):
    """The partitions of size with at most n parts, as n-tuples."""
    def rec(left, parts, largest):
        if parts == 0:
            if left == 0:
                yield ()
            return
        for first in range(min(left, largest), -1, -1):
            for rest in rec(left - first, parts - 1, first):
                yield (first,) + rest
    return list(rec(size, n, size))


def horizontal_strips(shape: tuple, size: int):
    """The shapes nu inside shape for which shape / nu is a horizontal
    strip of size boxes: shape[i+1] <= nu[i] <= shape[i]."""
    def rec(i, left):
        if i == len(shape):
            if left == 0:
                yield ()
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for row in range(shape[i], low - 1, -1):
            if shape[i] - row > left:
                break
            for rest in rec(i + 1, left - (shape[i] - row)):
                yield (row,) + rest
    return rec(0, size)


def tableaux(shape: tuple, content: tuple):
    """The semistandard tableaux of the given shape and content, as tuples
    of rows: the boxes of the largest letter k form a horizontal strip,
    and removing it leaves a tableau of content[:k-1]."""
    k = len(content)
    if k == 0:
        if not any(shape):
            yield tuple(() for _ in shape)
        return
    for inner in horizontal_strips(shape, content[-1]):
        for rows in tableaux(inner, content[:-1]):
            yield tuple(row + (k,) * (outer - len(row)) for row, outer in zip(rows, shape))


def reading_word(rows: tuple) -> list:
    """The rows read from the bottom one up, each from left to right."""
    return [letter for row in reversed(rows) for letter in row]


def charge(word: list) -> int:
    """The charge of a word whose content is a partition.  Split off
    standard subwords: take the rightmost 1, then search to the left,
    wrapping round the start, for a 2, from there for a 3, and so on up
    to the largest letter left.  In each subword 1 has index 0, and r + 1
    has the index of r, plus one if the search for it wrapped (so r + 1
    stands to the right of r).  The charge is the sum of all indices."""
    letters = list(word)
    total = 0
    while letters:
        n = len(letters)
        pos = n - 1 - letters[::-1].index(1)
        chosen, index, r = [pos], 0, 1
        while r + 1 in letters:
            step = next(s for s in range(1, n) if letters[(pos - s) % n] == r + 1)
            if pos - step < 0:
                index += 1
            pos = (pos - step) % n
            chosen.append(pos)
            total += index
            r += 1
        letters = [x for i, x in enumerate(letters) if i not in chosen]
    return total


def kostka_foulkes(lam: tuple, mu: tuple) -> dict:
    """K_{lam,mu}(q); zero (an empty dict) unless mu <= lam."""
    content = tuple(m for m in mu if m)
    counts = Counter(charge(reading_word(t)) for t in tableaux(tuple(lam), content))
    return dict(counts)


def rho_pairing(lam: tuple, mu: tuple) -> int:
    """<rho, lam - mu> for GL(n), rho = ((n-1)/2, (n-3)/2, ..., (1-n)/2),
    and |lam| = |mu|, which makes it an integer."""
    n = len(lam)
    doubled = sum((n - 1 - 2 * i) * (a - b) for i, (a, b) in enumerate(zip(lam, mu)))
    assert doubled % 2 == 0
    return doubled // 2


def stalk(lam: tuple, mu: tuple) -> dict:
    """h_{lam,mu}(q) = q^<rho, lam - mu> K_{lam,mu}(q^-1)."""
    shift = rho_pairing(lam, mu)
    return {shift - e: c for e, c in kostka_foulkes(lam, mu).items()}


def parity(lam: tuple) -> int:
    """<2rho, lam> mod 2: the parity of the dimension of the Schubert
    cell of lam, the sign of IC_lam under the signed trace."""
    n = len(lam)
    return sum((n - 1 - 2 * i) * a for i, a in enumerate(lam)) % 2
