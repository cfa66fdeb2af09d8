"""Independent test oracles.

Everything in here recomputes quantities of the package by a different
algorithm than the library uses, so agreement is meaningful:

* weight multiplicities by the Freudenthal recursion (the library uses
  Kostant's alternating sum over the q-Kostant partition function);
* tensor multiplicities by the full character product with greedy
  highest-weight extraction (the library runs Brauer-Klimyk over the
  smaller factor's character alone), and by Brauer-Klimyk fed by
  Freudenthal multiplicities and a search of W_0 for the dominant
  conjugate (the library straightens by simple reflections, on
  characters from Kostant's formula);
* partition counts by literal multiset enumeration;
* the dominant weights below mu by enumerating every mu - sum c_i alpha_i^
  of height at most <rho, mu> (the library walks down from mu by positive
  coroots through dominant weights only);
* W_0-orbits as the images under every element of W_0, and Lusztig's
  q-analogs as Kostant's alternating sum over all of W_0, one coroot
  solve per term (the library walks down from the dominant weight by
  simple reflections, and walks up from e through the contributing w
  only, carrying the coordinates of one solve);
* length-zero elements of the extended affine Weyl group by exhaustive
  search of a box, counted by the tests against pi_1 (the library reads
  pi_1 off lattice indices);
* reduced words by the right-greedy loop over affine products and
  lengths (the library decides each right descent by one root pairing
  and steps through the W_0 tables);
* Iwahori-Hecke products one letter at a time, a LinComb per letter,
  with each step formed by the affine product and decided by two
  lengths (the library walks integer keys through the W_0 tables into
  one integer accumulator);
* the finite Weyl group by a breadth-first search over row matrices on
  X_*, keyed by matrix, with inversion flags from the images of every
  positive coroot (the library keys elements by their inversion flags,
  carries the images of the simple coroots only, and acts on X_* by
  walking reduced words);
* the affine simple system by a depth-first search for the Dynkin
  components, the highest root of each by height, and s_theta by a scan
  of W_0 for the element whose images of the basis of X_* are the
  columns of its reflection matrix (the library reads the highest roots
  off the root datum as its maximal roots and conjugates a simple
  reflection);
* spherical double cosets by listing and sorting all of W_0 t_mu W_0, and
  the spherical product c_mu * c_lam from the whole indicator 1_mu (the
  library multiplies only the left-minimal elements of the double coset,
  found in closed form);
* lattice indices by brute-force coset enumeration, with membership
  decided by Cramer's rule over Leibniz determinants, and the free rank
  and torsion order of a quotient Z^r / span by determinantal divisors,
  the gcd of the largest nonzero minors (the library reads both off
  Hermite normal forms);
* bilinear products from a key-level product, one polynomial product
  per term (the library adds every coefficient product into one integer
  accumulator per key with ``LinComb.of_products``).

It also holds small constructors that only the tests need (a Weyl
dimension, a class element, a Poincare polynomial, the q-Kostant
partition function at a vector, the embedding of W_0 into the affine
group, one step x -> x s_i through the move table), written as functions
of the library objects.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from satake import root_datum as rdm
from satake.hecke import HeckeError
from satake.lattices import vadd, vscale, vsub, zero_vec
from satake.laurent import ONE, LaurentPoly
from satake.linear import LinComb
from satake.rep_ring import g1_class, rep_ring
from satake.root_datum import RootDatum
from satake.weyl import AffineWeylElement, affine_weyl_group


def bilinear(x: LinComb, y: LinComb, key_mul) -> LinComb:
    """x * y for a key-level product ``key_mul(k1, k2) -> LinComb``,
    extended bilinearly with plain ``LaurentPoly`` arithmetic."""
    return LinComb((k, p1 * p2 * p) for k1, p1 in x.items() for k2, p2 in y.items()
                   for k, p in key_mul(k1, k2).items())


def weyl_dim(R, mu) -> int:
    """Dimension of the irreducible of the RepRing R with highest weight mu."""
    return sum(R.character(mu).values())


def class_element(G, mu, n: int = 0) -> LinComb:
    """The class of the G1Ring G with highest weight mu and twist n."""
    return LinComb.unit(g1_class(G.rd, mu, n=n))


def poincare_polynomial(sph) -> LaurentPoly:
    """P_{W_0}(q), the sum of q^l(w) over the finite Weyl group of sph."""
    return LaurentPoly((w.length, 1) for w in sph.W.W0.elements)


def kostant_partition(R, v) -> LaurentPoly:
    """The q-Kostant partition function of the RepRing R at v: the sum
    over multisets of positive coroots with sum v of q^(multiset size),
    zero if v is not a nonnegative combination of them."""
    coords = rdm.coroot_coords(R.rd, v)
    if coords is None or any(c < 0 for c in coords):
        return LaurentPoly.zero()
    return R._kostant_graded(coords, 0)


def from_finite(W, w) -> AffineWeylElement:
    """The finite Weyl element w as an element of the affine group W."""
    return AffineWeylElement(zero_vec(W.rd.rank), w)


class FreudenthalOracle:
    """Weight multiplicities of dual-group irreducibles via the
    Freudenthal recursion, using the W-invariant form
    B(x, y) = sum over positive roots beta of <beta,x><beta,y>."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.W = affine_weyl_group(rd)
        self._memo: dict[tuple, int] = {}

    def _b(self, x, y) -> int:
        return sum(self.rd.pair(beta, x) * self.rd.pair(beta, y)
                   for beta in self.rd.positive_roots)

    def _dbl(self, v):
        """2*(v + rho_hat), in honest integer coordinates."""
        return vadd(vscale(2, tuple(v)), self.rd.two_rho_hat())

    def multiplicity(self, lam, nu) -> int:
        lam = tuple(lam)
        nu = self.W.dominant_representative(tuple(nu))
        key = (lam, nu)
        if key in self._memo:
            return self._memo[key]
        if nu == lam:
            m = 1
        elif not rdm.dominance_leq(self.rd, nu, lam):
            m = 0
        else:
            num = 0
            for gamma in self.rd.positive_coroots:
                k = 1
                while True:
                    up = vadd(nu, vscale(k, gamma))
                    mk = self.multiplicity(lam, up)
                    if mk == 0:
                        break
                    num += mk * self._b(up, gamma)
                    k += 1
            # the doubled norms are 4x the true ones, hence the factor 8
            denom = self._b(self._dbl(lam), self._dbl(lam)) - self._b(self._dbl(nu), self._dbl(nu))
            frac = Fraction(8 * num, denom)
            assert frac.denominator == 1, (lam, nu, frac)
            m = int(frac)
        self._memo[key] = m
        return m


def tensor_oracle(rd: RootDatum, mu, lam, freud: FreudenthalOracle | None = None):
    """Brauer-Klimyk: run mu + (weight of V_lam) + rho_hat through the
    reflecting alcove walk, dropping wall hits and summing signs."""
    if freud is None:
        freud = FreudenthalOracle(rd)
    aw = affine_weyl_group(rd)
    two_rho_hat = rd.two_rho_hat()
    out: dict[tuple, int] = {}
    for nu_dom in dominant_below_oracle(rd, lam):
        m = freud.multiplicity(lam, nu_dom)
        if m == 0:
            continue
        for nu in orbit_oracle(rd, nu_dom):
            x = vadd(vscale(2, vadd(tuple(mu), nu)), two_rho_hat)
            w = next(w for w in aw.W0.elements
                     if rdm.is_dominant(rd, w.apply_cochar(x)))
            y = w.apply_cochar(x)
            if any(rd.pair(a, y) == 0 for a in rd.simple_roots):
                continue
            hi = vsub(y, two_rho_hat)
            assert all(c % 2 == 0 for c in hi)
            hi = tuple(c // 2 for c in hi)
            out[hi] = out.get(hi, 0) + (m if w.length % 2 == 0 else -m)
    result = {k: v for k, v in out.items() if v}
    assert all(v > 0 for v in result.values())
    return result


def greedy_tensor_decompose(R, mu, lam) -> dict:
    """Tensor multiplicities of the RepRing R from the product of the two
    full characters: a weight of maximal <2rho, -> value is
    dominance-maximal, hence the highest weight of a constituent, whose
    character is peeled off; peeling only lowers or removes entries, so
    one pass in decreasing order meets every constituent."""
    rd = R.rd
    prod: dict[tuple, int] = {}
    for v1, m1 in R.character(mu).items():
        for v2, m2 in R.character(lam).items():
            v = vadd(v1, v2)
            prod[v] = prod.get(v, 0) + m1 * m2
    result = {}
    for nu in sorted(prod, key=lambda v: (rdm.d_pairing(rd, v), v), reverse=True):
        n = prod.get(nu)
        if n is None:
            continue
        assert n > 0 and rdm.is_dominant(rd, nu), (nu, n)
        for v, m in R.character(nu).items():
            rem = prod.get(v, 0) - n * m
            assert rem >= 0, (v, rem)
            if rem:
                prod[v] = rem
            else:
                prod.pop(v, None)
        result[nu] = n
    return result


def orbit_oracle(rd: RootDatum, lam) -> frozenset:
    """The W_0-orbit of lam: its images under every element of W_0."""
    return frozenset(w.apply_cochar(tuple(lam)) for w in affine_weyl_group(rd).W0.elements)


def q_analog_oracle(rd: RootDatum, mu, lam) -> LaurentPoly:
    """Lusztig's q-analog as Kostant's alternating sum over all of W_0,
    sum_w (-1)^l(w) P(w(mu + rho_hat) - (lam + rho_hat)), in doubled
    coordinates, since rho_hat may be half-integral."""
    R = rep_ring(rd)
    two_rho_hat = rd.two_rho_hat()
    dbl_mu = vadd(vscale(2, tuple(mu)), two_rho_hat)
    dbl_lam = vadd(vscale(2, tuple(lam)), two_rho_hat)
    terms = []
    for w in affine_weyl_group(rd).W0.elements:
        u = vsub(w.apply_cochar(dbl_mu), dbl_lam)
        assert all(c % 2 == 0 for c in u), (mu, lam, w)
        terms += ((e, -c if w.length % 2 else c)
                  for e, c in kostant_partition(R, tuple(c // 2 for c in u)).terms)
    return LaurentPoly(terms)


def character_oracle(rd: RootDatum, mu) -> dict:
    """The character of the irreducible of highest weight mu, from
    ``q_analog_oracle`` at q = 1 spread over ``orbit_oracle``."""
    char = {}
    for lam in dominant_below_oracle(rd, mu):
        m = q_analog_oracle(rd, mu, lam).eval_at_one()
        if m:
            char.update(dict.fromkeys(orbit_oracle(rd, lam), m))
    return char


def dominant_below_oracle(rd: RootDatum, mu) -> list:
    """All dominant lam <= mu, sorted, by enumerating every
    lam = mu - sum c_i alpha_i^ with c_i >= 0 and sum c_i <= <rho, mu>
    (which bounds it, as <rho, alpha_i^> = 1 and <rho, lam> >= 0) and
    keeping the dominant ones."""
    mu = tuple(mu)
    out = set()

    def rec(i, left, lam):
        if i == rd.semisimple_rank:
            if rdm.is_dominant(rd, lam):
                out.add(lam)
            return
        for c in range(left + 1):
            rec(i + 1, left - c, vsub(lam, vscale(c, rd.simple_coroots[i])))

    rec(0, rdm.d_pairing(rd, mu) // 2, mu)
    return sorted(out)


def partition_count_oracle(rd: RootDatum, v, max_height: int = 12):
    """All multisets of positive coroots summing to v, by exhaustive
    enumeration; returns the list of multiset sizes."""
    coroots = list(rd.positive_coroots)
    sizes = []

    def rec(i, remaining, used):
        if not any(remaining):
            sizes.append(used)
            return
        if i == len(coroots) or used >= max_height:
            return
        gamma = coroots[i]
        k = 0
        cur = tuple(remaining)
        while k + used <= max_height:
            rec(i + 1, cur, used + k)
            cur = vsub(cur, gamma)
            k += 1

    rec(0, tuple(v), 0)
    return sorted(sizes)


def omega_elements(W, box: int = 2) -> list[AffineWeylElement]:
    """Length-zero elements of the extended affine Weyl group W with
    translation coordinates in [-box, box].

    For catalog groups with finite fundamental group this is the whole
    of the length-zero subgroup."""
    out = []
    for lam in itertools.product(range(-box, box + 1), repeat=W.rd.rank):
        for w in W.W0.elements:
            x = AffineWeylElement(lam, w)
            if W.im_length(x) == 0:
                out.append(x)
    return sorted(out, key=lambda x: (x.translation, x.finite.word))


@lru_cache(maxsize=None)
def spherical_double_coset(W, mu):
    """(the set W_0 t_mu W_0, its minimal element, its maximal element) for
    a dominant mu of the affine group W, by sorting the whole double coset
    by length.  Since u t_mu v = t_{u mu} uv, the double coset is
    {t_nu w : nu in W_0 mu, w in W_0}."""
    mu = rdm.assert_dominant(W.rd, mu)
    coset = [AffineWeylElement(nu, w) for nu in orbit_oracle(W.rd, mu) for w in W.W0.elements]
    by_len = sorted(coset, key=lambda x: (W.im_length(x), x.translation, x.finite.word))
    minimal, maximal = by_len[0], by_len[-1]
    if len(by_len) > 1 and W.im_length(by_len[1]) == W.im_length(minimal):
        raise AssertionError("minimal double coset element is not unique")
    return frozenset(coset), minimal, maximal


def indicator_from_iwahori(sph, mu) -> LinComb:
    """The bi-invariant indicator 1_mu of the SphericalHecke sph: the sum
    of T_w over the whole double coset W_0 t_mu W_0."""
    coset, _, _ = spherical_double_coset(sph.W, mu)
    return LinComb((x, ONE) for x in coset)


def projected_c_mul(sph, mu, lam) -> LinComb:
    """c_mu * c_lam as (1_mu T_x 1_W0) / P_{W_x}(q), x the minimal element
    of W_0 t_lam W_0 and W_x the stabiliser of lam in W_0, from the whole
    indicator 1_mu.  1_mu T_x is projected onto the right cosets t_nu W_0:
    its value on t_nu W_0 is c_nu = sum_w q^(l(t_nu w) - m(nu)) b_{t_nu w},
    m(nu) the minimal length in the coset.  The values must fill every
    W_0-orbit, be constant on it and divide exactly by P_{W_x}; any
    failure raises."""
    W = sph.W
    _, x, _ = spherical_double_coset(W, lam)
    b = sph.iwahori.mul(indicator_from_iwahori(sph, mu), sph.iwahori.basis(x))
    m = {nu: W.min_coset_length(nu) for nu in {y.translation for y in b.keys()}}
    c = LinComb((y.translation, p.shift(W.im_length(y) - m[y.translation]))
                for y, p in b.items())
    pwx = LaurentPoly((w.length, 1) for w in W.W0.elements
                      if w.apply_cochar(x.translation) == x.translation)
    by_orbit: dict = {}
    for nu, p in c.items():
        by_orbit.setdefault(W.dominant_representative(nu), {})[nu] = p
    out = []
    for nu, coeffs in sorted(by_orbit.items()):
        if set(coeffs) != orbit_oracle(W.rd, nu):
            raise HeckeError(f"product support does not fill the double coset of {nu}")
        values = set(coeffs.values())
        if len(values) != 1:
            raise HeckeError(f"product is not bi-invariant on the double coset of {nu}")
        out.append((nu, values.pop().divexact(pwx)))
    return LinComb(out)


def right_greedy_word(W, x, memo=None):
    """(omega, word) for x in the affine group W by the right-greedy loop:
    while l(x) > 0, take the first simple s_i with l(x s_i) < l(x), record
    i and replace x by x s_i, measuring every candidate with ``im_length``
    and forming it by ``W.mul``; then x = omega * s_word.

    The loop depends only on the current element, so the answers for
    every element met are stored in ``memo``, if given, and reused."""
    memo = {} if memo is None else memo
    path = []
    while x not in memo:
        length = W.im_length(x)
        if length == 0:
            memo[x] = (x, ())
            break
        for i, s in enumerate(W.simple_refs):
            cand = W.mul(x, s)
            if W.im_length(cand) < length:
                path.append((x, i))
                x = cand
                break
        else:
            raise AssertionError(f"no descent for positive-length element {x!r}")
    omega, word = memo[x]
    for y, i in reversed(path):
        word = word + (i,)
        memo[y] = (omega, word)
    return omega, word


def step(W, key, i: int):
    """(key of x s_i, whether l(x s_i) > l(x)) for the i-th affine simple
    reflection and x = t_lam w with key (lam, w.index), read from the move
    table of W with no matrix product: the one-letter step that
    ``IwahoriHecke.mul`` and ``reduced_word`` take inline."""
    lam, k = key
    j, k_s, sign, threshold, c = W._table[k][i]
    up = sign * W.root_pairings(lam)[j] >= threshold
    if c is not None:
        lam = vadd(lam, W._coroots[c][0])
    return (lam, k_s), up


def stepwise_mul(iw, a, b) -> LinComb:
    """a * b in the IwahoriHecke iw, a LinComb per letter: for every key
    x = omega * s_word of b (``right_greedy_word``), map a's keys w to
    w omega, then multiply on the right by T_s for each letter, by
    T_w T_s = T_ws if l(ws) > l(w), else (q-1) T_w + q T_ws, with ws
    formed by the affine product and both lengths from ``im_length``."""
    W = iw.W
    q_minus_one, q = LaurentPoly(((1, 1), (0, -1))), LaurentPoly.q()
    terms = []
    for x, p in b.items():
        omega, word = right_greedy_word(W, x)
        cur = LinComb((W.mul(w, omega), c) for w, c in a.items())
        for i in word:
            s = W.simple_refs[i]
            out = []
            for w, c in cur.items():
                ws = W.mul(w, s)
                if W.im_length(ws) > W.im_length(w):
                    out.append((ws, c))
                else:
                    out += [(w, c * q_minus_one), (ws, c * q)]
            cur = LinComb(out)
        terms += [(w, c * p) for w, c in cur.items()]
    return LinComb(terms)


def _reflection_matrix(rd: RootDatum, beta, bv):
    """lam -> lam - <beta, lam> bv on X_*, as a row matrix."""
    return tuple(tuple(int(r == c) - bv[r] * rd.pair(beta, tuple(int(k == c) for k in range(rd.rank)))
                       for c in range(rd.rank)) for r in range(rd.rank))


class W0Tables(NamedTuple):
    """The finite Weyl group as the matrix search enumerates it: per
    element, its reduced word, its row matrix on X_* and its inversion
    flags; per element and simple index i, the index of w s_i and the
    positive root whose flag differs between w and w s_i."""

    words: list
    acts: list
    inverted: list
    right: list
    flip: list


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def w0_by_matrices(rd: RootDatum) -> W0Tables:
    """W_0 by breadth-first search over row matrices on X_*, multiplying
    by the simple reflection matrices on the right and keying elements by
    matrix.  The inversion flags come from mapping every positive coroot
    through the matrix (w^-1 alpha > 0 iff alpha^ lies in w(positive
    coroots)), and the flipped root of an edge from comparing the flags
    of its two ends."""
    refl = [_reflection_matrix(rd, a, bv) for a, bv in zip(rd.simple_roots, rd.simple_coroots)]
    t = W0Tables([], [], [], [], [])
    by_matrix = {}

    def add(act, word):
        images = {tuple(sum(r[c] * bv[c] for c in range(rd.rank)) for r in act)
                  for bv in rd.positive_coroots}
        by_matrix[act] = len(t.acts)
        t.words.append(word)
        t.acts.append(act)
        t.inverted.append(tuple(int(bv not in images) for bv in rd.positive_coroots))

    add(tuple(tuple(int(r == c) for c in range(rd.rank)) for r in range(rd.rank)), ())
    while len(t.right) < len(t.acts):
        k = len(t.right)
        row, flips = [], []
        for i, s in enumerate(refl):
            act = _mat_mul(t.acts[k], s)
            if act not in by_matrix:
                add(act, t.words[k] + (i,))
            row.append(by_matrix[act])
            flips.append([a != b for a, b in zip(t.inverted[k], t.inverted[row[-1]])].index(True))
        t.right.append(row)
        t.flip.append(flips)
    return t


def affine_simple_refs(W) -> list[AffineWeylElement]:
    """The affine simple reflections of W: the finite ones, then
    s_0 = t_{theta^} s_theta for each irreducible component.

    The components come from a depth-first search over the nonzero Cartan
    entries, in the order of their least simple root; theta is the
    positive root of greatest height supported in the component, and
    s_theta is found by scanning W_0 for the element whose images of the
    basis vectors of X_* are the columns of the reflection matrix of
    theta."""
    rd = W.rd
    n = rd.semisimple_rank
    cartan = rd.cartan_matrix()
    seen: set[int] = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        comp, stack = {i}, [i]
        seen.add(i)
        while stack:
            j = stack.pop()
            for k in range(n):
                if k not in seen and cartan[j][k] != 0:
                    seen.add(k)
                    comp.add(k)
                    stack.append(k)
        comps.append(comp)
    refs = [AffineWeylElement(zero_vec(rd.rank), g) for g in W.W0.generators]
    basis = [tuple(int(k == c) for k in range(rd.rank)) for c in range(rd.rank)]
    for comp in comps:
        _, theta, theta_cov = max(
            (sum(coeffs), beta, bv)
            for beta, bv, coeffs in zip(rd.positive_roots, rd.positive_coroots,
                                        rd.positive_root_coords)
            if all(c == 0 or i in comp for i, c in enumerate(coeffs)))
        act = _reflection_matrix(rd, theta, theta_cov)
        (s_theta,) = [w for w in W.W0.elements
                      if tuple(zip(*(w.apply_cochar(e) for e in basis))) == act]
        refs.append(AffineWeylElement(theta_cov, s_theta))
    return refs


def leibniz_det(mat) -> int:
    """Determinant as the signed sum over all permutations (Leibniz)."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= mat[i][p]
        total += term
    return total


def lattice_index_oracle(columns, rank: int, box: int = 4) -> int:
    """Number of cosets of the integer span of ``columns`` inside Z^rank
    met by the box [-box, box]^rank, by pairwise difference tests.

    The columns must form a nonsingular rank x rank matrix A; v lies in
    their integer span iff every Cramer quotient det(A_j(v)) / det(A) is
    an integer, A_j(v) being A with its j-th column replaced by v."""
    cols = [tuple(c) for c in columns]
    assert len(cols) == rank

    def det_of_columns(cs):
        return leibniz_det([[c[i] for c in cs] for i in range(rank)])

    det = det_of_columns(cols)
    assert det != 0

    def in_span(v):
        return all(det_of_columns(cols[:j] + [v] + cols[j + 1:]) % det == 0
                   for j in range(rank))

    reps: list[tuple] = []
    for v in itertools.product(range(-box, box + 1), repeat=rank):
        if not any(in_span(vsub(v, r)) for r in reps):
            reps.append(v)
    return len(reps)


def lattice_quotient_oracle(columns, rank: int) -> tuple[int, int]:
    """(free rank, torsion order) of Z^rank / span_Z(columns) from the
    determinantal divisors of the rank x n matrix A with these columns:
    s, the rank of A, is the largest size of a nonzero minor, and the
    torsion order is the gcd of the s x s minors, the product of A's
    invariant factors."""
    cols = [tuple(c) for c in columns]
    for s in range(min(rank, len(cols)), 0, -1):
        g = 0
        for rows in itertools.combinations(range(rank), s):
            for picked in itertools.combinations(cols, s):
                g = gcd(g, leibniz_det([[c[i] for c in picked] for i in rows]))
        if g:
            return rank - s, g
    return rank, 1
