"""Finite matrix groups over the rationals or the Eisenstein integers.

Provides multiplicative closure from generators, orders of permutation
groups by Schreier-Sims, Molien series of invariant rings, invariant
cohomology of abelian-variety quotients as joint fixed spaces of generators
on exterior powers, and cycle-index symmetrization of even graded Poincare
series.

Group elements of both rings are stored in the kernels' flat layout
(`flatten_eis_matrix`), a rational entry with zero omega part; Molien
averaging and the fixed-space computation unflatten them to `EisInt`
matrices, so both rings share one arithmetic, one closure and one
determinant from `stratify._exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from . import _pure
from ._exact import EisInt, det, eis, flatten_eis_matrix, nullspace, unflatten_eis_matrix
from .series import BettiTable, TruncatedSeries, duality_check

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Finite matrix group; elements, when listed, in canonical sorted order.

    ``ring`` is "Q" (rational entries) or "E" (entries in Z[omega]); matrices
    are stored as flat tuples in the kernel layout, a rational entry q as the
    pair (q, 0).  ``form`` optionally carries a hermitian Gram matrix (flat
    Eisenstein layout) the group is unitary for.  ``order`` defaults to the
    number of listed elements; a group whose order is certified otherwise
    (a Weyl group, by Schreier-Sims) lists none, and `molien` closes its
    generators when it needs the elements.
    """

    ring: str
    dim: int
    elements: tuple
    gens: tuple = ()
    form: tuple | None = None
    order: int | None = None

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", len(self.elements))


def _is_eis_entry(x) -> bool:
    if isinstance(x, EisInt):
        return True
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(
        isinstance(v, int) for v in x
    )


def close_group(generators, cap: int = DEFAULT_CAP):
    """Breadth-first multiplicative closure with exact equality testing.

    Accepts rational matrices (entries int/Fraction) or Eisenstein matrices
    (entries `EisInt` or (a, b) integer pairs); both close in the flat layout
    of `_pure.close_eis`, a rational entry q as q + 0*omega.  Elements are
    returned canonically ordered.  Raises on a non-invertible generator or
    when the closure exceeds ``cap``.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    first = generators[0]
    k = len(first)
    eis = _is_eis_entry(first[0][0]) if not isinstance(first[0][0], (int, Fraction)) else False
    if not eis:
        generators = [[[Fraction(x) for x in row] for row in g] for g in generators]
    flats = [flatten_eis_matrix(g) for g in generators]
    for flat in flats:
        if not det(unflatten_eis_matrix(flat, k)):
            raise ValueError("generator is not invertible")
    return FiniteMatrixGroup("E" if eis else "Q", k, tuple(_pure.close_eis(flats, k, cap)),
                             tuple(flats))


def _then(p, q):
    """The permutation 'first p, then q'; a permutation is the tuple of images."""
    return tuple(map(q.__getitem__, p))


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    fixing the earlier base points, the basic orbit with a transversal
    (orbit point y -> (u, u^-1) with u mapping the base point to y), and the
    Schreier generators (y, generator index) already sifted."""

    def __init__(self, point, ident):
        self.point = point
        self.gens = []
        self.trans = {point: (ident, ident)}
        self.sifted = set()

    def add(self, gen):
        """Add a strong generator and extend the orbit; old entries stay."""
        self.gens.append(gen)
        trans = self.trans
        queue = list(trans)
        for y in queue:
            u = trans[y][0]
            for s in self.gens:
                z = s[y]
                if z not in trans:
                    v = _then(u, s)
                    trans[z] = (v, _inverse(v))
                    queue.append(z)


def _sift(levels, g, start):
    """Strip g through the levels from ``start``: the residue and the level
    where it left the basic orbit (``len(levels)`` if it fixes every base point)."""
    for i in range(start, len(levels)):
        t = levels[i].trans.get(g[levels[i].point])
        if t is None:
            return g, i
        g = _then(g, t[1])
    return g, len(levels)


def permutation_group_order(perms) -> int:
    """Order of the group generated by permutations of 0..n-1.

    Deterministic Schreier-Sims (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 4.4; Seress, *Permutation Group
    Algorithms*, 2003, section 4.2).  Generators are added one at a time and
    one that sifts to the identity through the chain built so far is already
    in the group.  Every Schreier generator u_y s u_{y^s}^-1 of every level is
    sifted through the levels below it; a nonidentity residue becomes a new
    strong generator and the levels from there down are checked again.  With
    no residue left the chain is complete, and the order is the product of the
    basic orbit lengths.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        return 1
    ident = tuple(range(len(perms[0])))
    levels = []

    def insert(h, lo, hi):
        # h fixes the base points of the levels before hi; hi may be a new level
        if hi == len(levels):
            levels.append(_Level(next(x for x, y in enumerate(h) if x != y), ident))
        for level in levels[lo:hi + 1]:
            level.add(h)

    for g in perms:
        h, j = _sift(levels, g, 0)
        if h == ident:
            continue
        insert(h, 0, j)
        i = j
        while i >= 0:
            level = levels[i]
            restart = None
            for y, (u, _) in list(level.trans.items()):
                for si, s in enumerate(level.gens):
                    if (y, si) in level.sifted:
                        continue
                    level.sifted.add((y, si))
                    h, j = _sift(levels, _then(_then(u, s), level.trans[s[y]][1]), i + 1)
                    if h != ident:
                        insert(h, i + 1, j)
                        restart = j
                        break
                if restart is not None:
                    break
            i = i - 1 if restart is None else restart
    order = 1
    for level in levels:
        order *= len(level.trans)
    return order


def _elementary_symmetric(mat, k):
    """e_0..e_k of the eigenvalues, via Newton's identities on trace powers."""
    powers = []
    cur = mat
    for _ in range(k):
        powers.append(cur)
        cur = tuple(
            tuple(
                sum(cur[i][l] * mat[l][j] for l in range(k))
                for j in range(k)
            )
            for i in range(k)
        )
    ps = [sum(powers[p - 1][i][i] for i in range(k)) for p in range(1, k + 1)]
    es = [EisInt(1, 0)]
    for p in range(1, k + 1):
        s = EisInt(0, 0)
        sign = 1
        for j in range(1, p + 1):
            term = es[p - j] * ps[j - 1]
            s = s + (term if sign > 0 else -term)
            sign = -sign
        es.append(s / p)
    return es


def molien(group: FiniteMatrixGroup, generator_degree: int, order: int) -> TruncatedSeries:
    """Invariant Poincare series: average of det(1 - t^g M)^(-1) over the group.

    ``generator_degree`` is the (even) cohomological degree the algebra
    generators are placed in.  The result is checked to be integral with
    constant term 1.  A group given without its elements is closed first, and
    the closure must have the declared order.
    """
    if generator_degree < 1 or generator_degree % 2 != 0:
        raise ValueError("generator degree must be a positive even integer")
    k = group.dim
    elements = group.elements or _pure.close_eis(group.gens, k, DEFAULT_CAP)
    if len(elements) != group.order:
        raise AssertionError(
            f"closure has order {len(elements)}, the group declares {group.order}")
    g = generator_degree
    zero = EisInt(0, 0)
    total = [zero] * (order + 1)
    for flat in elements:
        es = _elementary_symmetric(unflatten_eis_matrix(flat, k), k)
        # det(1 - T M) = sum_p (-1)^p e_p T^p with T = t^g
        poly = [zero] * (order + 1)
        poly[0] = EisInt(1, 0)
        for p in range(1, k + 1):
            if p * g > order:
                break
            poly[p * g] = -es[p] if p % 2 else es[p]
        inv = [EisInt(1, 0)] + [zero] * order
        for m in range(1, order + 1):
            s = zero
            for t in range(1, m + 1):
                if poly[t]:
                    s = s + poly[t] * inv[m - t]
            inv[m] = -s
        for i in range(order + 1):
            total[i] = total[i] + inv[i]
    n = group.order
    coeffs = []
    for c in total:
        if not c.is_real():
            raise AssertionError("Molien average has an irrational coefficient")
        val = Fraction(c.a, n)
        if val.denominator != 1 or val < 0:
            raise AssertionError(f"Molien coefficient {val} is not a nonnegative integer")
        coeffs.append(val)
    if coeffs[0] != 1:
        raise AssertionError("Molien series must have constant term 1")
    return TruncatedSeries.from_coeffs(coeffs, order)


def is_unitary(mat, gram) -> bool:
    """Whether conj(M)^T G M == G, for square matrices of `EisInt`."""
    k = len(gram)
    gm = [[sum((gram[i][l] * mat[l][j] for l in range(k)), EisInt(0, 0))
           for j in range(k)] for i in range(k)]
    return all(
        sum((mat[l][i].conj() * gm[l][j] for l in range(k)), EisInt(0, 0)) == gram[i][j]
        for i in range(k)
        for j in range(k)
    )


def _is_definite(gram) -> bool:
    """Sylvester's criterion for a hermitian matrix of `EisInt`."""
    k = len(gram)
    if any(gram[j][i] != gram[i][j].conj() for i in range(k) for j in range(k)):
        return False
    minors = [det([row[:i] for row in gram[:i]]) for i in range(1, k + 1)]
    return all(m.a > 0 for m in minors) or all(
        (-1) ** i * m.a > 0 for i, m in enumerate(minors, 1)
    )


def _compound(mat, p):
    """p-th exterior power: the p x p minors, p-subsets in lexicographic order."""
    subsets = list(combinations(range(len(mat)), p))
    return [
        [eis(det([[mat[i][j] for j in cols] for i in rows])) for cols in subsets]
        for rows in subsets
    ]


def _integral(v) -> list:
    """``v`` times the lcm of its denominators, so that products stay in Z[omega]."""
    v = [eis(x) for x in v]
    d = lcm(*(Fraction(x).denominator for e in v for x in (e.a, e.b)))
    return [EisInt(int(e.a * d), int(e.b * d)) for e in v]


def _invariant_dim(powers, p, q) -> int:
    """dim (Lambda^p V (x) conj Lambda^q V)^G, narrowed one generator at a time.

    ``powers`` holds, per generator (at least one), its exterior powers by
    degree.  The fixed space of G is the joint fixed space of its generators.
    """
    basis = None  # None stands for the whole space
    for ext in powers:
        a = ext[p]
        b = [[x.conj() for x in row] for row in ext[q]]
        n, m = len(a), len(b)
        op = [
            [a[i][r] * b[j][s] - int(i == r and j == s) for r in range(n) for s in range(m)]
            for i in range(n)
            for j in range(m)
        ]
        if basis is None:
            basis = [_integral(v) for v in nullspace(op)]
        else:
            images = [[sum(x * y for x, y in zip(row, v)) for row in op] for v in basis]
            coeffs = [_integral(c) for c in nullspace(list(zip(*images)))]
            basis = [[sum(c * v[t] for c, v in zip(cs, basis)) for t in range(n * m)]
                     for cs in coeffs]
        if not basis:
            return 0
    return len(basis)


# Cap on the rank of an abelian quotient: the fixed spaces live in
# Lambda^p V (x) conj Lambda^q V, of dimension C(k, p) C(k, q), up to 400 at
# rank 6 against 100 at rank 5 (E1+E4 took 7.8 s, 2E3 and E2+E4 did not finish
# in 150 s).  The pinned boundaries use at most rank 4.
MAX_QUOTIENT_RANK = 5


def check_quotient_rank(k: int) -> None:
    """Raise ResourceCapError for an abelian quotient of rank above `MAX_QUOTIENT_RANK`."""
    if k > MAX_QUOTIENT_RANK:
        raise _pure.ResourceCapError(
            f"abelian quotient rank {k} exceeds the cap {MAX_QUOTIENT_RANK}"
        )


def abelian_quotient_betti(group, k: int, form=None) -> BettiTable:
    """Betti table of the quotient of a k-dimensional abelian variety.

    The variety is the k-fold product of the j-invariant-zero elliptic curve;
    the group acts through its Eisenstein matrix representation.  ``group``
    is a `FiniteMatrixGroup` over the Eisenstein integers (its generators are
    used, or its elements if it has none) or a sequence of generators in the
    flat layout.  h^{p,q} is the dimension of the invariants in
    Lambda^p V (x) conj Lambda^q V, computed exactly as the joint fixed space
    of the generators for p <= q; conjugation gives h^{q,p} = h^{p,q}.

    Certificate: every generator has Z[omega] entries and is unitary for the
    hermitian form, which is definite, so the group is finite; the table must
    satisfy Poincare duality.  Ranks above `MAX_QUOTIENT_RANK` are refused.
    """
    check_quotient_rank(k)
    if isinstance(group, FiniteMatrixGroup):
        if group.ring != "E":
            raise ValueError("abelian quotients need a group over the Eisenstein integers")
        if group.dim != k:
            raise ValueError("rank mismatch")
        gens = group.gens or group.elements
        gram = form if form is not None else group.form
    else:
        gens, gram = tuple(group), form
    if gram is None:
        raise ValueError("no hermitian form declared for unitarity checking")
    if len(gram) != 2 * k * k or any(len(g) != 2 * k * k for g in gens):
        raise ValueError("rank mismatch")
    if not all(type(x) is int for flat in (gram, *gens) for x in flat):
        raise ValueError("generators and form must have Eisenstein-integer entries")
    gram = unflatten_eis_matrix(gram, k)
    if not _is_definite(gram):
        raise ValueError("the hermitian form is not definite")
    mats = [unflatten_eis_matrix(flat, k) for flat in gens]
    if not all(is_unitary(m, gram) for m in mats):
        raise ValueError("generator is not unitary for the declared form")
    powers = [[_compound(m, p) for p in range(k + 1)] for m in mats]
    betti = [0] * (2 * k + 1)
    for p in range(k + 1):
        for q in range(p, k + 1):
            h = _invariant_dim(powers, p, q) if powers else comb(k, p) * comb(k, q)
            betti[p + q] += h if p == q else 2 * h
    table = BettiTable.from_list(betti, k)
    rep = duality_check(table)
    if not rep.ok:
        raise AssertionError(f"abelian quotient table violates duality: {rep.message}")
    return table


def _partitions(n: int):
    """Partitions of n as multiplicity dicts {part: count}."""

    def rec(n, maxpart):
        if n == 0:
            yield {}
            return
        for p in range(min(n, maxpart), 0, -1):
            for rest in rec(n - p, p):
                d = dict(rest)
                d[p] = d.get(p, 0) + 1
                yield d

    yield from rec(n, n)


# Cap on the number of symmetrized copies: the cycle index sums over the
# partitions of n (p(12) = 77 terms, p(100) about 1.9e8), each a product of
# series of order 2 * dim * n.  The pinned boundaries use at most 3.
MAX_WREATH_COUNT = 12


def check_wreath_count(n: int) -> None:
    """Raise ResourceCapError for a symmetrized copy count above `MAX_WREATH_COUNT`."""
    if n > MAX_WREATH_COUNT:
        raise _pure.ResourceCapError(
            f"symmetrized copy count {n} exceeds the cap {MAX_WREATH_COUNT}"
        )


def wreath_symmetrize(p, n: int):
    """Symmetric-power invariants via the cycle index of the symmetric group.

    Input must have vanishing odd part (so no sign issues arise); accepts a
    TruncatedSeries or a BettiTable and returns the same kind.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_wreath_count(n)
    if isinstance(p, BettiTable):
        series = p.poincare_series(2 * p.complex_dim * n)
        out = wreath_symmetrize(series, n)
        return BettiTable.from_list(out.integer_coeffs(), p.complex_dim * n)
    if any(p.coeffs[i] != 0 for i in range(1, p.order + 1, 2)):
        raise ValueError("odd coefficients present; signed symmetrization not supported")
    order = p.order
    total = TruncatedSeries.zero(order)
    for part in _partitions(n):
        weight = factorial(n)
        for c, m in part.items():
            weight //= (c**m) * factorial(m)
        term = TruncatedSeries.one(order)
        for c, m in part.items():
            pc = p.substitute_power(c)
            for _ in range(m):
                term = term * pc
        total = total + term.scale(Fraction(weight, factorial(n)))
    return total

