"""Finite matrix groups over the rationals or the Eisenstein integers.

Provides multiplicative closure from generators, Molien series of invariant
rings, invariant cohomology of abelian-variety quotients as joint fixed
spaces of generators on exterior powers, and cycle-index symmetrization of
even graded Poincare series.

Eisenstein group elements are stored in the kernels' flat int layout
(`flatten_eis_matrix`); Molien averaging and the fixed-space computation
unflatten them to `EisInt` matrices, and rational elements are lifted to
`EisInt` with zero omega part, so both rings share one arithmetic and one
determinant from `stratify._exact`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from . import _backend
from ._exact import EisInt, det, eis, flatten_eis_matrix, nullspace, unflatten_eis_matrix
from .series import BettiTable, TruncatedSeries, duality_check

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Explicit finite matrix group; elements in canonical sorted order.

    ``ring`` is "Q" (entries are Fractions, matrices stored as nested tuples)
    or "E" (entries in Z[omega], matrices stored as flat int tuples in the
    kernel layout).  ``form`` optionally carries a hermitian Gram matrix (flat
    Eisenstein layout) the group is unitary for.
    """

    ring: str
    dim: int
    elements: tuple
    gens: tuple = ()
    form: tuple | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m):
        return m in set(self.elements)


def _is_eis_entry(x) -> bool:
    if isinstance(x, EisInt):
        return True
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(
        isinstance(v, int) for v in x
    )


def _q_matrix(mat) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in mat)


def _q_mul(x, y):
    k = len(x)
    return tuple(
        tuple(sum(x[i][l] * y[l][j] for l in range(k)) for j in range(k))
        for i in range(k)
    )


def _cache_dir() -> str | None:
    return os.environ.get("STRATIFY_CACHE") or None


def _closure_cache_key(kind, k, gens, cap) -> str:
    payload = json.dumps([kind, k, [list(g) for g in gens], cap], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def close_group(generators, cap: int = DEFAULT_CAP, cache_dir: str | None = None):
    """Breadth-first multiplicative closure with exact equality testing.

    Accepts rational matrices (entries int/Fraction) or Eisenstein matrices
    (entries `EisInt` or (a, b) integer pairs).  Elements are returned canonically
    ordered.  Raises on a non-invertible generator or when the closure
    exceeds ``cap``.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    first = generators[0]
    k = len(first)
    eis = _is_eis_entry(first[0][0]) if not isinstance(first[0][0], (int, Fraction)) else False

    if eis:
        flats = [flatten_eis_matrix(g) for g in generators]
        for flat in flats:
            if not det(unflatten_eis_matrix(flat, k)):
                raise ValueError("generator is not invertible")
        cache_dir = cache_dir or _cache_dir()
        cached = None
        key = _closure_cache_key("E", k, flats, cap)
        if cache_dir:
            path = os.path.join(cache_dir, f"group-{key}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    cached = [tuple(e) for e in json.load(fh)]
        if cached is None:
            cached = [tuple(e) for e in _backend.close_eis(flats, k, cap)]
            if cache_dir:
                os.makedirs(cache_dir, exist_ok=True)
                path = os.path.join(cache_dir, f"group-{key}.json")
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    json.dump([list(e) for e in cached], fh)
                os.replace(tmp, path)
        return FiniteMatrixGroup("E", k, tuple(cached), tuple(flats))

    gens = [_q_matrix(g) for g in generators]
    for g in gens:
        if not det(g):
            raise ValueError("generator is not invertible")
    ident = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(k))
        for i in range(k)
    )
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _q_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise _backend.ResourceCapError(
                            f"group closure exceeded cap {cap}"
                        )
                    nxt.append(y)
        frontier = nxt
    return FiniteMatrixGroup("Q", k, tuple(sorted(seen)), tuple(gens))


def _eis_elements(group: FiniteMatrixGroup):
    if group.ring == "E":
        for flat in group.elements:
            yield unflatten_eis_matrix(flat, group.dim)
    else:
        for mat in group.elements:
            yield tuple(tuple(EisInt(x, 0) for x in row) for row in mat)


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
    constant term 1.
    """
    if generator_degree < 1 or generator_degree % 2 != 0:
        raise ValueError("generator degree must be a positive even integer")
    k = group.dim
    g = generator_degree
    zero = EisInt(0, 0)
    total = [zero] * (order + 1)
    for mat in _eis_elements(group):
        es = _elementary_symmetric(mat, k)
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
    satisfy Poincare duality.
    """
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
        raise _backend.ResourceCapError(
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

