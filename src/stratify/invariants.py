"""Finite matrix groups over the rationals or the Eisenstein integers.

Provides the group of generators with its certified order, with one
certificate (a trace bound) that each generator and the group are finite,
Molien series of invariant rings, invariant cohomology of abelian-variety
quotients as joint fixed spaces of generators on exterior powers, and
symmetric powers of graded Poincare series by the cycle index.  One engine,
Schreier-Sims (`_stabilizer_chain`), gives every order: on column vectors
for `close_group`, whose group keeps the chain's transversals for `molien`
to walk the elements off, and on the roots of a lattice for `stratify.weyl`.

Matrices of both rings are tuples of row tuples of `EisInt`
(`_exact.eis_matrix`), a rational entry q as q + 0*omega, so both rings
share one arithmetic, one matrix product (`_exact.mat_mul`) and one
determinant.

At load this module imports only `_pure` and `_exact`; the functions that
return a series or a Betti table import `series` when they run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from operator import itemgetter

from . import _pure
from ._exact import (UNITS, EisInt, adjugate, definite_ldl, det, eis, eis_matrix, identity,
                     mat_mul, nullspace, real_form)

DEFAULT_CAP = 10**6


class FiniteMatrixGroup(_pure.Record):
    """Finite matrix group, given by its generators and its certified order.

    ``ring`` is "Q" (rational entries) or "E" (entries in Z[omega]); every
    matrix, generator or form, is a tuple of row tuples of `EisInt`, a
    rational entry q as q + 0*omega.  ``form`` optionally carries a
    hermitian Gram matrix the group is unitary for.  Elements are never
    listed: ``chain`` (not in the repr) holds the transversals of the
    `_matrix_chain` that `close_group` certified, for `molien` to walk, or None.
    """

    _not_in_repr = ("chain",)

    ring: str
    dim: int
    gens: tuple
    order: int
    form: tuple | None = None
    chain: tuple | None = None


def close_group(generators, cap: int | None = None):
    """The group generated by rational or Eisenstein matrices, with its order.

    Accepts rational matrices (entries int/Fraction) or Eisenstein matrices
    (entries `EisInt` or (a, b) integer pairs), all k x k, a rational entry
    q as q + 0*omega, an integral q as an int.  The order comes from the
    generators' stabilizer chain (`_matrix_chain`), without listing elements.

    One certificate proves the group finite: the trace test `_check_trace`,
    which every matrix of finite order passes.  Each generator must be
    invertible with a unit determinant (+-1 over Q, the six units over
    Z[omega]), and the chain of the cyclic group it generates must complete,
    each transversal element held to the trace test: that chain is the
    generator's only finiteness certificate, and a one-generator group keeps
    it.  Finite orders do not make the group finite, so the chain of two or
    more generators, which the group keeps, holds each transversal element
    to the same test.  Raises ValueError on generators of different sizes
    and on the first matrix refused ("generator i has infinite order: a
    power has trace ..." for a power of a generator), and ResourceCapError
    when a generator's order or the group's exceeds ``cap`` (None: `DEFAULT_CAP`).
    """
    if cap is None:
        cap = DEFAULT_CAP
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    k = len(generators[0])
    for i, g in enumerate(generators):
        if not k or len(g) != k or any(len(row) != k for row in g):
            raise ValueError("generators must be nonempty square matrices of one size: "
                             f"generator {i} is not {k} x {k}")
    ring = "Q" if isinstance(generators[0][0][0], (int, Fraction)) else "E"
    if ring == "Q":
        generators = [[[_pure.rational(x) for x in row] for row in g] for g in generators]
    mats = [eis_matrix(g) for g in generators]
    for i, mat in enumerate(mats):
        d = det(mat)
        if not d:
            raise ValueError("generator is not invertible")
        if d not in UNITS:
            raise ValueError(f"generator {i} has determinant {_show(d)}, not a unit, "
                             "so it has infinite order")
        try:  # M has finite order <= cap exactly when its cyclic group's chain completes
            chain = _matrix_chain([mat], k, cap, f"generator {i} has infinite order: a power")
        except _pure.ResourceCapError:
            raise _pure.ResourceCapError(f"generator {i} has order above the cap {cap}") from None
    if len(mats) > 1:
        chain = _matrix_chain(mats, k, cap)
    return FiniteMatrixGroup(ring, k, tuple(mats), prod(map(len, chain)), chain=chain)


def _matrix_chain(gens, k, cap, *what):
    """The transversals u of each level, the identity first, of the chain of
    the group generated by k x k matrices (`_Matrices`, which names a refused
    transversal element ``what`` when it is given); its order is held to ``cap``."""
    act = _Matrices(k, cap, *what)
    # the trivial group has no level; one with the identity alone walks it
    levels = _stabilizer_chain(gens, act) or [_Level(act.bases[0], act.ident)]
    chain = tuple(tuple(u for u, _ in level.trans.values()) for level in levels)
    order = prod(map(len, chain))
    if order > cap:
        raise _pure.ResourceCapError(f"group order {order} exceeds the cap {cap}")
    return chain


def _elements(chain, prefix=None):
    """Each element of a `_matrix_chain` group once, the identity first, times
    ``prefix`` on the left: u_0 u_1 ... u_m, one transversal element per level."""
    if not chain:
        yield prefix
        return
    for u in chain[0]:
        yield from _elements(chain[1:], u if prefix is None else mat_mul(prefix, u))


# ---------------------------------------------------------------------------
# the one group engine: stabilizer chains (Schreier-Sims)
# ---------------------------------------------------------------------------


class _Perms:
    """Permutations of 0..n-1, tuples of images, acting on their points.  An
    action has an identity, base points (only it fixes them all), ``mul``
    (its second factor acts first), ``inverse``, ``image``, and ``check``,
    called on each new transversal element with its orbit's new length."""

    image = staticmethod(tuple.__getitem__)
    mul = staticmethod(lambda p, q: itemgetter(*q)(p))
    inverse = staticmethod(lambda p: tuple(sorted(range(len(p)), key=p.__getitem__)))
    check = staticmethod(lambda element, size: None)

    def __init__(self, n):
        self.ident, self.bases = tuple(range(n)), range(n)


class _Matrices:
    """k x k matrices acting on k x 1 columns, based at the standard basis
    vectors; `check` holds each new transversal element to `_check_trace`,
    naming it ``what``, and each basic orbit to ``cap`` points."""

    image = mul = staticmethod(mat_mul)

    def __init__(self, k, cap, what="the group is infinite: an element"):
        self.k, self.cap, self.what, self.ident = k, cap, what, identity(k)
        self.bases = [tuple(zip(row)) for row in self.ident]

    @staticmethod
    def inverse(mat):
        d, adj = adjugate(mat)  # a unit: 1/d is its conjugate
        return tuple(tuple(e * d.conj() for e in row) for row in adj)

    def check(self, element, size):
        _check_trace(element, self.k, self.what)
        if size > self.cap:
            raise _pure.ResourceCapError(f"group order exceeds the cap {self.cap}")


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    (s, s^-1) fixing the earlier base points, the basic orbit with a
    transversal (orbit point y -> (u, u^-1) with u mapping the base point to
    y), and the Schreier generators (y, generator index) already sifted or
    known to be the identity."""

    def __init__(self, point, ident):
        self.point, self.gens, self.trans, self.sifted = point, [], {point: (ident, ident)}, set()

    def add(self, gen, act):
        """Add a strong generator (s, s^-1) and walk the orbit again breadth
        first from the base point: old entries stay, a new point z = s y gets
        (s u_y, u_y^-1 s^-1)."""
        self.gens.append(gen)
        trans, queue, reached = self.trans, [self.point], {self.point}
        for y in queue:
            for si, (s, s_inv) in enumerate(self.gens):
                z = act.image(s, y)
                if z not in reached:
                    reached.add(z)
                    queue.append(z)
                    if z not in trans:
                        v = act.mul(s, trans[y][0])
                        act.check(v, len(trans) + 1)
                        trans[z] = (v, act.mul(trans[y][1], s_inv))
                        self.sifted.add((y, si))  # u_z^-1 s u_y is the identity


def _sift(levels, g, start, act):
    """Strip g through the levels from ``start``: the residue and the level
    where it left the basic orbit (``len(levels)`` if it fixes every base point)."""
    for i, level in enumerate(levels[start:], start):
        y = act.image(g, level.point)
        if y not in level.trans:
            return g, i
        g = act.mul(level.trans[y][1], g)
    return g, len(levels)


def permutation_group_order(perms) -> int:
    """Order of the group generated by permutations of 0..n-1."""
    act = _Perms(len(perms[0]) if perms else 0)
    return prod(len(level.trans) for level in _stabilizer_chain(map(tuple, perms), act))


def _stabilizer_chain(gens, act) -> list:
    """The levels of a base and strong generating set of the group that
    ``gens`` generate in the action ``act`` (`_Perms`, `_Matrices`).

    Deterministic Schreier-Sims (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 4.4; Seress, *Permutation Group
    Algorithms*, 2003, section 4.2).  Generators are added one at a time and
    one that sifts to the identity through the chain built so far is already
    in the group.  Every Schreier generator u_{y^s}^-1 s u_y of every level is
    sifted through the levels below it; a nonidentity residue becomes a new
    strong generator and the levels from there down are checked again.  With
    no residue left the chain is complete: each element is, once, a product
    of one transversal element per level, so the order is the product of the
    basic orbit lengths.
    """
    ident, mul, image = act.ident, act.mul, act.image
    levels = []

    def insert(h, lo, hi):
        # h fixes the base points of the levels before hi; hi may be a new level
        if hi == len(levels):
            levels.append(_Level(next(x for x in act.bases if image(h, x) != x), ident))
        gen = (h, act.inverse(h))  # the one inverse taken per strong generator
        for level in levels[lo:hi + 1]:
            level.add(gen, act)

    for g in gens:
        h, j = _sift(levels, g, 0, act)
        if h == ident:
            continue
        insert(h, 0, j)
        i = j
        while i >= 0:
            level = levels[i]
            restart = None
            for y, (u, _) in list(level.trans.items()):
                for si, (s, _) in enumerate(level.gens):
                    if (y, si) in level.sifted:
                        continue
                    level.sifted.add((y, si))
                    w, z = mul(s, u), image(s, y)
                    if w == level.trans[z][0]:  # the Schreier generator is the identity
                        continue
                    h, j = _sift(levels, mul(level.trans[z][1], w), i + 1, act)
                    if h != ident:
                        insert(h, i + 1, j)
                        restart = j
                        break
                if restart is not None:
                    break
            i = i - 1 if restart is None else restart
    return levels


def _show(x: EisInt) -> str:
    return str(x.a) if x.is_real() else f"{x.a} + {x.b}*omega"


def _check_trace(mat, k, what):
    """Refuse a k x k matrix M when its trace shows it has infinite order;
    the message reads "{what} has trace ... and {the reason}".

    A matrix of finite order is diagonalizable with roots of unity as
    eigenvalues, so its trace, a sum of k of them, is an algebraic integer
    (in Z[omega]) with |tr M| <= k, and equality only when M is a root of
    unity (one of `UNITS`) times the identity.  |tr M|^2 is the norm of tr M.
    """
    tr = sum((mat[i][i] for i in range(k)), EisInt(0, 0))
    n = tr.norm()
    if tr.a.denominator != 1 or tr.b.denominator != 1:
        why = "it is not an algebraic integer"
    elif n > k * k:
        why = f"|trace| > {k}, the dimension"
    elif n == k * k and not (mat[0][0] in UNITS and all(
            mat[i][j] == (mat[0][0] if i == j else 0) for i in range(k) for j in range(k))):
        why = f"|trace| = {k}, the dimension, but it is not a root of unity times the identity"
    else:
        return
    raise ValueError(f"{what} has trace {_show(tr)} and {why}")


def _elementary_symmetric(mat):
    """e_0..e_k of the eigenvalues of a k x k matrix, via Newton's identities
    on trace powers."""
    k = len(mat)
    powers = [mat]
    while len(powers) < k:
        powers.append(mat_mul(powers[-1], mat))
    ps = [sum(m[i][i] for i in range(k)) for m in powers]
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
    constant term 1.  The elements are walked (`_elements`) off the group's
    chain, built from the generators for a group without one (a Weyl group);
    its order must be the declared one, at most `DEFAULT_CAP`.  det(1 - T M)
    depends only on the characteristic polynomial of M, so the walk counts
    the elements per polynomial (its `_elementary_symmetric` tuple), and each
    polynomial's series is inverted once and weighted by its count: S6 has
    720 elements but 11 polynomials.
    """
    from .series import TruncatedSeries, inverse

    _pure.check_degree(generator_degree, "generator degree")
    k = group.dim
    chain = group.chain or _matrix_chain(group.gens, k, DEFAULT_CAP)
    n = prod(map(len, chain))
    if n > DEFAULT_CAP:  # a group closed with a larger cap: refused before the walk
        raise _pure.ResourceCapError(f"group order {n} exceeds the cap {DEFAULT_CAP}")
    if n != group.order:
        raise AssertionError(
            f"the generators give order {n}, the group declares {group.order}")
    census = {}
    for mat in _elements(chain):
        es = tuple(_elementary_symmetric(mat))
        census[es] = census.get(es, 0) + 1
    g = generator_degree
    zero = EisInt(0, 0)
    total = [zero] * (order + 1)
    for es, count in census.items():
        # det(1 - T M) = 1 + sum_p (-1)^p e_p T^p with T = t^g
        f = [1] + [0] * min(k * g, order)
        for p in range(1, min(k, order // g) + 1):
            f[p * g] = -es[p] if p % 2 else es[p]
        inv = inverse(f, order)
        for i in range(order + 1):
            total[i] = total[i] + inv[i] * count
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
    adjoint = tuple(tuple(e.conj() for e in col) for col in zip(*mat))
    return mat_mul(adjoint, mat_mul(gram, mat)) == tuple(map(tuple, gram))


def _compound(mat, p):
    """p-th exterior power: the p x p minors, p-subsets in lexicographic order."""
    subsets = list(combinations(range(len(mat)), p))
    return [
        [eis(det([[mat[i][j] for j in cols] for i in rows])) for cols in subsets]
        for rows in subsets
    ]


def _invariant_dim(powers, p, q) -> int:
    """dim (Lambda^p V (x) conj Lambda^q V)^G, narrowed one generator at a time.

    ``powers`` holds, per generator (at least one), its exterior powers by
    degree.  The fixed space of G is the joint fixed space of its generators.
    """
    basis = None  # None stands for the whole space
    for ext in powers:
        a = ext[p]
        b = [[x.conj() for x in row] for row in ext[q]]
        # A (x) conj(B) - I: row (i, j) is the Kronecker product of rows i and j
        op = [[x * y for x in ra for y in rb] for ra in a for rb in b]
        for i, row in enumerate(op):
            row[i] = row[i] - 1
        if basis is None:
            basis = nullspace(op)
        else:
            coeffs = nullspace(mat_mul(op, tuple(zip(*basis))))
            basis = mat_mul(coeffs, basis)
        if not basis:
            return 0
    return len(basis)


# Cap on the rank of an abelian quotient: the fixed spaces live in
# Lambda^p V (x) conj Lambda^q V, of dimension C(k, p) C(k, q), up to 400 at
# rank 6 against 100 at rank 5 (on the generators `weyl_group` carries,
# E1+E4 takes about 0.2 s and 2E3 about 3 s, mostly in products with the
# 400 x 400 operators).  The pinned boundaries use rank <= 4.
MAX_QUOTIENT_RANK = 5


def check_quotient_rank(k: int) -> None:
    """Raise ResourceCapError for an abelian quotient of rank above `MAX_QUOTIENT_RANK`."""
    if k > MAX_QUOTIENT_RANK:
        raise _pure.ResourceCapError(
            f"abelian quotient rank {k} exceeds the cap {MAX_QUOTIENT_RANK}"
        )


def abelian_quotient_betti(gens, k: int, form) -> BettiTable:
    """Betti table of the quotient of a k-dimensional abelian variety.

    The variety is the k-fold product of the j-invariant-zero elliptic curve;
    the group generated by ``gens``, k x k matrices over the Eisenstein
    integers, acts through them.  A caller holding a `FiniteMatrixGroup`
    passes its ``gens`` and its ``form``.  A generator or the hermitian
    ``form`` may have any entries `eis` accepts.  h^{p,q} is the dimension
    of the invariants in Lambda^p V (x) conj Lambda^q V, computed exactly as
    the joint fixed space of the generators for p <= q; conjugation gives
    h^{q,p} = h^{p,q}.

    Certificate: every generator has Z[omega] entries and is unitary for the
    hermitian form, definite by `_exact.definite_ldl`, so the group is finite;
    the table must satisfy Poincare duality.  Ranks above `MAX_QUOTIENT_RANK` are refused.
    """
    from .series import BettiTable, duality_check

    check_quotient_rank(k)
    if form is None:
        raise ValueError("no hermitian form declared for unitarity checking")
    gram, *mats = (eis_matrix(m) for m in (form, *gens))
    if len(gram) != k or any(len(m) != k for m in mats):
        raise ValueError("rank mismatch")
    if not all(type(e.a) is int and type(e.b) is int
               for m in (gram, *mats) for row in m for e in row):
        raise ValueError("generators and form must have Eisenstein-integer entries")
    if any(gram[j][i] != gram[i][j].conj() for i in range(k) for j in range(k)):
        raise ValueError("the form is not hermitian")
    definite_ldl(real_form(gram))  # raises on a degenerate or indefinite form
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


# Cap on the number of symmetrized copies: the cycle-index recurrence takes
# n (n + 1) / 2 series products, each of order 2 * dim * n for a table.
# The pinned boundaries use at most 3.
MAX_WREATH_COUNT = 12


def check_wreath_count(n: int) -> None:
    """Raise ResourceCapError for a symmetrized copy count above `MAX_WREATH_COUNT`."""
    if n > MAX_WREATH_COUNT:
        raise _pure.ResourceCapError(
            f"symmetrized copy count {n} exceeds the cap {MAX_WREATH_COUNT}"
        )


def wreath_symmetrize(p, n: int):
    """The n-th symmetric power of a graded space by the cycle index of S_n.

    With the signed power sums p_k, P(t^k) with its odd-degree terms
    negated for even k (a k-cycle permutes k copies of an odd class with
    sign (-1)^(k-1)), the recurrence h_0 = 1, m h_m = sum_{k=1..m} p_k h_(m-k)
    gives h_n in n (n + 1) / 2 series products: Macdonald's formula for the
    Poincare polynomial of a symmetric product, and on even input the
    partition sum of the cycle index.  Accepts a TruncatedSeries or a
    BettiTable and returns the same kind.  A table of complex dimension d
    gives one of dimension d n, whose series order 2 d n is held to the
    truncation-order cap before the series is built; its coefficients are
    certified integral.
    """
    from .series import BettiTable, TruncatedSeries

    if n < 1:
        raise ValueError("n must be positive")
    check_wreath_count(n)
    if isinstance(p, BettiTable):
        series = p.poincare_series(
            _pure.check_order(2 * p.complex_dim * n, "twice the symmetrized dimension"))
        out = wreath_symmetrize(series, n)
        return BettiTable.from_list(out.integer_coeffs(), p.complex_dim * n)
    signed = TruncatedSeries(tuple(-c if i % 2 else c for i, c in enumerate(p.coeffs)), p.order)
    sums = [(signed if k % 2 == 0 else p).substitute_power(k) for k in range(1, n + 1)]
    h = [TruncatedSeries.one(p.order)]
    for m in range(1, n + 1):
        total = sum((sums[k - 1] * h[m - k] for k in range(1, m + 1)),
                    TruncatedSeries.zero(p.order))
        h.append(total.scale(Fraction(1, m)))
    return h[n]

