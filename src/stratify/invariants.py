"""Finite matrix groups over the rationals or the Eisenstein integers.

Provides multiplicative closure from generators, with one certificate (a
trace bound) that each generator and each element has finite order,
Molien series of invariant rings, invariant cohomology of abelian-variety
quotients as joint fixed spaces of generators on exterior powers, and
cycle-index symmetrization of even graded Poincare series.  Orders
certified without listing elements (Schreier-Sims on the roots of a
lattice) are in `stratify.weyl`.

Matrices of both rings are tuples of row tuples of `EisInt`
(`_exact.eis_matrix`), a rational entry q as q + 0*omega, so both rings
share one arithmetic, one matrix product (`_exact.mat_mul`), one closure
(`close_eis`) and one determinant.

At load this module imports only `_pure` and `_exact`; the functions that
return a series or a Betti table import `series` when they run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from . import _pure
from ._exact import UNITS, EisInt, det, eis, eis_matrix, identity, mat_mul, nullspace, rational

DEFAULT_CAP = 10**6


class FiniteMatrixGroup(_pure.Record):
    """Finite matrix group; elements, when listed, in breadth-first order
    from the generators (`close_eis`).

    ``ring`` is "Q" (rational entries) or "E" (entries in Z[omega]); every
    matrix, element, generator or form, is a tuple of row tuples of `EisInt`,
    a rational entry q as q + 0*omega.  ``form`` optionally carries a
    hermitian Gram matrix the group is unitary for.  ``order`` defaults to
    the number of listed elements; a group whose order is certified
    otherwise (a Weyl group, by Schreier-Sims) lists none, and `molien`
    closes its generators when it needs the elements.
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


def close_group(generators, cap: int | None = None):
    """Breadth-first multiplicative closure with exact equality testing.

    Accepts rational matrices (entries int/Fraction) or Eisenstein matrices
    (entries `EisInt` or (a, b) integer pairs), all k x k; both close by
    `close_eis`, a rational entry q as q + 0*omega, an integral q as an int.
    Elements come in breadth-first order.

    One certificate proves the group finite: the trace test `_check_trace`,
    which every matrix of finite order passes.  Before any closure each
    generator must be invertible with a unit determinant (+-1 over Q, the
    six units over Z[omega]), and `_check_finite_order` walks its powers to
    the identity, each one held to the trace test; the walk always ends.
    Finite orders do not make the group finite, so `close_eis` holds every
    product to the same test.  Raises ValueError on generators of different
    sizes and on the first matrix refused, and ResourceCapError when a
    generator's order or the closure exceeds ``cap`` (None: `DEFAULT_CAP`).
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
        generators = [[[rational(x) for x in row] for row in g] for g in generators]
    mats = [eis_matrix(g) for g in generators]
    for i, mat in enumerate(mats):
        d = det(mat)
        if not d:
            raise ValueError("generator is not invertible")
        if d not in UNITS:
            raise ValueError(f"generator {i} has determinant {_show(d)}, not a unit, "
                             "so it has infinite order")
        _check_finite_order(i, mat, cap)
    return FiniteMatrixGroup(ring, k, tuple(close_eis(mats, k, cap)), tuple(mats))


def close_eis(gens, k, cap):
    """Breadth-first multiplicative closure of k x k `EisInt` matrices.

    Returns the elements as a list: the identity, then each new product
    x * g in the order found, x running over the list and g over ``gens``.
    Raises ValueError at the first element whose trace shows it has infinite
    order (`_check_trace`), and ResourceCapError beyond ``cap`` elements.
    """
    ident = identity(k)
    seen = {ident}
    elements = [ident]
    for x in elements:  # the list grows while it is read: breadth first
        for g in gens:
            y = mat_mul(x, g)
            if y not in seen:
                seen.add(y)
                _check_trace(y, k, "the group is infinite: an element")
                if len(seen) > cap:
                    raise _pure.ResourceCapError(f"group closure exceeded cap {cap}")
                elements.append(y)
    return elements


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


def _check_finite_order(i, mat, cap):
    """Refuse generator i, a k x k matrix M, unless it has finite order.

    Certificate: the powers M, M^2, ... reach the identity, and each power
    before it passes `_check_trace`, the test `close_eis` holds every element
    to.  The walk ends.  An eigenvalue off the unit circle makes |tr M^j|
    unbounded, and a non-integral eigenvalue gives some power a non-integral
    trace.  Otherwise every eigenvalue is a root of unity (Kronecker), so for
    L the lcm of their orders M^L is unipotent: the identity, or of trace k
    without being scalar.  A power beyond ``cap`` raises ResourceCapError,
    since then M alone generates more than ``cap`` elements.
    """
    k = len(mat)
    ident = identity(k)
    power, j = mat, 1
    while power != ident:
        _check_trace(power, k, f"generator {i} has infinite order: M^{j}")
        if j >= cap:
            raise _pure.ResourceCapError(f"generator {i} has order above the cap {cap}")
        power = mat_mul(power, mat)
        j += 1


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
    constant term 1.  A group given without its elements is closed first, and
    the closure must have the declared order.
    """
    from .series import TruncatedSeries

    if generator_degree < 1 or generator_degree % 2 != 0:
        raise ValueError("generator degree must be a positive even integer")
    k = group.dim
    elements = group.elements or close_eis(group.gens, k, DEFAULT_CAP)
    if len(elements) != group.order:
        raise AssertionError(
            f"closure has order {len(elements)}, the group declares {group.order}")
    g = generator_degree
    zero = EisInt(0, 0)
    total = [zero] * (order + 1)
    for mat in elements:
        es = _elementary_symmetric(mat)
        # det(1 - T M) = 1 + sum_p (-1)^p e_p T^p with T = t^g: its nonzero
        # terms past the constant, as (degree, coefficient), degrees ascending
        terms = [(p * g, -es[p] if p % 2 else es[p])
                 for p in range(1, min(k, order // g) + 1) if es[p]]
        inv = [EisInt(1, 0)] + [zero] * order
        for m in range(1, order + 1):
            s = zero
            for t, c in terms:
                if t > m:
                    break
                s = s + c * inv[m - t]
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
    adjoint = tuple(tuple(e.conj() for e in col) for col in zip(*mat))
    return mat_mul(adjoint, mat_mul(gram, mat)) == tuple(map(tuple, gram))


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
# rank 6 against 100 at rank 5 (E1+E4 takes 2-3 s, 2E3 about 60 s, mostly in
# products with the 400 x 400 operators).  The pinned boundaries use rank <= 4.
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
    used, or its elements if it has none) or a sequence of generators; a
    generator or ``form`` may have any entries `eis` accepts.  h^{p,q} is
    the dimension of the invariants in Lambda^p V (x) conj Lambda^q V,
    computed exactly as the joint fixed space of the generators for p <= q;
    conjugation gives h^{q,p} = h^{p,q}.

    Certificate: every generator has Z[omega] entries and is unitary for the
    hermitian form, which is definite, so the group is finite; the table must
    satisfy Poincare duality.  Ranks above `MAX_QUOTIENT_RANK` are refused.
    """
    from .series import BettiTable, duality_check

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
    gram, *mats = (eis_matrix(m) for m in (gram, *gens))
    if len(gram) != k or any(len(m) != k for m in mats):
        raise ValueError("rank mismatch")
    if not all(type(e.a) is int and type(e.b) is int
               for m in (gram, *mats) for row in m for e in row):
        raise ValueError("generators and form must have Eisenstein-integer entries")
    if not _is_definite(gram):
        raise ValueError("the hermitian form is not definite")
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
    from .series import BettiTable, TruncatedSeries

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

