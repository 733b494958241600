"""Integral forms, roots and triflection (Weyl) groups of Eisenstein lattices.

`z_form` gives the underlying even integral lattice of a hermitian
Eisenstein lattice, (x, y) = -(2/3) Re<x, y> on the basis e_1, omega e_1,
e_2, omega e_2, ...  Short vectors are found by Fincke-Pohst enumeration on
the fraction-free LDL^T of `_pure._extend_ldl`, in integers.  The roots are
the norm-3 vectors; a triflection fixes the orthogonal complement of a root
and multiplies the root by omega.  The order of the group they generate is
certified by deterministic Schreier-Sims on the permutation action on the
roots (`invariants.permutation_group_order`), without listing elements.

At load this module imports `_pure`, `_exact` and `eisenstein` (the unit
constants): every call reaches it from an Eisenstein lattice, so
`eisenstein` is loaded already.  The unitarity check, the group record and
Schreier-Sims come from `invariants` when they are used.
"""

from __future__ import annotations

import math
from operator import mul

from . import _pure
from ._exact import UNITS, EisInt, det, eis, identity, mat_mul, nullspace
from .eisenstein import E_ONE, E_ZERO, OMEGA


class ZLattice(_pure.Record):
    """Integral symmetric bilinear lattice."""

    rank: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.rank or any(len(r) != self.rank for r in g):
            raise ValueError("gram size mismatch")
        for i in range(self.rank):
            for j in range(self.rank):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pair(self, x, y):
        return sum(
            x[i] * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def det(self) -> int:
        return det(self.gram)


def z_form(lat: EisLattice) -> ZLattice:
    """Underlying even integral lattice on the basis e_i, omega*e_i."""
    k = lat.rank
    basis = []
    for i in range(k):
        for s in (E_ONE, OMEGA):
            v = [E_ZERO] * k
            v[i] = s
            basis.append(v)
    g = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(2 * k):
        for j in range(2 * k):
            h = lat.pair(basis[i], basis[j])
            # (x, y) = -(2/3) Re<x, y>;  Re(a + b w) = a - b/2
            re2 = 2 * h.a - h.b  # twice the real part
            if re2 % 3:
                raise AssertionError("pairing is not theta-integral")
            g[i][j] = -re2 // 3
    zl = ZLattice(2 * k, tuple(tuple(r) for r in g))
    if not zl.is_even():
        raise AssertionError("integral form of a theta-valued lattice must be even")
    return zl


def eis_vector_from_z(v, k) -> tuple:
    """Integral-basis coordinates (pairs e_i, omega e_i) to an Eisenstein vector."""
    return tuple(EisInt(v[2 * i], v[2 * i + 1]) for i in range(k))


# ---------------------------------------------------------------------------
# short vectors
# ---------------------------------------------------------------------------


def _definite_ldl(gram):
    """(sign, low) with sign * G positive definite and ``low`` its
    fraction-free LDL^T elimination (`_pure._extend_ldl`, right-hand side 0).

    The pivots low[i][i] are the leading principal minors P_i of sign * G, so
    by Sylvester's criterion sign * G is positive definite when all are
    positive.  A zero minor means the form is degenerate, or indefinite when
    its determinant is not zero.
    """
    n = len(gram)
    zeros = [0] * n
    for sign in (1, -1):
        low = []
        for s in range(n):
            ext = _pure._extend_ldl(low, zeros, [sign * x for x in gram[s][:s + 1]], 0)
            if ext is None:
                raise ValueError("degenerate form" if det(gram) == 0 else "lattice is indefinite")
            low.append(ext[0])
        if all(row[-1] > 0 for row in low):
            return sign, low
    raise ValueError("lattice is indefinite")


def enumerate_vectors(zl: ZLattice, value: int) -> list:
    """All integer vectors with (v, v) equal to ``value`` in a definite lattice.

    Fincke-Pohst enumeration in integers: with U_i the i-th row of the upper
    factor (U_ij = low[j][i]) and P_i the pivots (P_-1 = 1), the positive
    definite form is Q(x) = sum_i (U_i . x)^2 / (P_(i-1) P_i).  Choosing x
    from the last coordinate down, the budget left before x_i, scaled by P_i,
    is an integer, and each coordinate's range is exact by `math.isqrt`.
    Raises on an indefinite or degenerate form.
    """
    n = zl.rank
    sign, low = _definite_ldl(zl.gram)
    target = sign * value
    if target < 0:
        return []
    out = []
    x = [0] * n

    def rec(i, r):
        """Choose x_i, ..., x_0 with P_i * (target - Q so far) = r."""
        if i < 0:
            if r == 0:
                out.append(tuple(x))
            return
        p = low[i][i]
        c = sum(low[j][i] * x[j] for j in range(i + 1, n))
        b = r * (low[i - 1][i - 1] if i else 1)  # (p x_i + c)^2 <= b
        s = math.isqrt(b)
        for xi in range(-((s + c) // p), (s - c) // p + 1):
            x[i] = xi
            u = p * xi + c
            rec(i - 1, (b - u * u) // p)
        x[i] = 0

    rec(n - 1, (low[-1][-1] if n else 1) * target)
    return sorted(out)


def enumerate_roots(zl: ZLattice) -> list:
    """Vectors of square -2 (negative definite) or +2 (positive definite)."""
    return enumerate_vectors(zl, 2 * _definite_ldl(zl.gram)[0])


def eisenstein_roots(lat: EisLattice) -> list:
    """Norm-3 vectors of a definite Eisenstein lattice, via the integral form."""
    zl = z_form(lat)
    return [eis_vector_from_z(v, lat.rank) for v in enumerate_roots(zl)]


# ---------------------------------------------------------------------------
# triflections and Weyl groups
# ---------------------------------------------------------------------------


def triflection(lat: EisLattice, root) -> tuple:
    """Matrix of x -> x - (1-omega) (<r, x>/<r, r>) r, acting on columns, as a
    tuple of row tuples of `EisInt`."""
    r = tuple(eis(c) for c in root)
    if lat.pair(r, r) != 3:
        raise ValueError("triflections require a norm-3 root")
    k = lat.rank
    # row functional rho_j = sum_l conj(r_l) G[l][j]
    rho = mat_mul([[x.conj() for x in r]], lat.gram)[0]
    one_minus_omega = E_ONE - OMEGA
    mat = []
    for i in range(k):
        row = []
        for j in range(k):
            c = one_minus_omega * r[i] * rho[j]  # in 3E, as rho_j is in theta E
            if c.a % 3 or c.b % 3:
                raise ValueError(f"{c} is not divisible by 3")
            row.append((E_ONE if i == j else E_ZERO) - EisInt(c.a // 3, c.b // 3))
        mat.append(tuple(row))
    return tuple(mat)


def triflections(lat: EisLattice) -> list:
    """All distinct triflections of a definite lattice, in the order of the
    first root giving each (`eisenstein_roots`).

    The six unit multiples of a root give the same triflection, so a root on
    the line of one already used is skipped.  Every triflection is checked
    to have order 3 and preserve the form.
    """
    return _triflections(lat, eisenstein_roots(lat))


def _triflections(lat, roots) -> list:
    """`triflections` from the lattice's roots, as Eisenstein vectors."""
    from .invariants import is_unitary

    ident = identity(lat.rank)
    found = []
    seen = set()
    lines = set()
    for r in roots:
        if r in lines:
            continue
        lines.update(tuple(u * c for c in r) for u in UNITS)
        mat = triflection(lat, r)
        if mat in seen:
            continue
        if mat_mul(mat_mul(mat, mat), mat) != ident or mat == ident:
            raise AssertionError("triflection does not have order 3")
        if not is_unitary(mat, lat.gram):
            raise AssertionError("triflection does not preserve the form")
        seen.add(mat)
        found.append(mat)
    if not found:
        raise ValueError("lattice has no roots")
    return found


def _z_matrix(mat) -> list:
    """The 2k x 2k integer matrix by which a k x k Z[omega] matrix acts on
    `z_form` coordinates (e_i, omega e_i): (a + b w)(c + d w) is
    (ac - bd) + (bc + (a - b) d) w."""
    rows = []
    for row in mat:
        rows.append([x for e in row for x in (e.a, -e.b)])
        rows.append([x for e in row for x in (e.b, e.a - e.b)])
    return rows


def isometry_group_order(lat: EisLattice, gens) -> int:
    """Order of the group generated by isometries of a definite lattice.

    ``gens`` are square `EisInt` matrices.  Each one permutes the finitely
    many roots, acting on their integer coordinates through its `_z_matrix`,
    and the order is that of this permutation group, from Schreier-Sims
    (`invariants.permutation_group_order`).  The action is faithful: an
    element fixing every root fixes their span, and it fixes their orthogonal
    complement because every generator must (as triflections do).  When the
    roots span the lattice, as for every named lattice, the complement is
    zero and this check is vacuous.
    """
    return _root_action_order(lat, enumerate_roots(z_form(lat)), gens)


def _root_action_order(lat, zroots, gens) -> int:
    """`isometry_group_order` from the roots' `z_form` coordinates."""
    from .invariants import permutation_group_order

    k = lat.rank
    if not zroots:
        raise ValueError("lattice has no roots")
    roots = [eis_vector_from_z(v, k) for v in zroots]
    # x is orthogonal to r when sum_ij conj(r_i) G_ij x_j = 0
    perp = nullspace(mat_mul([[x.conj() for x in r] for r in roots], lat.gram))
    perp = [tuple(c for x in v for c in (x.a, x.b)) for v in perp]
    zmats = [_z_matrix(m) for m in gens]

    def act(z, v):
        return tuple([sum(map(mul, row, v)) for row in z])

    if any(act(z, x) != x for z in zmats for x in perp):
        raise AssertionError("a generator moves the orthogonal complement of the roots, "
                             "so the action on the roots is not certified faithful")
    index = {v: i for i, v in enumerate(zroots)}
    perms = []
    for z in zmats:
        perm = tuple(index.get(act(z, v)) for v in zroots)
        if None in perm or len(set(perm)) != len(perm):
            raise AssertionError("a generator does not permute the roots")
        perms.append(perm)
    return permutation_group_order(perms)


def weyl_group(lat: EisLattice) -> FiniteMatrixGroup:
    """Group generated by all triflections of a definite Eisenstein lattice.

    Its order is certified by Schreier-Sims on the roots its triflections
    come from (`isometry_group_order`); its elements are not listed.
    """
    from .invariants import FiniteMatrixGroup

    zroots = enumerate_roots(z_form(lat))
    trifl = _triflections(lat, [eis_vector_from_z(v, lat.rank) for v in zroots])
    return FiniteMatrixGroup("E", lat.rank, tuple(trifl),
                             _root_action_order(lat, zroots, trifl), lat.gram)
