"""Integral forms, roots and triflection (Weyl) groups of Eisenstein lattices.

`z_form` gives the underlying even integral lattice of a hermitian
Eisenstein lattice, (x, y) = -(2/3) Re<x, y> (`_exact.real_form`).  Short
vectors are found by Fincke-Pohst enumeration on `_exact.definite_ldl`, in
integers.  The roots are the vectors of norm 3 (-3 if negative definite); a
triflection fixes the orthogonal complement of a root and multiplies the
root by omega.  The order of the group they generate is certified by
deterministic Schreier-Sims on the permutation action on the roots
(`invariants.permutation_group_order`), without listing elements.

At load this module imports `_pure`, `_exact` and `eisenstein` (the unit
constants): every call reaches it from an Eisenstein lattice, so
`eisenstein` is loaded already.  The group record and Schreier-Sims come
from `invariants` when they are used.
"""

from __future__ import annotations

import math
from operator import mul

from . import _pure
from ._exact import (UNITS, EisInt, definite_ldl, det, eis, eis_vector_from_z, mat_mul,
                     nullspace, real_form, z_matrix)
from .eisenstein import E_ONE, E_ZERO, OMEGA


class ZLattice(_pure.Record):
    """Integral symmetric bilinear lattice."""

    rank: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.rank or any(len(r) != self.rank for r in g):
            raise ValueError("gram size mismatch")
        if any(g[i][j] != g[j][i] for i in range(self.rank) for j in range(i)):
            raise ValueError("gram must be symmetric")

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def det(self) -> int:
        return det(self.gram)


def z_form(lat: EisLattice) -> ZLattice:
    """Underlying even integral lattice, (x, y) = -(2/3) Re<x, y>: minus a
    third of `_exact.real_form`."""
    g = real_form(lat.gram)
    if any(x % 3 for row in g for x in row):
        raise AssertionError("pairing is not theta-integral")
    zl = ZLattice(len(g), tuple(tuple(-x // 3 for x in row) for row in g))
    if not zl.is_even():
        raise AssertionError("integral form of a theta-valued lattice must be even")
    return zl


# ---------------------------------------------------------------------------
# short vectors
# ---------------------------------------------------------------------------


def enumerate_vectors(zl: ZLattice, value: int) -> list:
    """All integer vectors with (v, v) equal to ``value`` in a definite lattice.

    Fincke-Pohst enumeration in integers: with U_i the i-th row of the upper
    factor (U_ij = low[j][i]) and P_i the pivots (P_-1 = 1), the positive
    definite form is Q(x) = sum_i (U_i . x)^2 / (P_(i-1) P_i).  Choosing x
    from the last coordinate down, the budget left before x_i, scaled by P_i,
    is an integer, and each coordinate's range is exact by `math.isqrt`.
    Raises on an indefinite or degenerate form.
    """
    sign, low = definite_ldl(zl.gram)
    return _fincke_pohst(low, sign * value)


def _fincke_pohst(low, target) -> list:
    """The vectors of square ``target`` in the form eliminated to ``low``."""
    if target < 0:
        return []
    n = len(low)
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
    return _fincke_pohst(definite_ldl(zl.gram)[1], 2)


def eisenstein_roots(lat: EisLattice) -> list:
    """Roots of a definite Eisenstein lattice (norm 3, or -3 when negative
    definite), via the integral form."""
    return [eis_vector_from_z(v) for v in enumerate_roots(z_form(lat))]


# ---------------------------------------------------------------------------
# triflections and Weyl groups
# ---------------------------------------------------------------------------


def triflection(lat: EisLattice, root) -> tuple:
    """Matrix of x -> x - (1-omega) (<r, x>/<r, r>) r, acting on columns, as a
    tuple of row tuples of `EisInt`, for a root r: <r, r> = 3 or -3."""
    r = tuple(eis(c) for c in root)
    norm = lat.pair(r, r)
    if norm not in (3, -3):
        raise ValueError("triflections require a root of norm 3 or -3")
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
            row.append((E_ONE if i == j else E_ZERO) - EisInt(c.a // norm.a, c.b // norm.a))
        mat.append(tuple(row))
    return tuple(mat)


def triflections(lat: EisLattice) -> list:
    """All distinct triflections of a definite lattice, in the order of the
    first root giving each (`eisenstein_roots`).

    The six unit multiples of a root give the same triflection, so a root on
    the line of one already used is skipped.  A triflection has order 3 and
    preserves the form by construction; where its matrix is used, for an
    abelian quotient, `invariants.abelian_quotient_betti` certifies that it
    is unitary.
    """
    return _triflections(lat, eisenstein_roots(lat))


def _triflections(lat, roots) -> list:
    """`triflections` from the lattice's roots, as Eisenstein vectors."""
    found = []
    seen = set()
    lines = set()
    for r in roots:
        if r in lines:
            continue
        lines.update(tuple(u * c for c in r) for u in UNITS)
        mat = triflection(lat, r)
        if mat not in seen:
            seen.add(mat)
            found.append(mat)
    if not found:
        raise ValueError("lattice has no roots")
    return found


def _root_action_order(zl, zroots, gens) -> int:
    """Order of the group generated by isometries of a definite lattice,
    from its integral form ``zl`` and the integer coordinates of its roots.

    ``gens`` are square `EisInt` matrices.  Each one permutes the finitely
    many roots, acting on their integer coordinates through its `_exact.z_matrix`,
    and the order is that of this permutation group, from Schreier-Sims
    (`invariants.permutation_group_order`).  A generator is Z[omega]-linear,
    so it maps u v to u g(v) for each of the six units u: one dense image per
    root line gives the images of its six roots, read from a table of unit
    multiples.  Each image must be a root and each generator a bijection.
    The action is faithful: an element fixing every root fixes their span,
    and it fixes their orthogonal complement because every generator must
    (as triflections do).  When the roots span the lattice, as for every
    named lattice, the complement is zero and this check is vacuous.
    """
    from .invariants import permutation_group_order

    if not zroots:
        raise ValueError("lattice has no roots")

    def act(z, v):
        return tuple([sum(map(mul, row, v)) for row in z])

    def units(v):  # v, omega v, omega^2 v and their negatives
        out = [v]  # omega (a + b w) = -b + (a - b) w
        for _ in range(2):
            v = tuple(x for a, b in zip(v[::2], v[1::2]) for x in (-b, a - b))
            out.append(v)
        return out + [tuple(-x for x in u) for u in out]

    # the roots' complement in the integral form is the hermitian one: a unit
    # multiple u r of a root is a root, and Re<u r, x> = 0 for u = 1, omega
    perp = [tuple(v) for v in nullspace([act(zl.gram, r) for r in zroots])]
    zmats = [z_matrix(m) for m in gens]
    if any(act(z, x) != x for z in zmats for x in perp):
        raise AssertionError("a generator moves the orthogonal complement of the roots, "
                             "so the action on the roots is not certified faithful")
    index = {v: i for i, v in enumerate(zroots)}
    multiples = [[index[u] for u in units(v)] for v in zroots]
    lines = [m for i, m in enumerate(multiples) if min(m) == i]
    perms = []
    for z in zmats:
        perm = [None] * len(zroots)
        for line in lines:
            image = index.get(act(z, zroots[line[0]]))
            if image is None:
                break  # not a root: the line's entries stay None
            for i, j in zip(line, multiples[image]):
                perm[i] = j
        if None in perm or len(set(perm)) != len(perm):
            raise AssertionError("a generator does not permute the roots")
        perms.append(tuple(perm))
    return permutation_group_order(perms)


def weyl_group(lat: EisLattice) -> FiniteMatrixGroup:
    """Group generated by all triflections of a definite Eisenstein lattice.

    Its order is certified by Schreier-Sims on the roots its triflections
    come from (`_root_action_order`); its elements are not listed.
    """
    from .invariants import FiniteMatrixGroup

    zl = z_form(lat)
    zroots = enumerate_roots(zl)
    trifl = _triflections(lat, [eis_vector_from_z(v) for v in zroots])
    return FiniteMatrixGroup("E", lat.rank, tuple(trifl),
                             _root_action_order(zl, zroots, trifl), lat.gram)
