"""Integral forms, roots and triflection (Weyl) groups of Eisenstein lattices.

`z_form` gives the underlying even integral lattice of a hermitian
Eisenstein lattice, (x, y) = -(2/3) Re<x, y> (`_exact.real_form`).  Short
vectors are found by Fincke-Pohst enumeration on `_exact.definite_ldl`, in
integers.  The roots are the vectors of norm 3 (-3 if negative definite); a
triflection fixes the orthogonal complement of a root and multiplies the
root by omega.  A few triflections, whose root orbits cover every root
line, generate the whole group (`generating_triflections`); its order is
certified by deterministic Schreier-Sims on their permutation action on the
roots (`invariants.permutation_group_order`), without listing elements.

At load this module imports `_pure`, `_exact` and `eisenstein` (the unit
constants): every call reaches it from an Eisenstein lattice, so
`eisenstein` is loaded already.  The group record and Schreier-Sims come
from `invariants` when they are used.
"""

from __future__ import annotations

import math
from operator import mul

from . import _pure
from ._exact import (EisInt, definite_ldl, det, eis, eis_vector_from_z, mat_mul, real_form,
                     z_matrix)
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


def generating_triflections(lat: EisLattice) -> tuple:
    """Triflections that generate the Weyl group of a definite lattice, and
    each one's permutation of the roots (`enumerate_roots` order).

    The roots are enumerated once and grouped into lines: the six unit
    multiples of a root give the same triflection.  The lines are walked in
    order.  A line that no kept triflection has reached gives the next one,
    and a breadth-first search under the kept permutations extends the
    reached roots.  For an isometry h, h t_r h^-1 = t_(h r), so once the
    kept triflections' orbits cover every line, every triflection is
    conjugate to a kept one inside the group they generate: they generate
    the Weyl group.  The walk keeps 1, 2, 3 and 4 for E1 to E4, 3 for 3E1,
    and 9 of 3E3's 36 and of E1+2E4's 81.

    A triflection is Z[omega]-linear, so it maps u v to u t(v) for each of
    the six units u: one dense image per root line, through its
    `_exact.z_matrix`, gives the images of the line's six roots, read from a
    table of unit multiples.  Each image must be a root.  A triflection has
    order 3 and preserves the form by construction; where its matrix is
    used, for an abelian quotient, `invariants.abelian_quotient_betti`
    certifies that it is unitary.
    """
    zroots = enumerate_roots(z_form(lat))
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

    index = {v: i for i, v in enumerate(zroots)}
    multiples = [[index[u] for u in units(v)] for v in zroots]
    lines = [m for i, m in enumerate(multiples) if min(m) == i]
    mats, perms, reached = [], [], set()
    for line in lines:
        if line[0] in reached:  # the reached roots are orbits, unions of lines
            continue
        mats.append(triflection(lat, eis_vector_from_z(zroots[line[0]])))
        z = z_matrix(mats[-1])
        perm = [0] * len(zroots)
        for other in lines:
            image = index.get(act(z, zroots[other[0]]))
            if image is None:
                raise AssertionError("a generator does not permute the roots")
            for i, j in zip(other, multiples[image]):
                perm[i] = j
        perms.append(tuple(perm))
        frontier = [*line, *reached]  # the search visits what it appends
        reached.update(line)
        for x in frontier:
            for p in perms:
                if p[x] not in reached:
                    reached.add(p[x])
                    frontier.append(p[x])
    return tuple(mats), perms


def weyl_group(lat: EisLattice) -> FiniteMatrixGroup:
    """Group generated by all triflections of a definite Eisenstein lattice,
    carried by the few that `generating_triflections` keeps.

    Its order is certified by Schreier-Sims on their permutations of the
    roots (`invariants.permutation_group_order`); its elements are not
    listed.  The action is faithful: an element fixing every root fixes
    their span, and every triflection fixes the orthogonal complement of its
    own root, so the group fixes the complement of the roots' span.
    """
    from .invariants import FiniteMatrixGroup, permutation_group_order

    mats, perms = generating_triflections(lat)
    return FiniteMatrixGroup("E", lat.rank, mats, permutation_group_order(perms), lat.gram)
