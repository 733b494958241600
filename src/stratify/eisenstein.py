"""Hermitian lattices over the Eisenstein integers and their integral forms.

Conventions: omega is a primitive cube root of unity (omega^2 = -1 - omega),
theta = omega - omega^2 with theta * conj(theta) = 3.  Hermitian forms are
linear in the second slot, take values in theta * E, and have diagonal in 3Z.
The underlying integral form is (x, y) = -(2/3) Re<x, y> on the basis
e_1, omega e_1, e_2, omega e_2, ...

Eisenstein numbers are `EisInt` and determinants and inverses come from
`stratify._exact`; this module keeps what is particular to lattices: short
vectors by LDL completion of squares, triflection groups, Smith normal form,
discriminant forms, Hermite-normal-form overlattices and boundary divisors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import _backend
from ._exact import EisInt, det, eis, flatten_eis_matrix, inverse, unflatten_eis_matrix
from .invariants import (
    DEFAULT_CAP,
    FiniteMatrixGroup,
    abelian_quotient_betti,
    close_group,
    is_unitary,
    wreath_symmetrize,
)
from .series import BettiTable

E_ZERO = EisInt(0, 0)
E_ONE = EisInt(1, 0)
OMEGA = EisInt(0, 1)
THETA = EisInt(1, 2)  # omega - omega^2
UNITS = (
    EisInt(1, 0), EisInt(-1, 0), EisInt(0, 1),
    EisInt(0, -1), EisInt(-1, -1), EisInt(1, 1),
)


def eis_gcd(x: EisInt, y: EisInt) -> EisInt:
    """Euclidean gcd in Z[omega] (defined up to units)."""
    while not y.is_zero():
        _, r = x.divmod_nearest(y)
        x, y = y, r
    return x


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EisLattice:
    """Hermitian Eisenstein lattice with theta-valued Gram matrix."""

    rank: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.rank or any(len(r) != self.rank for r in g):
            raise ValueError("gram size mismatch")
        for i in range(self.rank):
            d = g[i][i]
            if not d.is_real() or d.a % 3 != 0:
                raise ValueError("diagonal entries must be integers divisible by 3")
            for j in range(self.rank):
                if g[j][i] != g[i][j].conj():
                    raise ValueError("gram must be conjugate-symmetric")
                # theta-valued: entry * theta-conjugate divisible by 3
                if (g[i][j] * THETA.conj()).a % 3 or (g[i][j] * THETA.conj()).b % 3:
                    raise ValueError("entries must lie in theta * E")

    def pair(self, x, y) -> EisInt:
        """Hermitian pairing, linear in the second slot."""
        s = E_ZERO
        for i in range(self.rank):
            ci = x[i].conj()
            for j in range(self.rank):
                s = s + ci * self.gram[i][j] * y[j]
        return s

    def det(self) -> EisInt:
        return det(self.gram)

    def direct_sum(self, other: "EisLattice") -> "EisLattice":
        r = self.rank + other.rank
        g = [[E_ZERO] * r for _ in range(r)]
        for i in range(self.rank):
            for j in range(self.rank):
                g[i][j] = self.gram[i][j]
        for i in range(other.rank):
            for j in range(other.rank):
                g[self.rank + i][self.rank + j] = other.gram[i][j]
        return EisLattice(r, tuple(tuple(row) for row in g))

    def flat_gram(self) -> tuple:
        flat = []
        for row in self.gram:
            for e in row:
                flat.extend((e.a, e.b))
        return tuple(flat)


def eis_lattice(gram_entries) -> EisLattice:
    gram = tuple(tuple(eis(e) for e in row) for row in gram_entries)
    return EisLattice(len(gram), gram)


def _tridiagonal_theta(rank: int) -> EisLattice:
    g = [[E_ZERO] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = EisInt(3, 0)
        if i + 1 < rank:
            g[i][i + 1] = THETA
            g[i + 1][i] = THETA.conj()
    return EisLattice(rank, tuple(tuple(r) for r in g))


E1 = _tridiagonal_theta(1)
E2 = _tridiagonal_theta(2)
E3 = _tridiagonal_theta(3)
E4 = _tridiagonal_theta(4)
H = eis_lattice([[0, [1, 2]], [[-1, -2], 0]])

NAMED_LATTICES = {
    "E1": E1,
    "E2": E2,
    "E3": E3,
    "E4": E4,
    "H": H,
    "3E1": E1.direct_sum(E1).direct_sum(E1),
    "3E3": E3.direct_sum(E3).direct_sum(E3),
    "E1+2E4": E1.direct_sum(E4).direct_sum(E4),
}


def named_lattice(name: str) -> EisLattice:
    try:
        return NAMED_LATTICES[name]
    except KeyError:
        raise KeyError(
            f"unknown lattice {name!r}; known: {sorted(NAMED_LATTICES)}"
        ) from None


@dataclass(frozen=True)
class ZLattice:
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


def _ldl(gram):
    """Symmetric decomposition Q = L^T D L for rational Q; returns (d, l)."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] == 0:
            raise ValueError("degenerate form")
        l[i][i] = Fraction(1)
        for j in range(i + 1, n):
            l[i][j] = q[i][j] / d[i]
        for j in range(i + 1, n):
            for t in range(j, n):
                q[j][t] -= l[i][j] * l[i][t] * d[i]
                q[t][j] = q[j][t]
    return d, l


def _int_interval(center: Fraction, radius2: Fraction):
    """Integers x with (x - center)^2 <= radius2, exactly."""
    if radius2 < 0:
        return range(0)
    s = math.isqrt(int(radius2 * center.denominator**2)) + 2
    lo = math.floor(center) - s
    hi = math.ceil(center) + s
    while lo <= hi and (Fraction(lo) - center) ** 2 > radius2:
        lo += 1
    while hi >= lo and (Fraction(hi) - center) ** 2 > radius2:
        hi -= 1
    return range(lo, hi + 1)


def enumerate_vectors(zl: ZLattice, value: int) -> list:
    """All integer vectors with (v, v) equal to ``value`` in a definite lattice.

    Exact bounded enumeration via rational LDL completion of squares; raises
    on an indefinite or degenerate form.
    """
    n = zl.rank
    probe = _ldl(zl.gram)[0]
    if all(x > 0 for x in probe):
        q = zl.gram
        target = value
    elif all(x < 0 for x in probe):
        q = tuple(tuple(-x for x in row) for row in zl.gram)
        target = -value
    else:
        raise ValueError("lattice is indefinite")
    if target < 0:
        return []
    d, l = _ldl(q)

    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        center = -sum(l[i][j] * x[j] for j in range(i + 1, n))
        for xi in _int_interval(center, remaining / d[i]):
            x[i] = xi
            contrib = d[i] * (Fraction(xi) - center) ** 2
            rec(i - 1, remaining - contrib)
        x[i] = 0

    rec(n - 1, Fraction(target))
    out = [v for v in out if any(v)] if value != 0 else out
    return sorted(out)


def enumerate_roots(zl: ZLattice) -> list:
    """Vectors of square -2 (negative definite) or +2 (positive definite)."""
    probe = _ldl(zl.gram)[0]
    if all(x > 0 for x in probe):
        return enumerate_vectors(zl, 2)
    if all(x < 0 for x in probe):
        return enumerate_vectors(zl, -2)
    raise ValueError("lattice is indefinite")


def eisenstein_roots(lat: EisLattice) -> list:
    """Norm-3 vectors of a definite Eisenstein lattice, via the integral form."""
    zl = z_form(lat)
    return [eis_vector_from_z(v, lat.rank) for v in enumerate_roots(zl)]


# ---------------------------------------------------------------------------
# triflections and Weyl groups
# ---------------------------------------------------------------------------


def triflection(lat: EisLattice, root) -> tuple:
    """Matrix of x -> x - (1-omega) (<r, x>/<r, r>) r, acting on columns."""
    r = tuple(eis(c) for c in root)
    rr = lat.pair(r, r)
    if not (rr.is_real() and rr.a == 3):
        raise ValueError("triflections require a norm-3 root")
    k = lat.rank
    # row functional rho_j = sum_l conj(r_l) G[l][j]
    rho = [E_ZERO] * k
    for j in range(k):
        s = E_ZERO
        for ll in range(k):
            s = s + r[ll].conj() * lat.gram[ll][j]
        rho[j] = s
    one_minus_omega = E_ONE - OMEGA
    mat = []
    for i in range(k):
        row = []
        for j in range(k):
            corr = (one_minus_omega * r[i] * rho[j]).exact_div(EisInt(3, 0))
            entry = (E_ONE if i == j else E_ZERO) - corr
            row.append((entry.a, entry.b))
        mat.append(tuple(row))
    return tuple(mat)


def _mat_order_divides_3(flat, k) -> bool:
    m2 = _backend.eis_mul_flat(flat, flat, k)
    m3 = _backend.eis_mul_flat(m2, flat, k)
    return m3 == _backend.eis_identity_flat(k)


def triflections(lat: EisLattice) -> list:
    """All distinct triflections of a definite lattice, as sorted flat matrices.

    Every triflection is checked to have order 3 and preserve the form.
    """
    k = lat.rank
    found = set()
    for r in eisenstein_roots(lat):
        flat = flatten_eis_matrix(triflection(lat, r))
        if flat in found:
            continue
        if not _mat_order_divides_3(flat, k) or flat == _backend.eis_identity_flat(k):
            raise AssertionError("triflection does not have order 3")
        if not is_unitary(unflatten_eis_matrix(flat, k), lat.gram):
            raise AssertionError("triflection does not preserve the form")
        found.add(flat)
    if not found:
        raise ValueError("lattice has no roots")
    return sorted(found)


_WEYL_CACHE: dict = {}


def weyl_group(lat: EisLattice, cap: int = DEFAULT_CAP,
               cache_dir: str | None = None) -> FiniteMatrixGroup:
    """Group generated by all triflections of a definite Eisenstein lattice.

    The closure runs over a greedily chosen generating subset of
    `triflections`; membership of every triflection in the result certifies
    that the full triflection group was obtained.  Results are memoized
    in-process (the construction is pure).
    """
    cache_key = (lat.flat_gram(), cap)
    cached = _WEYL_CACHE.get(cache_key)
    if cached is not None:
        return cached
    k = lat.rank
    trifl = triflections(lat)
    gens: list = []
    elements = None
    element_set: set = set()
    for t in trifl:
        if elements is None or t not in element_set:
            gens.append(t)
            grp = close_group(
                [unflatten_eis_matrix(g, k) for g in gens], cap=cap, cache_dir=cache_dir
            )
            elements = grp.elements
            element_set = set(elements)
    assert all(t in element_set for t in trifl)
    group = FiniteMatrixGroup("E", k, tuple(elements), tuple(trifl),
                              form=lat.flat_gram())
    _WEYL_CACHE[cache_key] = group
    return group


# ---------------------------------------------------------------------------
# discriminant forms, divisibility, overlattices
# ---------------------------------------------------------------------------


def smith_normal_form(mat):
    """Smith normal form over Z: returns (D, U, V) with U*A*V = D."""
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0])
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i1, i2, c):  # row i1 += c * row i2
        for j in range(m):
            a[i1][j] += c * a[i2][j]
        for j in range(n):
            u[i1][j] += c * u[i2][j]

    def col_op(j1, j2, c):  # col j1 += c * col j2
        for i in range(n):
            a[i][j1] += c * a[i][j2]
        for i in range(m):
            v[i][j1] += c * v[i][j2]

    def row_swap(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def col_swap(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] % a[t][t] != 0:
                    row_op(i, t, -(a[i][t] // a[t][t]))
                    row_swap(t, i)
                    dirty = True
                elif a[i][t] != 0:
                    row_op(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, m):
                if a[t][j] % a[t][t] != 0:
                    col_op(j, t, -(a[t][j] // a[t][t]))
                    col_swap(t, j)
                    dirty = True
                elif a[t][j] != 0:
                    col_op(j, t, -(a[t][j] // a[t][t]))
        # divisibility chain: a[t][t] must divide everything below-right
        fixed = False
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            row_op(t, t, -2)  # negate row via row_op: r_t += -2 r_t
        t += 1
    return a, u, v


@dataclass(frozen=True)
class DiscriminantGroup:
    invariant_factors: tuple
    q_values: tuple
    generators: tuple = field(repr=False, default=())

    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out


def discriminant_form(zl: ZLattice) -> DiscriminantGroup:
    """Discriminant group with its Q/2Z quadratic form on chosen generators."""
    g = [list(r) for r in zl.gram]
    d, u, _ = smith_normal_form(g)
    n = zl.rank
    dets = [d[i][i] for i in range(n)]
    if any(x == 0 for x in dets):
        raise ValueError("degenerate gram")
    prod = 1
    for x in dets:
        prod *= abs(x)
    if prod != abs(zl.det()):
        raise AssertionError("invariant factor product must match |det|")
    uinv = inverse(u)
    ginv = inverse(zl.gram)
    factors = []
    qvals = []
    gens = []
    for t in range(n):
        dt = abs(dets[t])
        if dt == 1:
            continue
        factors.append(dt)
        # generator in dual coords is column t of U^-1; e-basis coords G^-1 y
        y = [uinv[i][t] for i in range(n)]
        w = [
            sum(ginv[i][j] * y[j] for j in range(n))
            for i in range(n)
        ]
        q = sum(
            w[i] * zl.gram[i][j] * w[j] for i in range(n) for j in range(n)
        ) % 2
        qvals.append(q)
        gens.append(tuple(w))
    return DiscriminantGroup(tuple(factors), tuple(qvals), tuple(gens))


def divisibility(v, zl: ZLattice) -> int:
    """Positive generator of the pairing ideal (v, L) in Z."""
    if all(x == 0 for x in v):
        raise ValueError("divisibility of the zero vector is undefined")
    vals = [
        abs(sum(zl.gram[i][j] * v[j] for j in range(zl.rank)))
        for i in range(zl.rank)
    ]
    return math.gcd(*vals)


def _hnf_rows(rows):
    """Row Hermite normal form of an integer matrix of full column rank."""
    rows = [list(r) for r in rows]
    m = len(rows[0])
    basis = []
    col = 0
    while col < m and rows:
        nz = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not nz:
            raise ValueError("generators do not have full rank")
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            out = [piv]
            for r in nz[1:]:
                q = r[col] // piv[col]
                r2 = [x - q * y for x, y in zip(r, piv)]
                if r2[col] != 0:
                    out.append(r2)
                elif any(r2):
                    rest.append(r2)
            nz = out
        piv = nz[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rows = rest
        col += 1
    if len(basis) != m:
        raise ValueError("generators do not have full rank")
    # reduce above-pivot entries for a canonical basis
    for i in range(m - 1, -1, -1):
        for t in range(i):
            q = basis[t][i] // basis[i][i]
            if q:
                basis[t] = [x - q * y for x, y in zip(basis[t], basis[i])]
    return basis


@dataclass(frozen=True)
class GlueResult:
    lattice: ZLattice
    index: int
    disc: DiscriminantGroup
    basis: tuple  # rows, rational coordinates in the original basis


def glue_overlattice(zl: ZLattice, glue) -> GlueResult:
    """Even overlattice generated by isotropic glue vectors in the dual.

    Glue vectors are rational vectors in the original basis; each must pair
    integrally with the lattice and with the others, and have even square
    (isotropic image in the discriminant).  Raises otherwise.
    """
    glue = [tuple(Fraction(x) for x in g) for g in glue]
    n = zl.rank
    for g in glue:
        pairings = [
            sum(zl.gram[i][j] * g[j] for j in range(n)) for i in range(n)
        ]
        if any(p.denominator != 1 for p in pairings):
            raise ValueError("glue vector is not in the dual lattice")
        q = sum(g[i] * zl.gram[i][j] * g[j] for i in range(n) for j in range(n))
        if q.denominator != 1 or int(q) % 2 != 0:
            raise ValueError(f"glue vector is not isotropic: q = {q} mod 2Z")
    for g1, g2 in combinations(glue, 2):
        p = sum(g1[i] * zl.gram[i][j] * g2[j] for i in range(n) for j in range(n))
        if p.denominator != 1:
            raise ValueError("glue vectors do not pair integrally")
    if not glue:
        return GlueResult(zl, 1, discriminant_form(zl),
                          tuple(tuple(Fraction(int(i == j)) for j in range(n))
                                for i in range(n)))
    denom = 1
    for g in glue:
        for x in g:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    rows = []
    for i in range(n):
        rows.append([denom * int(i == j) for j in range(n)])
    for g in glue:
        rows.append([int(x * denom) for x in g])
    basis = _hnf_rows(rows)
    bq = [[Fraction(x, denom) for x in row] for row in basis]
    gram = [
        [
            sum(bq[r][i] * zl.gram[i][j] * bq[s][j] for i in range(n) for j in range(n))
            for s in range(n)
        ]
        for r in range(n)
    ]
    if any(x.denominator != 1 for row in gram for x in row):
        raise AssertionError("overlattice gram is not integral")
    new = ZLattice(n, tuple(tuple(int(x) for x in row) for row in gram))
    if not new.is_even():
        raise ValueError("glue produces a non-even lattice")
    det_old = abs(zl.det())
    det_new = abs(new.det())
    index2, rem = divmod(det_old, det_new)
    if rem:
        raise AssertionError("determinant ratio is not integral")
    index = math.isqrt(index2)
    if index * index != index2:
        raise AssertionError("determinant ratio is not a perfect square")
    return GlueResult(new, index, discriminant_form(new),
                      tuple(tuple(r) for r in bq))


def find_norm_div_vector(zl: ZLattice, norm: int, div: int):
    """Search for a vector of the given square and divisibility; None if absent."""
    for v in enumerate_vectors(zl, norm):
        if divisibility(v, zl) == div:
            return v
    return None


# ---------------------------------------------------------------------------
# cusp verification: a norm-3, divisibility-3 vector in the glued model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuspVectorReport:
    ok: bool
    norm: int
    div_norm: int
    message: str = ""


def verify_unimodular_complement_vector() -> CuspVectorReport:
    """Verify the explicit norm-3, divisibility-3 vector in the glued model.

    In the overlattice of three copies of the rank-3 lattice glued along the
    diagonal discriminant class, summed with the hyperbolic plane, the vector
    w = (v1 - v2) + theta*u (u of norm -3 in the hyperbolic plane, v_i the
    norm-6 vectors whose theta-multiples generate the discriminant classes)
    must have hermitian norm 3 and Eisenstein divisibility 3.
    """
    # find v in E3 with |v|^2 = 6 whose theta-multiple has Z-divisibility 3
    zl3 = z_form(E3)
    v_sought = None
    for vz in enumerate_vectors(zl3, -4):  # |v|^2 = 6 <-> (v, v) = -4
        v = eis_vector_from_z(vz, 3)
        ok = True
        for j in range(3):
            basis = [E_ZERO] * 3
            basis[j] = E_ONE
            c = E3.pair(basis, v).exact_div(THETA)
            if (c.a + c.b) % 3 != 0:
                ok = False
                break
        if ok:
            v_sought = v
            break
    if v_sought is None:
        return CuspVectorReport(False, 0, 0, "no norm-6 vector with the divisibility property")

    big = NAMED_LATTICES["3E3"].direct_sum(H)  # rank 11
    rank = big.rank

    def embed(vec3, copy):
        out = [E_ZERO] * rank
        out[3 * copy:3 * copy + 3] = vec3
        return out

    v1 = embed(v_sought, 0)
    v2 = embed(v_sought, 1)
    v3 = embed(v_sought, 2)
    # w = (v1 - v2) + theta*u with u = e + omega*f of norm -3 in the hyperbolic summand
    w = [a - b for a, b in zip(v1, v2)]
    w[9] = THETA * E_ONE
    w[10] = THETA * OMEGA

    nw = big.pair(w, w)
    if not (nw.is_real() and nw.a == 3):
        return CuspVectorReport(False, int(nw.a), 0, "candidate vector does not have norm 3")

    # spanning set of the glued-plus-hyperbolic lattice: standard basis + glue
    gens = []
    for i in range(rank):
        e = [E_ZERO] * rank
        e[i] = E_ONE
        gens.append(e)
    # glue z/3 with z_i = -theta (v1 + v2 + v3)_i
    gens.append([-THETA * (a + b + c) / 3 for a, b, c in zip(v1, v2, v3)])

    pairings = []
    for x in gens:
        p = big.pair(x, w)
        if p.a.denominator != 1 or p.b.denominator != 1:
            return CuspVectorReport(False, 3, 0, "pairing with the glued lattice is not integral")
        pairings.append(EisInt(int(p.a), int(p.b)))
    g = E_ZERO
    for p in pairings:
        g = eis_gcd(g, p)
    return CuspVectorReport(g.norm() == 9, 3, g.norm(),
                            "" if g.norm() == 9 else f"divisibility ideal has norm {g.norm()}")


# ---------------------------------------------------------------------------
# toroidal boundary divisors
# ---------------------------------------------------------------------------


def boundary_betti(spec: dict) -> BettiTable:
    """Betti table of a toroidal boundary divisor from its factor description.

    ``spec`` lists factors, each a lattice acted on by its triflection group
    or by an explicitly generated isometry group, repeated ``count`` times and
    symmetrized; factors and declared projective lines multiply together.
    Each factor's quotient comes from the generators alone, never a closure.
    Declared extra symmetries that act trivially are recorded by the caller
    and do not change the table.
    """
    table = None
    for factor in spec["factors"]:
        lat = factor["lattice"]
        if isinstance(lat, str):
            lat = named_lattice(lat)
        group_spec = factor.get("group", "weyl")
        if group_spec == "weyl":
            gens = triflections(lat)
        else:
            gens = [flatten_eis_matrix(mat) for mat in group_spec["generators"]]
        part = abelian_quotient_betti(gens, lat.rank, form=lat.flat_gram())
        if any(b != 0 for b in part.odd()):
            raise AssertionError("factor quotient has odd cohomology; cannot symmetrize")
        count = factor.get("count", 1)
        if count > 1:
            part = wreath_symmetrize(part, count)
        table = part if table is None else table.kunneth(part)
    for _ in range(spec.get("extra_projective_lines", 0)):
        p1 = BettiTable.of_projective_space(1)
        table = p1 if table is None else table.kunneth(p1)
    if table is None:
        raise ValueError("boundary spec needs at least one factor")
    return table
