"""Hermitian lattices over the Eisenstein integers and their integral forms.

Conventions: omega is a primitive cube root of unity (omega^2 = -1 - omega),
theta = omega - omega^2 with theta * conj(theta) = 3.  Hermitian forms are
linear in the second slot, take values in theta * E, and have diagonal in 3Z.
The underlying integral form is (x, y) = -(2/3) Re<x, y> on the basis
e_1, omega e_1, e_2, omega e_2, ...

Eisenstein numbers are `EisInt` and determinants come from
`stratify._exact`; this module keeps what is particular to lattices: short
vectors by Fincke-Pohst enumeration on the fraction-free LDL^T of
`_pure._extend_ldl`, triflection groups, Smith normal form, discriminant
forms, Hermite-normal-form overlattices and boundary divisors.  Short
vectors, overlattice Grams and discriminant q values are computed in
integers.

At load this module imports only `_pure` and `_exact`: the roots, Z-forms
and discriminant forms need nothing more.  The Weyl groups and boundary
divisors import `invariants` (groups, quotients) and `series` (Betti tables)
when they run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import _pure
from ._exact import UNITS, EisInt, det, eis, eis_matrix, identity, mat_mul, nullspace

E_ZERO = EisInt(0, 0)
E_ONE = EisInt(1, 0)
OMEGA = EisInt(0, 1)
THETA = EisInt(1, 2)  # omega - omega^2


def eis_gcd(x: EisInt, y: EisInt) -> EisInt:
    """Euclidean gcd in Z[omega] (defined up to units)."""
    while not y.is_zero():
        _, r = x.divmod_nearest(y)
        x, y = y, r
    return x


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


class EisLattice(_pure.Record):
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


def eis_lattice(gram_entries) -> EisLattice:
    gram = eis_matrix(gram_entries)
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
            corr = (one_minus_omega * r[i] * rho[j]).exact_div(EisInt(3, 0))
            row.append((E_ONE if i == j else E_ZERO) - corr)
        mat.append(tuple(row))
    return tuple(mat)


def triflections(lat: EisLattice) -> list:
    """All distinct triflections of a definite lattice, in the order of the
    first root giving each (`eisenstein_roots`).

    The six unit multiples of a root give the same triflection, so a root on
    the line of one already used is skipped.  Every triflection is checked
    to have order 3 and preserve the form.
    """
    from .invariants import is_unitary

    ident = identity(lat.rank)
    found = []
    seen = set()
    lines = set()
    for r in eisenstein_roots(lat):
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
    and the order is that of this permutation group, from
    `permutation_group_order` (Schreier-Sims).  The action is faithful: an
    element fixing every root fixes their span, and it fixes their orthogonal
    complement because every generator must (as triflections do).  When the
    roots span the lattice, as for every named lattice, the complement is
    zero and this check is vacuous.
    """
    from .invariants import permutation_group_order

    k = lat.rank
    zroots = enumerate_roots(z_form(lat))
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

    Its order is certified by Schreier-Sims on the roots
    (`isometry_group_order`); its elements are not listed.
    """
    from .invariants import FiniteMatrixGroup

    trifl = triflections(lat)
    return FiniteMatrixGroup("E", lat.rank, (), tuple(trifl), form=lat.gram,
                             order=isometry_group_order(lat, trifl))


# ---------------------------------------------------------------------------
# discriminant forms, divisibility, overlattices
# ---------------------------------------------------------------------------


# Smith normal form refuses a working entry of more than
# MAX_SMITH_GROWTH * log2(H^2) + 64 bits, H the input's Hadamard bound.
MAX_SMITH_GROWTH = 256


def smith_normal_form(mat):
    """Smith normal form over Z: returns (D, U, V) with U*A*V = D.

    Every minor of A, hence every invariant factor, is at most the Hadamard
    bound H, H^2 = the product of the squared row norms.  Elimination without
    modular reduction can still grow its entries exponentially on dense
    input, so an entry of A, U or V past `MAX_SMITH_GROWTH` times the bits
    of H^2 raises ResourceCapError.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0])
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]
    h2_bits = math.prod(max(1, sum(x * x for x in row)) for row in a).bit_length()
    limit = MAX_SMITH_GROWTH * h2_bits + 64

    def check_growth():
        if max(abs(x) for w in (a, u, v) for row in w for x in row).bit_length() > limit:
            raise _pure.ResourceCapError(
                f"Smith normal form entries passed {limit} bits "
                f"(Hadamard bound of the input: {(h2_bits + 1) // 2} bits)"
            )

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
        check_growth()
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
            check_growth()
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


class DiscriminantGroup(_pure.Record):
    invariant_factors: tuple
    q_values: tuple
    generators: tuple = ()
    _not_in_repr = ("generators",)

    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out


def discriminant_form(zl: ZLattice) -> DiscriminantGroup:
    """Discriminant group with its Q/2Z quadratic form on chosen generators."""
    g = [list(r) for r in zl.gram]
    d, _, v = smith_normal_form(g)
    n = zl.rank
    dets = [d[i][i] for i in range(n)]
    if any(x == 0 for x in dets):
        raise ValueError("degenerate gram")
    prod = 1
    for x in dets:
        prod *= abs(x)
    if prod != abs(zl.det()):
        raise AssertionError("invariant factor product must match |det|")
    # U G V = D gives G^-1 U^-1 = V D^-1: the generator dual to column t of
    # U^-1 is column t of V over d_t
    factors = []
    qvals = []
    gens = []
    for t in range(n):
        dt = dets[t]
        if abs(dt) == 1:
            continue
        factors.append(abs(dt))
        col = [v[i][t] for i in range(n)]
        num = sum(col[i] * zl.gram[i][j] * col[j] for i in range(n) for j in range(n))
        qvals.append(Fraction(num % (2 * dt * dt), dt * dt))
        gens.append(tuple(Fraction(c, dt) for c in col))
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


class GlueResult(_pure.Record):
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
    if any(len(g) != n for g in glue):
        raise ValueError(f"glue vector length differs from the lattice rank {n}")
    gram = zl.gram
    if not glue:
        return GlueResult(zl, 1, discriminant_form(zl),
                          tuple(tuple(Fraction(int(i == j)) for j in range(n))
                                for i in range(n)))
    denom = 1
    for g in glue:
        for x in g:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    # each glue vector scaled once to integers, h = denom * g
    scaled = [[x.numerator * (denom // x.denominator) for x in g] for g in glue]
    gh = [[sum(gram[i][j] * h[j] for j in range(n)) for i in range(n)] for h in scaled]
    d2 = denom * denom
    for h, pairings in zip(scaled, gh):
        if any(p % denom for p in pairings):
            raise ValueError("glue vector is not in the dual lattice")
        q = sum(h[i] * pairings[i] for i in range(n))
        if q % (2 * d2):
            raise ValueError(f"glue vector is not isotropic: q = {Fraction(q, d2)} mod 2Z")
    for (h1, _), (_, p2) in combinations(zip(scaled, gh), 2):
        if sum(h1[i] * p2[i] for i in range(n)) % d2:
            raise ValueError("glue vectors do not pair integrally")
    rows = [[denom * int(i == j) for j in range(n)] for i in range(n)] + scaled
    basis = _hnf_rows(rows)
    bg = [[sum(row[i] * gram[i][j] for i in range(n)) for j in range(n)] for row in basis]
    new_gram = [[sum(x * y for x, y in zip(r, s)) for s in basis] for r in bg]
    if any(x % d2 for row in new_gram for x in row):
        raise AssertionError("overlattice gram is not integral")
    new = ZLattice(n, tuple(tuple(x // d2 for x in row) for row in new_gram))
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
                      tuple(tuple(Fraction(x, denom) for x in row) for row in basis))


def find_norm_div_vector(zl: ZLattice, norm: int, div: int):
    """Search for a vector of the given square and divisibility; None if absent."""
    for v in enumerate_vectors(zl, norm):
        if divisibility(v, zl) == div:
            return v
    return None


# ---------------------------------------------------------------------------
# cusp verification: a norm-3, divisibility-3 vector in the glued model
# ---------------------------------------------------------------------------


class CuspVectorReport(_pure.Record):
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
    if nw != 3:
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
    from .invariants import (
        abelian_quotient_betti,
        check_quotient_rank,
        check_wreath_count,
        wreath_symmetrize,
    )
    from .series import BettiTable

    lattices = []
    for factor in spec["factors"]:
        lat = factor["lattice"]
        lattices.append(named_lattice(lat) if isinstance(lat, str) else lat)
        check_quotient_rank(lattices[-1].rank)
        check_wreath_count(factor.get("count", 1))
    table = None
    for factor, lat in zip(spec["factors"], lattices):
        group_spec = factor.get("group", "weyl")
        if group_spec == "weyl":
            gens = triflections(lat)
        else:
            gens = group_spec["generators"]
        part = abelian_quotient_betti(gens, lat.rank, form=lat.gram)
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
