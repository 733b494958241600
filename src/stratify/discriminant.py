"""Discriminant forms, divisibility and overlattices of integral lattices.

The discriminant group of an even lattice L is L^dual / L with its Q/2Z
quadratic form; its invariant factors come from the Smith normal form of the
Gram matrix, and its generators are the columns of Smith's V over the
invariant factors, so no inverse is taken.  Overlattices glued along
isotropic vectors of the dual read their basis off the same Smith form,
applied to their generators.  The cusp check verifies the norm-3,
divisibility-3 vector of the glued model of the paper's Eisenstein cusp
lattice; the norm of its divisibility ideal, an index in Z[omega] = Z^2,
is read off the Smith form too, so Z[omega] needs no Euclidean division.
Overlattice Grams and q values are computed in integers; `Fraction`s are
built only for the returned generators, bases and q values.

At load this module imports only `_pure`.  The functions that build a
Z-lattice or enumerate short vectors import `weyl` when they run, and the
cusp check imports `eisenstein` for its lattices, `_exact` for G v and `z_matrix`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from . import _pure

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
    a = [list(row) for row in mat]
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


def discriminant_form(zl: ZLattice) -> DiscriminantGroup:
    """Discriminant group with its Q/2Z quadratic form on chosen generators."""
    g = [list(r) for r in zl.gram]
    d, _, v = smith_normal_form(g)
    n = zl.rank
    dets = [d[i][i] for i in range(n)]
    if any(x == 0 for x in dets):
        raise ValueError("degenerate gram")
    if math.prod(abs(x) for x in dets) != abs(zl.det()):
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

    The basis is the nonzero rows of U R, U R V = D the Smith form of the
    generators R = [denom I ; denom * glue].  It is not canonical: the Gram,
    basis and q values are fixed only up to a change of basis, the index,
    evenness and invariant factors are not.
    """
    from .weyl import ZLattice

    glue = [tuple(Fraction(x) for x in g) for g in glue]
    n = zl.rank
    if any(len(g) != n for g in glue):
        raise ValueError(f"glue vector length differs from the lattice rank {n}")
    gram = zl.gram
    if not glue:
        return GlueResult(zl, 1, discriminant_form(zl),
                          tuple(tuple(Fraction(int(i == j)) for j in range(n))
                                for i in range(n)))
    # each glue vector scaled once to integers, h = denom * g
    scaled, denom = _pure.scaled_integers(glue)
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
    # U R = D V^-1: its first n rows, d_i times the rows of V^-1, are a basis
    # of R's row lattice and the others vanish.  The glue basis reads Smith's U.
    rows = [[denom * int(i == j) for j in range(n)] for i in range(n)] + scaled
    _, u, _ = smith_normal_form(rows)
    basis = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rows)] for row in u[:n]]
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
    from .weyl import enumerate_vectors

    for v in enumerate_vectors(zl, norm):
        if divisibility(v, zl) == div:
            return v
    return None


def glue_diagonal(zl: ZLattice, copies: int) -> GlueResult:
    """The overlattice of ``copies`` orthogonal copies of ``zl`` glued along
    one third of the diagonal class of a norm -12, divisibility-3 vector z:
    the glue vector is (z/3, ..., z/3).  Raises ValueError when ``zl`` has
    no such vector."""
    from .weyl import ZLattice

    n = zl.rank
    z = find_norm_div_vector(zl, -12, 3)
    if z is None:
        raise ValueError("no norm -12 divisibility-3 vector found")
    big = [[0] * (n * copies) for _ in range(n * copies)]
    for c in range(copies):
        for i in range(n):
            for j in range(n):
                big[c * n + i][c * n + j] = zl.gram[i][j]
    biglat = ZLattice(n * copies, tuple(tuple(r) for r in big))
    g = [Fraction(x, 3) for _ in range(copies) for x in z]
    return glue_overlattice(biglat, [g])


# ---------------------------------------------------------------------------
# cusp verification: a norm-3, divisibility-3 vector in the glued model
# ---------------------------------------------------------------------------


class CuspVectorReport(_pure.Record):
    ok: bool
    norm: int
    div_norm: int
    message: str = ""


def _ideal_norm(elements) -> int:
    """The norm of the ideal of Z[omega] that ``elements`` (with int parts)
    generate: its index in Z[omega] = Z^2, the Z-span of each e and omega e,
    the columns of `_exact.z_matrix` ([[e]]).  That is d_1 d_2 of their Smith
    form; 0 for the zero ideal."""
    from ._exact import z_matrix

    if not elements:
        return 0
    d = smith_normal_form([r for e in elements for r in zip(*z_matrix([[e]]))])[0]
    return d[0][0] * d[1][1]


def verify_unimodular_complement_vector() -> CuspVectorReport:
    """Verify the explicit norm-3, divisibility-3 vector in the glued model.

    In the overlattice of three copies of the rank-3 lattice glued along the
    diagonal discriminant class, summed with the hyperbolic plane, the vector
    w = (v1 - v2) + theta*u (u of norm -3 in the hyperbolic plane, v_i the
    norm-6 vectors whose theta-multiples generate the discriminant classes)
    must have hermitian norm 3 and Eisenstein divisibility 3: its pairings
    with the glued lattice generate an ideal of norm 9 (`_ideal_norm`).
    """
    from ._exact import EisInt, eis_vector_from_z, mat_mul
    from .eisenstein import E3, E_ZERO, NAMED_LATTICES, OMEGA, THETA, H
    from .weyl import enumerate_vectors, z_form

    def basis_pairings(lat, vec):  # <e_j, vec> for every basis vector e_j: G vec
        return [row[0] for row in mat_mul(lat.gram, [(x,) for x in vec])]

    # find v in E3 with |v|^2 = 6 and every <e_j, v> in theta^2 E = 3E
    for vz in enumerate_vectors(z_form(E3), -4):  # |v|^2 = 6 <-> (v, v) = -4
        v = eis_vector_from_z(vz)
        if all(p.a % 3 == 0 and p.b % 3 == 0 for p in basis_pairings(E3, v)):
            break
    else:
        return CuspVectorReport(False, 0, 0, "no norm-6 vector with the divisibility property")

    big = NAMED_LATTICES["3E3"].direct_sum(H)  # rank 11, v_i in the i-th copy of E3
    # w = (v1 - v2) + theta*u with u = e + omega*f of norm -3 in the hyperbolic summand
    w = [*v, *(-x for x in v), E_ZERO, E_ZERO, E_ZERO, THETA, THETA * OMEGA]
    nw = big.pair(w, w)
    if nw != 3:
        return CuspVectorReport(False, int(nw.a), 0, "candidate vector does not have norm 3")

    # the glued lattice is spanned by the standard basis and the glue z/3,
    # z_i = -theta (v1 + v2 + v3)_i
    p = big.pair([-THETA * x / 3 for x in v] * 3 + [E_ZERO, E_ZERO], w)
    if p.a.denominator != 1 or p.b.denominator != 1:
        return CuspVectorReport(False, 3, 0, "pairing with the glued lattice is not integral")
    norm = _ideal_norm(basis_pairings(big, w) + [EisInt(int(p.a), int(p.b))])
    return CuspVectorReport(norm == 9, 3, norm,
                            "" if norm == 9 else f"divisibility ideal has norm {norm}")
