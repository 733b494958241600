"""Exact arithmetic shared by the strata, orbit, group and lattice layers.

One number class, `EisInt`, for a + b*omega (omega^2 = -1 - omega).  With
integer a, b it is an Eisenstein integer; with `Fraction` parts it is an
element of Q(omega).  Parts are never coerced: integer input stays integer,
so Gram entries serialize as plain JSON ints.  An `EisInt` with zero omega
part equals the int or `Fraction` it stands for, and hashes like it.  There
is no Euclidean division: a quotient is exact by `_div`, and the one ideal
question, the norm of the cusp vector's divisibility ideal, is an index in
Z^2 read off a Smith form (`stratify.discriminant`).

One matrix representation: a matrix over Z[omega], Q(omega) or Q is a tuple
of row tuples of `EisInt` (`eis_matrix`), a rational entry q as q + 0*omega,
and `mat_mul` is its one product.

One coordinate map, spelled out only here: Z[omega]^k is Z^2k on e_1,
omega e_1, e_2, ... (`z_matrix`, `eis_vector_from_z`, and `real_form`, the
integer matrix of 2 Re<x, y>).  One definiteness test, `definite_ldl`,
serves the short vectors of `weyl` and the abelian quotients of `invariants`.

One elimination, `echelon` (fraction-free, Bareiss), behind `det`, `rank`,
`nullspace` and `adjugate`, over Z or Q (int or `Fraction` entries) and
Z[omega] or Q(omega) (`EisInt` entries).  Its divisions are exact and go
through `_div`, so integral input stays integral throughout, and `nullspace`
returns primitive integral vectors; no result is ever a float.  `echelon`,
`rank`, `_div` and `rational` (which brings an input value to the same
form, so integral values run in plain integers) live in `stratify._pure`,
so the strata and series layers reach them without loading this module;
callers import them from there.

The closest-point certificate in `strata` (`verify_strata_against_oracle`)
keeps its own integer phase-I simplex so that it stays independent of the
kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._pure import _div, _extend_ldl, echelon


class EisInt:
    """a + b*omega with a, b integers (Z[omega]) or Fractions (Q(omega))."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        o = eis(o)
        return EisInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = eis(o)
        return EisInt(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return EisInt(-self.a, -self.b)

    def __mul__(self, o):
        if not isinstance(o, EisInt):
            return EisInt(self.a * o, self.b * o)
        bd = self.b * o.b
        return EisInt(self.a * o.a - bd, self.a * o.b + self.b * o.a - bd)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, EisInt):
            return EisInt(_div(self.a, o), _div(self.b, o))
        return (self * o.conj()) / o.norm()

    def __rtruediv__(self, o):
        return eis(o) / self

    def __eq__(self, o):
        if isinstance(o, EisInt):
            return self.a == o.a and self.b == o.b
        if isinstance(o, (int, Fraction)):
            return self.b == 0 and self.a == o
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def conj(self):
        return EisInt(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_real(self) -> bool:
        return self.b == 0

    def __repr__(self):
        return f"Eis({self.a},{self.b})"


# the units of Z[omega]: +-1, +-omega, +-omega^2
UNITS = (EisInt(1, 0), EisInt(-1, 0), EisInt(0, 1),
         EisInt(0, -1), EisInt(-1, -1), EisInt(1, 1))


def eis(value) -> EisInt:
    """An `EisInt` from itself, a rational, or an integer pair [a, b]."""
    if isinstance(value, EisInt):
        return value
    if isinstance(value, (int, Fraction)):
        return EisInt(value, 0)
    a, b = value
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"{value!r} is not an integer pair [a, b]")
    return EisInt(a, b)


def eis_matrix(rows) -> tuple:
    """A square matrix of `EisInt` from rows of anything `eis` accepts."""
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("matrix must be square")
    return tuple(tuple(eis(e) for e in row) for row in rows)


def identity(k) -> tuple:
    """The k x k identity matrix of `EisInt`."""
    return tuple(tuple(EisInt(int(i == j), 0) for j in range(k)) for i in range(k))


def mat_mul(x, y) -> tuple:
    """The product of two matrices of `EisInt` (the one Z[omega] matrix
    product), as a tuple of row tuples; the zero entries of ``x`` are skipped."""
    cols = tuple(zip(*y))
    out = []
    for row in x:
        terms = [(j, p.a, p.b) for j, p in enumerate(row) if p.a or p.b]
        new = []
        for col in cols:
            ra = rb = 0
            for j, pa, pb in terms:
                q = col[j]
                bd = pb * q.b
                ra += pa * q.a - bd
                rb += pa * q.b + pb * q.a - bd
            new.append(EisInt(ra, rb))
        out.append(tuple(new))
    return tuple(out)


# ---------------------------------------------------------------------------
# linear algebra over Z, Q, Z[omega] or Q(omega), all by `echelon`
# ---------------------------------------------------------------------------


def det(mat):
    """Determinant: the sign of the row swaps times the last pivot of
    `echelon`.  A singular matrix gives the zero of its entry type."""
    _, rows, sign = echelon(mat)
    return sign * rows[-1][-1] if rows else 1  # the last pivot, or zero


def _back_substitute(pivots, rows, value, free_columns):
    """Per free column, the x with ``rows`` x = 0 (an `echelon` form), x =
    ``value`` there and 0 at the other non-pivot columns.  With ``value`` a
    multiple of the last pivot, x is integral (Cramer): every division is exact."""
    zero = 0 * value
    steps = [(col, row[col], [(j, u) for j, u in enumerate(row) if j > col and u])
             for row, col in reversed(list(zip(rows, pivots)))]
    for free in free_columns:
        x = [zero] * len(rows[0])
        x[free] = value
        for col, p, tail in steps:
            acc = sum([u * x[j] for j, u in tail if x[j]], zero)
            if acc:
                x[col] = _div(-acc, p)
        yield x


def _primitive(v) -> list:
    """``v`` over the content of its parts (the a and b of every entry): an
    integral vector whose parts are coprime."""
    parts = [x for e in v for x in ((e.a, e.b) if isinstance(e, EisInt) else (e,))]
    den = lcm(*(x.denominator for x in parts))
    num = gcd(*(x.numerator for x in parts))
    return [EisInt(e.a * den // num, e.b * den // num) if isinstance(e, EisInt)
            else e * den // num for e in v]


def nullspace(rows) -> list:
    """Basis of {x : rows x = 0}, one vector per free column of `echelon`,
    each primitive (`_primitive`): integral, no `Fraction` parts."""
    pivots, ech, _ = echelon(rows)
    free = sorted(set(range(len(ech[0]))) - set(pivots))
    d = ech[len(pivots) - 1][pivots[-1]] if pivots else 0 * ech[0][0] + 1
    return [_primitive(v) for v in _back_substitute(pivots, ech, d, free)]


def adjugate(mat) -> tuple:
    """``(det, adj)`` with adj * mat = mat * adj = det * I; raises ValueError
    when singular.  Column c of adj, then -det e_c, is the kernel vector of
    [mat | I] that is -det at column n + c, since mat adj = det I."""
    n = len(mat)
    pivots, rows, sign = echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d = sign * rows[n - 1][n - 1]
    cols = list(_back_substitute(pivots, rows, -d, range(n, 2 * n)))
    return d, [[cols[c][i] for c in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Z[omega]^k as Z^2k, on the basis e_1, omega e_1, e_2, omega e_2, ...
# ---------------------------------------------------------------------------


def z_matrix(mat) -> list:
    """The 2k x 2k integer matrix by which a k x k Z[omega] matrix acts on
    the coordinates (e_i, omega e_i): (a + b w)(c + d w) is
    (ac - bd) + (bc + (a - b) d) w."""
    rows = []
    for row in mat:
        rows.append([x for e in row for x in (e.a, -e.b)])
        rows.append([x for e in row for x in (e.b, e.a - e.b)])
    return rows


def eis_vector_from_z(v) -> tuple:
    """The Eisenstein vector with coordinates ``v`` (pairs e_i, omega e_i)."""
    return tuple(EisInt(v[i], v[i + 1]) for i in range(0, len(v), 2))


def real_form(gram) -> list:
    """The integer matrix of 2 Re<x, y>, <x, y> = conj(x)^T G y.  Rows r0, r1
    of `z_matrix` (G) hold <e_i, y> = A + B w as (A, B), and <omega e_i, y> is
    (B - A) - A w: 2 Re is 2 r0 - r1 and 2 r1 - r0."""
    rows = z_matrix(gram)
    return [[2 * x - y for x, y in zip(a, b)]
            for r0, r1 in zip(rows[::2], rows[1::2]) for a, b in ((r0, r1), (r1, r0))]


def definite_ldl(gram):
    """(sign, low) with sign * G positive definite, sign that of G[0][0], and
    ``low`` its fraction-free LDL^T (`_pure._extend_ldl`), for a symmetric
    integer G.  The pivots low[i][i] are the leading minors of sign * G
    (Sylvester): a zero one means a degenerate form, or an indefinite one
    when det G is not zero, and a negative one an indefinite form."""
    n = len(gram)
    sign = -1 if n and gram[0][0] < 0 else 1
    low = []
    for s in range(n):
        ext = _extend_ldl(low, [0] * n, [sign * x for x in gram[s][:s + 1]], 0)
        if ext is None:
            raise ValueError("degenerate form" if det(gram) == 0 else "lattice is indefinite")
        low.append(ext[0])
    if any(row[-1] < 0 for row in low):
        raise ValueError("lattice is indefinite")
    return sign, low
