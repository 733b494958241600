"""Exact arithmetic shared by the strata, orbit, group and lattice layers.

One number class, `EisInt`, for a + b*omega (omega^2 = -1 - omega).  With
integer a, b it is an Eisenstein integer; with `Fraction` parts it is an
element of Q(omega).  Parts are never coerced: integer input stays integer,
so Gram entries serialize as plain JSON ints.

One determinant, one rank, one nullspace and one inverse, each over Q (int
or `Fraction` entries) or Q(omega) (`EisInt` entries).  Every division goes
through `_div`, which returns an int when an integer quotient is exact and a
`Fraction` otherwise; no result is ever a float.

The kernels keep their own flat-int layout, and the closest-point oracle in
`strata` keeps its own solver so that it stays independent of the kernel.
"""

from __future__ import annotations

from fractions import Fraction


def _div(x, y):
    """Exact quotient x / y over Q or Q(omega)."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return x / y


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

    def __rsub__(self, o):
        return eis(o) - self

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
        if not isinstance(o, EisInt):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def conj(self):
        return EisInt(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return not self

    def is_real(self) -> bool:
        return self.b == 0

    def divmod_nearest(self, o):
        """Nearest-integer division in Z[omega]: self = q*o + r with N(r) < N(o)."""
        n = o.norm()
        num = self * o.conj()
        q = EisInt(_round_div(num.a, n), _round_div(num.b, n))
        return q, self - q * o

    def exact_div(self, o):
        q, r = self.divmod_nearest(o)
        if r:
            raise ValueError(f"{self} is not divisible by {o}")
        return q

    def __repr__(self):
        return f"Eis({self.a},{self.b})"


def _round_div(a: int, n: int) -> int:
    return (2 * a + n) // (2 * n)


def eis(value) -> EisInt:
    """An `EisInt` from itself, a rational, or an integer pair [a, b]."""
    if isinstance(value, EisInt):
        return value
    if isinstance(value, (int, Fraction)):
        return EisInt(value, 0)
    a, b = value
    return EisInt(int(a), int(b))


def flatten_eis_matrix(mat) -> tuple:
    """Square matrix of Eisenstein entries to the kernels' flat int layout."""
    k = len(mat)
    flat = []
    for row in mat:
        if len(row) != k:
            raise ValueError("matrix must be square")
        for e in row:
            e = eis(e)
            flat.extend((e.a, e.b))
    return tuple(flat)


def unflatten_eis_matrix(flat, k) -> tuple:
    """Flat int layout back to a k x k matrix of `EisInt`."""
    return tuple(
        tuple(EisInt(flat[2 * (i * k + j)], flat[2 * (i * k + j) + 1]) for j in range(k))
        for i in range(k)
    )


# ---------------------------------------------------------------------------
# linear algebra over Q or Q(omega)
# ---------------------------------------------------------------------------


def det(mat):
    """Determinant by fraction-free (Bareiss) elimination.

    Every intermediate entry is a minor of the input, so integer and
    Z[omega]-integral matrices stay integral throughout; a singular matrix
    gives the zero of its entry type.
    """
    a = [list(row) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return a[k][k]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _div(row_i[j] * p - f * row_k[j], prev)
        prev = p
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def rank(rows) -> int:
    """Rank of a list of rows by Gaussian elimination."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        head = rows[rk]
        for r in rows[rk + 1:]:
            if r[col]:
                f = _div(r[col], head[col])
                for j in range(col, ncols):
                    r[j] = r[j] - f * head[j]
        rk += 1
    return rk


def nullspace(rows) -> list:
    """Basis of {x : rows x = 0} by reduced row echelon form.

    Returns one vector per free column: 1 there, 0 at the other free columns.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        f = rows[rk][col]
        head = rows[rk] = [_div(x, f) for x in rows[rk]]
        for i, r in enumerate(rows):
            if i != rk and r[col]:
                fi = r[col]
                rows[i] = [x - fi * y for x, y in zip(r, head)]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = -rows[r][free]
        basis.append(x)
    return basis


def inverse(mat) -> list:
    """Inverse by Gauss-Jordan elimination; raises ValueError when singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        f = aug[c][c]
        aug[c] = [_div(x, f) for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                fi = aug[i][c]
                aug[i] = [x - fi * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
