"""Truncated power series and Betti tables over exact rationals.

Every generating function in the pipeline lives here: series are truncated
at an explicit order, coefficients are ``Fraction`` values, and no operation
ever extends an order silently.  Combining two series truncates to the
smaller order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._pure import Record, check_order, check_printable


def _frac(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TruncatedSeries(Record):
    """A power series known exactly modulo t^(order+1)."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must equal order+1")

    @staticmethod
    def from_coeffs(coeffs: list, order: int) -> "TruncatedSeries":
        cs = [_frac(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return TruncatedSeries(tuple(cs), order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([1], order)

    @staticmethod
    def monomial(degree: int, order: int, coeff: int | Fraction = 1) -> "TruncatedSeries":
        cs = [Fraction(0)] * (order + 1)
        if degree <= order:
            cs[degree] = _frac(coeff)
        return TruncatedSeries(tuple(cs), order)

    def __getitem__(self, degree: int) -> Fraction:
        if degree < 0:
            return Fraction(0)
        if degree > self.order:
            raise IndexError(f"degree {degree} beyond truncation order {self.order}")
        return self.coeffs[degree]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(m + 1)), m
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(m + 1)), m
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def scale(self, c: int | Fraction) -> "TruncatedSeries":
        c = _frac(c)
        return TruncatedSeries(tuple(c * a for a in self.coeffs), self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        cs = [Fraction(0)] * (self.order + 1)
        for i in range(self.order + 1 - k):
            cs[i + k] = self.coeffs[i]
        return TruncatedSeries(tuple(cs), self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        cs = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b:
                    cs[i + j] += a * b
        return TruncatedSeries(tuple(cs), m)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        a0 = self.coeffs[0]
        inv = [Fraction(1) / a0]
        for m in range(1, self.order + 1):
            s = Fraction(0)
            for k in range(1, m + 1):
                s += self.coeffs[k] * inv[m - k]
            inv.append(-s / a0)
        return TruncatedSeries(tuple(inv), self.order)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return self.truncate(m) * other.truncate(m).inverse()

    def substitute_power(self, k: int) -> "TruncatedSeries":
        """Return P(t^k) at the same truncation order."""
        if k < 1:
            raise ValueError("power must be positive")
        cs = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if i * k > self.order:
                break
            cs[i * k] = a
        return TruncatedSeries(tuple(cs), self.order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def integer_coeffs(self) -> list:
        """Coefficient list as ints; raises if any coefficient is not integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integral coefficient {c}")
            out.append(int(c))
        return out

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{cs}t^{i}" if i > 1 else f"{cs}t")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"({body} + O(t^{self.order + 1}))"


def gf_expand(factors: list, order: int) -> TruncatedSeries:
    """Expand prod (1 - t^k)^(-e) over the given (k, e) factors.

    An empty factor list yields the constant series 1.  Factors of one
    period are merged, and each period is one product, in integers, with its
    closed form: the coefficient of t^(jk) in (1 - t^k)^(-e) is
    C(e - 1 + j, j).  A factor with k above the order is 1.  The
    coefficients are nonnegative, no factor makes one smaller and
    C(e - 1 + j, j) grows with j, so an integer past the int-to-text digit
    limit raises `ResourceCapError` as soon as it appears.
    """
    factors = list(factors)
    if any(k < 1 or e < 1 for k, e in factors):
        raise ValueError("factors require period >= 1 and multiplicity >= 1")
    periods = {}
    for k, e in factors:
        if k <= order:
            periods[k] = periods.get(k, 0) + e
    cs = [1] + [0] * order
    for k, e in periods.items():
        binom = [1]
        for j in range(1, order // k + 1):
            binom.append(binom[-1] * (e - 1 + j) // j)
            check_printable(binom[-1:])
        cs = [sum(map(mul, binom, cs[i::-k])) for i in range(order + 1)]
        check_printable(cs)
    return TruncatedSeries.from_coeffs(cs, order)


def projective_space_series(dim: int, order: int) -> TruncatedSeries:
    """Poincare series 1 + t^2 + ... + t^(2*dim) of complex projective space."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    cs = [Fraction(0)] * (order + 1)
    for j in range(0, min(dim, order // 2) + 1):
        cs[2 * j] = Fraction(1)
    return TruncatedSeries(tuple(cs), order)


def lincomb(terms: list) -> TruncatedSeries:
    """Exact linear combination sum c_i * t^(shift_i) * series_i.

    Truncates to the minimum effective order over the terms: a term shifted
    by t^k is known exactly up to its series order plus k.  Raises
    ValueError on a shift below 0, and ResourceCapError when that order is
    above `_pure.MAX_ORDER`.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("lincomb requires at least one term")
    if any(shift < 0 for _, shift, _ in terms):
        raise ValueError("lincomb shifts must be >= 0")
    order = check_order(min(s.order + shift for _, shift, s in terms), "the lincomb order")
    out = TruncatedSeries.zero(order)
    for c, shift, s in terms:
        cs = [Fraction(0)] * (order + 1)
        for i, a in enumerate(s.coeffs):
            if i + shift > order:
                break
            cs[i + shift] = a
        out = out + TruncatedSeries(tuple(cs), order).scale(c)
    return out


class BettiTable(Record):
    """Betti numbers of a compact space of complex dimension ``complex_dim``."""

    complex_dim: int
    betti: tuple
    flags: tuple = ()
    _not_compared = ("flags",)

    def __post_init__(self):
        n = self.complex_dim
        if len(self.betti) != 2 * n + 1:
            raise ValueError("betti list must have length 2*complex_dim + 1")
        if any((not isinstance(b, int)) or b < 0 for b in self.betti):
            raise ValueError("betti numbers must be nonnegative integers")

    @staticmethod
    def from_list(betti: list, complex_dim: int) -> "BettiTable":
        flags = ()
        if betti and betti[0] != 1:
            flags = ("b0 != 1: space not connected?",)
        return BettiTable(complex_dim, tuple(int(b) for b in betti), flags)

    @staticmethod
    def of_projective_space(dim: int) -> "BettiTable":
        """The table of P^dim.  Its Poincare series has order 2 * dim, so a
        dimension above half of `_pure.MAX_ORDER` raises `ResourceCapError`
        before any Betti number is built."""
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        check_order(2 * dim, "twice the dimension")
        betti = [1 if j % 2 == 0 else 0 for j in range(2 * dim + 1)]
        return BettiTable.from_list(betti, dim)

    def even(self) -> list:
        return [self.betti[2 * j] for j in range(self.complex_dim + 1)]

    def odd(self) -> list:
        return [self.betti[2 * j + 1] for j in range(self.complex_dim)]

    def poincare_series(self, order: int | None = None) -> TruncatedSeries:
        if order is None:
            order = 2 * self.complex_dim
        return TruncatedSeries.from_coeffs(list(self.betti), order)

    def kunneth(self, other: "BettiTable") -> "BettiTable":
        n = self.complex_dim + other.complex_dim
        check_order(2 * n, "twice the product's dimension")
        prod = self.poincare_series(2 * n) * other.poincare_series(2 * n)
        return BettiTable.from_list(prod.integer_coeffs(), n)

    def __repr__(self):
        return f"BettiTable(dim={self.complex_dim}, betti={list(self.betti)})"


class DualityReport(Record):
    ok: bool
    first_offense: tuple | None = None
    message: str = ""


def duality_check(table: BettiTable) -> DualityReport:
    """Check b_j = b_(2n-j) and nonnegativity; never raises."""
    n = table.complex_dim
    for j in range(n + 1):
        if table.betti[j] != table.betti[2 * n - j]:
            return DualityReport(
                False,
                (j, 2 * n - j),
                f"b_{j}={table.betti[j]} differs from b_{2*n-j}={table.betti[2*n-j]}",
            )
    return DualityReport(True)


def duality_complete(prefix: TruncatedSeries, complex_dim: int) -> BettiTable:
    """The unique duality-symmetric table agreeing with ``prefix`` up to degree n.

    Degrees above n mirror degrees below.  If the prefix extends beyond n, the
    extra coefficients must already match their mirror images.
    """
    n = complex_dim
    if prefix.order < n:
        raise ValueError(f"prefix order {prefix.order} is below complex dimension {n}")
    betti = [0] * (2 * n + 1)
    for j in range(n + 1):
        c = prefix[j]
        if c.denominator != 1 or c < 0:
            raise ValueError(f"coefficient at degree {j} is not a nonnegative integer: {c}")
        betti[j] = int(c)
        betti[2 * n - j] = int(c)
    for j in range(n + 1, min(prefix.order, 2 * n) + 1):
        if prefix[j] != betti[j]:
            raise ValueError(
                f"degree {j} coefficient {prefix[j]} violates duality "
                f"(mirror value {betti[j]})"
            )
    return BettiTable.from_list(betti, n)
