"""Truncated power series and Betti tables over exact rationals.

Every generating function in the pipeline lives here: series are truncated
at an explicit order, and no operation ever extends an order silently.
Combining two series truncates to the smaller order.  A coefficient is an
int where it is integral and a `Fraction` where it is not (`_pure.rational`),
the rule of the group and orbit layers, so Poincare series, which are
integral, multiply and invert in plain ints.  `TruncatedSeries.from_coeffs`
applies the rule, and every operation that makes a new series builds it
through it; `inverse`, the one series inversion, returns the coefficients,
over Q or Q(omega), to its caller.
"""

from __future__ import annotations

from operator import mul

from ._pure import Record, _div, check_order, check_printable, rational


class TruncatedSeries(Record):
    """A power series known exactly modulo t^(order+1), its coefficients
    ints where integral: build one with `from_coeffs`."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must equal order+1")

    @staticmethod
    def from_coeffs(coeffs, order: int) -> "TruncatedSeries":
        """The series of ``coeffs`` (a sequence of rationals), cut or padded
        with zeros to ``order``, each coefficient by `_pure.rational`."""
        cs = [rational(c) for c in coeffs[: order + 1]]
        cs += [0] * (order + 1 - len(cs))
        return TruncatedSeries(tuple(cs), order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([1], order)

    def __getitem__(self, degree: int):
        if degree < 0:
            return 0
        if degree > self.order:
            raise IndexError(f"degree {degree} beyond truncation order {self.order}")
        return self.coeffs[degree]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], min(self.order, other.order))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + -other

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def scale(self, c) -> "TruncatedSeries":
        c = rational(c)
        return TruncatedSeries.from_coeffs([c * a for a in self.coeffs], self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries.from_coeffs(
            [0] * min(k, self.order + 1) + list(self.coeffs), self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries.from_coeffs(
            [sum(map(mul, a[: i + 1], b[i::-1])) for i in range(m + 1)], m)

    def substitute_power(self, k: int) -> "TruncatedSeries":
        """Return P(t^k) at the same truncation order."""
        if k < 1:
            raise ValueError("power must be positive")
        cs = [0] * (self.order + 1)
        cs[::k] = self.coeffs[: self.order // k + 1]
        return TruncatedSeries(tuple(cs), self.order)

    def integer_coeffs(self) -> list:
        """Coefficient list as ints; raises if any coefficient is not integral."""
        for c in self.coeffs:
            if type(c) is not int:
                raise ValueError(f"non-integral coefficient {c}")
        return list(self.coeffs)

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


def inverse(coeffs, order: int) -> list:
    """The coefficients of 1/f up to t^order, f = sum coeffs[i] t^i over Q or
    Q(omega): the one series inversion.  It is sparse, b_m = sum_t (-f_t /
    f_0) b_(m-t) over the nonzero terms f_t past the constant, each scaled
    once, so det(1 - T M) in `invariants.molien` costs a few products per
    degree.  Every quotient is `_pure._div`'s: over a unit f_0, integral
    input stays integral.  Raises ZeroDivisionError when f_0 is zero."""
    c0 = coeffs[0]
    if not c0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    terms = [(t, _div(-c, c0)) for t, c in enumerate(coeffs[1: order + 1], 1) if c]
    inv = [_div(1, c0)]
    zero = 0 * c0  # in the constant's ring, so no sum starts from an int
    for m in range(1, order + 1):
        s = zero
        for t, c in terms:
            if t > m:
                break
            s = s + c * inv[m - t]
        inv.append(s)
    return inv


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
    return TruncatedSeries.from_coeffs([1, 0] * min(dim, order // 2) + [1], order)


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
        # a shift beyond the order leaves nothing of the term
        cs = [0] * min(shift, order + 1) + list(s.coeffs)
        out = out + TruncatedSeries.from_coeffs(cs, order).scale(c)
    return out


class BettiTable(Record):
    """Betti numbers of a compact space of complex dimension ``complex_dim``."""

    complex_dim: int
    betti: tuple

    def __post_init__(self):
        n = self.complex_dim
        if len(self.betti) != 2 * n + 1:
            raise ValueError("betti list must have length 2*complex_dim + 1")
        if any((not isinstance(b, int)) or b < 0 for b in self.betti):
            raise ValueError("betti numbers must be nonnegative integers")

    @staticmethod
    def from_list(betti: list, complex_dim: int) -> "BettiTable":
        return BettiTable(complex_dim, tuple(int(b) for b in betti))

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
        if type(c) is not int or c < 0:
            raise ValueError(f"coefficient at degree {j} is not a nonnegative integer: {c}")
        betti[j] = betti[2 * n - j] = c
    for j in range(n + 1, min(prefix.order, 2 * n) + 1):
        if prefix[j] != betti[j]:
            raise ValueError(
                f"degree {j} coefficient {prefix[j]} violates duality "
                f"(mirror value {betti[j]})"
            )
    return BettiTable.from_list(betti, n)
