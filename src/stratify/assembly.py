"""Assembly formulas: semistable-locus series, blowup correction terms,
intersection-cohomology shifts, and the point-blowup bookkeeping.

Everything is a statement about truncated series with exact rational
coefficients (ints where integral, `series.TruncatedSeries.from_coeffs`);
geometric inputs (connectedness, transitivity, quotient
identifications) arrive as declared stratum contributions carrying their own
provenance.
"""

from __future__ import annotations

from fractions import Fraction

from ._pure import Record
from .series import (
    BettiTable,
    TruncatedSeries,
    gf_expand,
    projective_space_series,
)


class StratumContribution(Record):
    """One unstable-stratum summand: t^(2*codim) times an equivariant series.

    ``weyl_share`` is the ambient-Weyl fiber count dividing the contribution;
    ``series`` is the equivariant series of the stratum factor (the constant
    1 for a connected stabilizer quotient).
    """

    codim: int
    series: TruncatedSeries
    weyl_share: int = 1
    provenance: str = ""

    def __post_init__(self):
        if self.codim < 1:
            raise ValueError("stratum codimension must be at least 1")
        if self.weyl_share < 1:
            raise ValueError("weyl_share must be at least 1")


def semistable_series(
    ambient_dim: int, bsl_exponents, strata, order: int
) -> TruncatedSeries:
    """Equivariant series of the semistable locus.

    Ambient projective series times the classifying-space factors
    (1 - t^(2i))^(-1) for i in ``bsl_exponents``, minus the stratum
    contributions t^(2*codim) * series.  Strata of codimension beyond the
    truncation may simply be omitted by the caller.
    """
    total = projective_space_series(ambient_dim, order) * gf_expand(
        [(2 * i, 1) for i in bsl_exponents], order
    )
    for s in strata:
        total = total - s.series.truncate(order).shift(2 * s.codim)
    return total


def main_term(p_n_z: TruncatedSeries, normal_rank: int, order: int) -> TruncatedSeries:
    """Blowup main term: the center's equivariant series times t^2 + ... +
    t^(2*(normal_rank - 1))."""
    if normal_rank < 2:
        raise ValueError("normal rank must be at least 2")
    # a rank beyond the order only adds terms that the truncation drops
    ones = min(normal_rank - 2, order // 2)
    fiber = TruncatedSeries.from_coeffs([0, 0] + [1, 0] * ones + [1], order)
    return p_n_z.truncate(order) * fiber


def extra_term(items, order: int) -> TruncatedSeries:
    """Blowup extra term: sum of (1/w) t^(2*codim) * series over strata.

    Full ambient-Weyl orbits must be passed; the total is required to have
    integral coefficients, which certifies that no orbit was left incomplete.
    """
    total = TruncatedSeries.zero(order)
    for it in items:
        total = total + it.series.truncate(order).shift(2 * it.codim).scale(
            Fraction(1, it.weyl_share)
        )
    for c in total.coeffs:
        if type(c) is not int:
            raise ValueError(
                f"extra term has non-integral coefficient {c}; incomplete Weyl orbit?"
            )
    return total


def b_shift(ip: BettiTable, order: int) -> TruncatedSeries:
    """Shifted intersection-cohomology polynomial of an exceptional quotient.

    With c the complex dimension of the table, the coefficient at degree q is
    ip[q-2] for 2 <= q <= c and ip[q] for q > c; degrees 0 and 1 vanish.
    """
    from .series import duality_check

    rep = duality_check(ip)
    if not rep.ok:
        raise ValueError(f"shift input must be duality-symmetric: {rep.message}")
    c, b = ip.complex_dim, ip.betti
    return TruncatedSeries.from_coeffs(
        [0, 0] + [b[q - 2] if q <= c else b[q] for q in range(2, 2 * c + 1)], order)


def blowup_correction(exceptional: BettiTable, n: int, order: int | None = None) -> TruncatedSeries:
    """Cohomology correction of a point blowup with the given exceptional divisor.

    For a target of complex dimension n the correction polynomial is
    e_(2n-2) t^2 + e_(2n-3) t^3 + ... + e_n t^n + ... + e_(2n-2) t^(2n-2),
    where e_j are the Betti numbers of the exceptional divisor.
    """
    if exceptional.complex_dim != n - 1:
        raise ValueError("exceptional divisor must have dimension n - 1")
    if order is None:
        order = 2 * n - 2
    e = exceptional.betti
    return TruncatedSeries.from_coeffs(
        [0, 0] + [e[2 * n - q] if q <= n else e[q] for q in range(2, 2 * n - 1)], order)
