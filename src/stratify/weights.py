"""Weight systems of the special linear group acting on degree-d forms.

Weights live in the traceless diagonal subalgebra, modeled as sum-zero
vectors in (n+1) coordinates with the standard dot product.  The symmetric
group acts by coordinate permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._pure import ResourceCapError

# the most monomials a weight system may have: the largest census, (4,5)
# or (5,4), has 126, and the default index-set budget refuses any system
# of more than about 4,500
MAX_WEIGHTS = 10**4


def vec(entries) -> tuple:
    return tuple(Fraction(e) for e in entries)


def monomials_of_degree(n: int, d: int) -> list:
    """Exponent vectors of length n+1 summing to d, in lexicographic order.

    Stars and bars: the n bars among n+d slots cut d stars into n+1 runs.
    The partial sums of a vector fix its bar positions, so combinations in
    lexicographic order give vectors in lexicographic order.
    """
    return [tuple(e - s - 1 for s, e in zip((-1, *bars), (*bars, n + d)))
            for bars in combinations(range(n + d), n)]


@dataclass(frozen=True)
class WeightSystem:
    """Monomial weights of the degree-d action on projective n-space."""

    n: int
    d: int
    monomials: tuple
    weights: tuple


def hypersurface_weights(n: int, d: int) -> WeightSystem:
    """Weight system for degree-d forms in n+1 variables.

    The monomial x^I maps to I - (d/(n+1)) * (1,...,1), a sum-zero vector.
    Raises ResourceCapError, before enumerating, when there are more than
    `MAX_WEIGHTS` monomials.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    # count them as C(m+i, i), m = max(n, d), for i up to min(n, d): each
    # step at least doubles the count, so few are taken however large n, d are
    m, count = max(n, d), 1
    for i in range(1, min(n, d) + 1):
        count = count * (m + i) // i
        if count > MAX_WEIGHTS:
            raise ResourceCapError(f"forms of degree {d} in {n} + 1 variables have more "
                                   f"than {MAX_WEIGHTS} monomials, the cap")
    mons = monomials_of_degree(n, d)
    if len(mons) != count:
        raise AssertionError("monomial count mismatch")
    # exponent i gives the coordinate i - d/(n+1); one Fraction per exponent
    coords = [Fraction((n + 1) * i - d, n + 1) for i in range(d + 1)]
    weights = tuple(tuple([coords[i] for i in I]) for I in mons)
    return WeightSystem(n, d, tuple(mons), weights)
