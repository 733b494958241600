"""Brute-force closest point of a convex hull, the reference for the tests.

`closest_point` minimizes over the projections of the origin onto the affine
spans of all affinely independent subsets of at most rank+1 points, keeping
those inside the hull.  It shares no code with the candidate kernel or with
the certificate in `stratify.strata`, and its cost grows combinatorially, so
it is kept for small inputs.
"""

from fractions import Fraction
from itertools import combinations

from stratify import _exact
from stratify.weights import Vector, dot, norm2, vec


def closest_point(points) -> Vector:
    """Exact closest point of the convex hull to the origin."""
    pts = tuple(vec(p) for p in points)
    if not pts:
        raise ValueError("empty point list")
    rank = _exact.rank(pts)
    best = None
    best_n2 = None
    for k in range(1, min(rank + 1, len(pts)) + 1):
        for sub in combinations(pts, k):
            cand = _project_origin_fraction(sub)
            if cand is None:
                continue
            n2 = norm2(cand)
            if best is None or n2 < best_n2:
                best, best_n2 = cand, n2
    assert best is not None
    return best


def affine_projection(points):
    """Barycentric coordinates and point of the projection of the origin onto
    the affine span of ``points`` (rational vectors), or None when they are
    affinely dependent.  Plain Fraction elimination."""
    k = len(points)
    if k == 1:
        return [Fraction(1)], points[0]
    a = [[dot(p, q) for q in points] + [Fraction(1), Fraction(0)] for p in points]
    a.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    n = k + 1
    for r in range(n):
        piv = next((i for i in range(r, n) if a[i][r] != 0), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        for i in range(n):
            if i != r and a[i][r] != 0:
                f = a[i][r] / a[r][r]
                for j in range(r, n + 1):
                    a[i][j] -= f * a[r][j]
    coeffs = [a[i][n] / a[i][i] for i in range(k)]
    m = len(points[0])
    return coeffs, tuple(
        sum((c * p[t] for c, p in zip(coeffs, points)), Fraction(0)) for t in range(m)
    )


def _project_origin_fraction(points) -> Vector | None:
    """Projection of the origin onto the affine span, or None.

    Returns the projection only when it has nonnegative barycentric
    coordinates (hull membership).
    """
    found = affine_projection(points)
    if found is None or any(c < 0 for c in found[0]):
        return None
    return found[1]
