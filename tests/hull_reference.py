"""References for the strata tests, in plain `Fraction` arithmetic.

`dot` and `norm2` are the standard dot product and squared norm of
weights, which only the tests need.

`closest_point` is the brute-force closest point of a convex hull: it
minimizes over the projections of the origin onto the affine spans of all
affinely independent subsets of at most rank+1 points, keeping those inside
the hull.  It shares no code with the candidate kernel or with the
certificate in `stratify.strata`, and its cost grows combinatorially, so it
is kept for small inputs.

`fraction_index_set` and `fraction_oracle` are the index set's bookkeeping
and the oracle's scaling as they were before both moved to scaled integers:
strata built with `Fraction` dot products from the kernel's candidates and
sorted on Fraction (norm2, beta) tuples, and betas scaled by `Fraction(c) *
denom`.  The integer path must give equal lists in equal order and equal
counts.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

from stratify import _pure, strata
from stratify.weights import vec


def dot(x: tuple, y: tuple) -> Fraction:
    """The standard dot product of two rational vectors of one length."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def norm2(x: tuple) -> Fraction:
    return dot(x, x)


def closest_point(points) -> tuple:
    """Exact closest point of the convex hull to the origin."""
    pts = tuple(vec(p) for p in points)
    if not pts:
        raise ValueError("empty point list")
    rank = _pure.rank(pts)
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


def _project_origin_fraction(points) -> tuple | None:
    """Projection of the origin onto the affine span, or None.

    Returns the projection only when it has nonnegative barycentric
    coordinates (hull membership).
    """
    found = affine_projection(points)
    if found is None or any(c < 0 for c in found[0]):
        return None
    return found[1]


def fraction_index_set(weights, group, budget=strata.DEFAULT_BUDGET) -> list:
    """The index set of ``weights`` for ``group`` ("sym", "torus" or
    "pgl2"), every candidate's stratum computed on Fractions and the list
    sorted on (norm2, beta).  Input checks are left to the caller."""
    pts = [vec(w) for w in weights]
    denom = reduce(lcm, (c.denominator for p in pts for c in p), 1)
    scaled = [tuple(int(c * denom) for c in p) for p in pts]
    cands = strata.projection_candidates(scaled, _pure.rank(scaled), budget, group == "sym")
    betas = {tuple(Fraction(c, den * denom) for c in nums) for nums, den in cands}
    if group == "pgl2":
        # the rank-1 Weyl group maps beta to -beta; the chamber keeps the
        # lexicographically larger one
        betas = {max(beta, tuple(-c for c in beta)) for beta in betas}
    out = []
    for beta in betas:
        b2 = norm2(beta)
        dots = [dot(p, beta) for p in pts]
        below = sum(1 for x in dots if x < b2)
        if group == "sym":
            dim_gp = sum(1 for i, j in combinations(range(len(beta)), 2) if beta[i] > beta[j])
        else:
            dim_gp = int(group == "pgl2" and b2 != 0)
        if below < dim_gp:
            continue
        out.append(strata.BetaStratum(
            beta=beta, norm2=b2, support=tuple(i for i, x in enumerate(dots) if x == b2),
            n_beta=below, dim_g_mod_p=dim_gp, codim_expected=below - dim_gp))
    out.sort(key=lambda s: (s.norm2, s.beta))
    return out


def fraction_oracle(weights, records, max_support=None) -> int:
    """`strata.verify_strata_against_oracle` with each beta scaled as
    ``Fraction(c) * denom``; the same checks on the same hull witness."""
    pts = [vec(w) for w in weights]
    denom = reduce(lcm, (c.denominator for p in pts for c in p), 1)
    pts = [[c.numerator * (denom // c.denominator) for c in p] for p in pts]
    checked = 0
    for s in records:
        coords = [Fraction(c) * denom for c in s.beta]
        den = reduce(lcm, (c.denominator for c in coords), 1)
        nums = [c.numerator * (den // c.denominator) for c in coords]
        b2 = sum(c * c for c in nums)
        dots = [den * sum(a * b for a, b in zip(p, nums)) for p in pts]
        support = tuple(i for i, x in enumerate(dots) if x == b2)
        n_beta = sum(1 for x in dots if x < b2)
        if support != tuple(s.support) or n_beta != s.n_beta:
            raise AssertionError(f"face mismatch at beta={s.beta}")
        nonzero = any(nums)
        if nonzero and max_support is not None and len(support) > max_support:
            continue
        hull = [[den * c for c in pts[i]] for i in support]
        lam, lam_den = strata._hull_witness(hull, nums)
        if not (all(x >= 0 for x in lam) and sum(lam) == lam_den and all(
            sum(x * p[t] for x, p in zip(lam, hull)) == lam_den * nums[t]
            for t in range(len(nums))
        )):
            raise AssertionError(f"oracle: beta={s.beta} is not in the hull of its support")
        checked += nonzero
    return checked
