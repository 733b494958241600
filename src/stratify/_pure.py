"""Pure-Python implementations of the hot kernels.

These are the reference implementations; `stratify._kernels` (Cython) provides
drop-in replacements selected at import time by `stratify._backend`.  All
arithmetic is exact: Python ints throughout, rationals as (numerator,
denominator) pairs.

Kernel data conventions
-----------------------
* Integer weight vectors: tuples of ints.
* Eisenstein matrices: a k x k matrix over Z[omega] is a flat tuple of
  2*k*k ints, entry (i,j) = (flat[2*(i*k+j)] + flat[2*(i*k+j)+1] * omega).
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, isqrt

BACKEND = "pure"


class ResourceCapError(RuntimeError):
    """An enumeration or closure exceeded its configured cap."""


# ---------------------------------------------------------------------------
# closest-point candidate enumeration
# ---------------------------------------------------------------------------


def _solve_bordered(gram, k):
    """Solve [[G, 1], [1, 0]] z = e_k exactly by fraction-free elimination.

    Returns (det, nums) where z_i = nums[i] / det for i < k, or None if the
    system is singular (affinely dependent points).
    """
    n = k + 1
    # augmented matrix, last column is the right-hand side e_k
    a = [list(gram[i]) + [1, 0] for i in range(k)]
    a.append([1] * k + [0, 1])
    sign = 1
    prev = 1
    for r in range(n):
        if a[r][r] == 0:
            for p in range(r + 1, n):
                if a[p][r] != 0:
                    a[r], a[p] = a[p], a[r]
                    sign = -sign
                    break
            else:
                return None
        arr = a[r][r]
        for i in range(n):
            if i == r:
                continue
            air = a[i][r]
            row_i = a[i]
            row_r = a[r]
            for j in range(r + 1, n + 1):
                row_i[j] = (arr * row_i[j] - air * row_r[j]) // prev
            row_i[r] = 0
        prev = arr
    det = sign * a[n - 1][n - 1]
    nums = [sign * a[i][n] for i in range(k)]
    return det, nums


def projection_candidates(weights, rank, budget, chamber_sort):
    """Closest-point candidates for hulls of subsets of integer weight vectors.

    For every affinely independent subset of at most rank+1 weights, the
    origin is projected onto the affine span; the projection is kept when it
    lies in the convex hull (all barycentric coordinates nonnegative).
    Returns the deduplicated set of candidates as (nums, den) pairs with
    den > 0 and gcd 1; nums are sorted descending when chamber_sort is set.
    """
    pts = [tuple(w) for w in weights]
    npts = len(pts)
    if npts == 0:
        raise ValueError("empty weight list")
    m = len(pts[0])
    kmax = min(rank + 1, npts)
    total = sum(comb(npts, k) for k in range(1, kmax + 1))
    if total > budget:
        raise ResourceCapError(
            f"candidate subsets {total} exceed budget {budget}"
        )
    dots = [[sum(a * b for a, b in zip(p, q)) for q in pts] for p in pts]
    found = set()
    for k in range(1, kmax + 1):
        for idx in combinations(range(npts), k):
            if k == 1:
                det, nums = 1, [1]
            else:
                gram = [[dots[i][j] for j in idx] for i in idx]
                sol = _solve_bordered(gram, k)
                if sol is None:
                    continue
                det, nums = sol
                if det < 0:
                    det = -det
                    nums = [-c for c in nums]
                if any(c < 0 for c in nums):
                    continue
            beta = [0] * m
            for c, i in zip(nums, idx):
                if c:
                    p = pts[i]
                    for t in range(m):
                        beta[t] += c * p[t]
            g = det
            for b in beta:
                g = gcd(g, b)
            if g > 1:
                beta = [b // g for b in beta]
                det //= g
            if chamber_sort:
                beta.sort(reverse=True)
            found.add((tuple(beta), det))
    return found


# ---------------------------------------------------------------------------
# Eisenstein matrix helpers
# ---------------------------------------------------------------------------


def eis_identity_flat(k):
    flat = [0] * (2 * k * k)
    for i in range(k):
        flat[2 * (i * k + i)] = 1
    return tuple(flat)


def eis_mul_flat(x, y, k):
    """Product of two flat Z[omega] matrices (omega^2 = -1 - omega)."""
    out = [0] * (2 * k * k)
    for i in range(k):
        ik = i * k
        for j in range(k):
            ra = 0
            rb = 0
            for l in range(k):
                a = x[2 * (ik + l)]
                b = x[2 * (ik + l) + 1]
                c = y[2 * (l * k + j)]
                d = y[2 * (l * k + j) + 1]
                # (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w
                bd = b * d
                ra += a * c - bd
                rb += a * d + b * c - bd
            out[2 * (ik + j)] = ra
            out[2 * (ik + j) + 1] = rb
    return tuple(out)


def close_eis(gens, k, cap):
    """Breadth-first multiplicative closure of flat Z[omega] matrices.

    Returns the closed set as a sorted list of flat tuples (the canonical
    element order).  Raises ResourceCapError beyond ``cap`` elements.
    """
    ident = eis_identity_flat(k)
    gens = [tuple(g) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = eis_mul_flat(x, g, k)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ResourceCapError(f"group closure exceeded cap {cap}")
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)
