"""Instability index sets and per-stratum codimension data.

The index set consists of the closest points to the origin of convex hulls
of nonempty weight subsets, reduced to the closed positive Weyl chamber.
Candidates are generated from affinely independent subsets of at most
rank+1 weights (Caratheodory), solved exactly, and filtered by hull
membership.  The kernel (`_pure.projection_candidates`) finds them by a
depth-first search that cuts every subtree below an affinely dependent
prefix and, for the symmetric Weyl group, visits one subset per orbit of the
coordinate permutations (orderly generation); the budget still bounds the
flat subset count.  `closest_point` is an independent brute-force oracle
kept deliberately separate from the candidate kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

from . import _exact
from ._pure import ResourceCapError, projection_candidates
from .weights import Vector, WeightSystem, dot, norm2, vec

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class BetaStratum:
    """One index-set element with its combinatorial stratum data."""

    beta: Vector
    norm2: Fraction
    support: tuple
    n_beta: int
    dim_g_mod_p: int
    codim_expected: int
    nonemptiness: str = "undeclared"

    def __post_init__(self):
        if self.codim_expected < 0:
            raise ValueError(f"negative expected codimension at beta={self.beta}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.beta)


def _rational_lift(weights) -> tuple:
    return tuple(vec(w) for w in weights)


def _inversions(beta: Vector) -> int:
    return sum(
        1
        for i in range(len(beta))
        for j in range(i + 1, len(beta))
        if beta[i] > beta[j]
    )


def _stratum_from_beta(beta, weights, group: str) -> BetaStratum | None:
    b2 = norm2(beta)
    support = []
    below = 0
    for i, w in enumerate(weights):
        p = dot(w, beta)
        if p == b2:
            support.append(i)
        elif p < b2:
            below += 1
    if group == "sym":
        dim_gp = _inversions(beta)
    elif group == "pgl2":
        dim_gp = 0 if b2 == 0 else 1
    elif group == "torus":
        dim_gp = 0
    else:
        raise ValueError(f"unknown group kind {group!r}")
    if below - dim_gp < 0:
        # expected dimension exceeds the ambient dimension, so the stratum
        # is empty; such index elements are dropped from the report
        return None
    return BetaStratum(
        beta=beta,
        norm2=b2,
        support=tuple(support),
        n_beta=below,
        dim_g_mod_p=dim_gp,
        codim_expected=below - dim_gp,
    )


def _check_weyl_invariance(weights, group: str):
    """Chamber reduction needs the Weyl group to preserve the weight multiset."""
    from collections import Counter

    counts = Counter(weights)
    if group == "sym":
        m = len(weights[0])
        for i in range(m - 1):
            swapped = Counter(
                w[:i] + (w[i + 1], w[i]) + w[i + 2:] for w in weights
            )
            if swapped != counts:
                raise ValueError(
                    "weight multiset is not permutation-invariant; "
                    "the symmetric Weyl reduction does not apply"
                )
    elif group == "pgl2":
        negated = Counter(tuple(-c for c in w) for w in weights)
        if negated != counts:
            raise ValueError(
                "weight ladder is not symmetric under negation; "
                "the rank-1 Weyl reduction does not apply"
            )


def _index_set(weights, group: str, budget: int) -> list:
    weights = _rational_lift(weights)
    if not weights:
        raise ValueError("empty weight list")
    denom = reduce(lcm, (c.denominator for w in weights for c in w), 1)
    scaled = [tuple(int(c * denom) for c in w) for w in weights]
    rank = _exact.rank(weights)
    if group == "pgl2" and rank != 1:
        raise ValueError("pgl2 mode expects weights on a single line")
    _check_weyl_invariance(weights, group)
    chamber_sort = group in ("sym", "pgl2")
    cands = projection_candidates(scaled, rank, budget, chamber_sort)
    out = []
    for nums, den in cands:
        beta = tuple(Fraction(c, den * denom) for c in nums)
        stratum = _stratum_from_beta(beta, weights, group)
        if stratum is not None:
            out.append(stratum)
    out.sort(key=lambda s: (s.norm2, s.beta))
    return out


def instability_index_set(
    ws: WeightSystem, weyl: str = "sym", budget: int = DEFAULT_BUDGET
) -> list:
    """Index set for a hypersurface weight system.

    ``weyl`` is "sym" for the full coordinate-permutation Weyl group (strata
    reduced to weakly decreasing representatives, parabolic dimension counted
    by inversions) or "trivial" for a torus.  Index elements whose expected
    codimension is negative index provably empty strata and are dropped.
    """
    group = {"sym": "sym", "trivial": "torus"}[weyl]
    return _index_set(ws.weights, group, budget)


def normal_rep_strata(rep, group: str, budget: int = DEFAULT_BUDGET) -> list:
    """Index set for a stabilizer representation on a normal slice.

    ``group`` is "torus" (trivial Weyl group, zero parabolic contribution) or
    "pgl2" (one-dimensional torus with a single positive root; nonzero strata
    get a one-dimensional flag-variety correction).
    """
    if group not in ("torus", "pgl2"):
        raise ValueError("group must be 'torus' or 'pgl2'")
    return _index_set(rep.weights, group, budget)


def closest_point(points) -> Vector:
    """Exact closest point of the convex hull to the origin (oracle).

    Exhaustive minimization over projections onto affine spans of all
    affinely independent subsets of at most rank+1 points, filtered by hull
    membership.  Independent of the candidate-generation kernel.
    """
    pts = _rational_lift(points)
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


def _project_origin_fraction(points) -> Vector | None:
    """Projection of the origin onto the affine span, or None.

    Returns the projection only when it has nonnegative barycentric
    coordinates (hull membership); uses plain Fraction elimination.
    """
    k = len(points)
    if k == 1:
        return points[0]
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
    if any(c < 0 for c in coeffs):
        return None
    m = len(points[0])
    return tuple(
        sum((c * p[t] for c, p in zip(coeffs, points)), Fraction(0)) for t in range(m)
    )


def weyl_fiber_count(beta_prime, rep_index_set, wr_action=None) -> int:
    """Number of index-set elements in the ambient-Weyl orbit of beta_prime.

    The ambient Weyl group permutes coordinates; membership in the orbit is
    equality of sorted coordinate multisets.  With a nontrivial stabilizer
    Weyl group, ``wr_action`` lists its elements as vector maps and the count
    is of orbits under that action.
    """
    beta_prime = vec(beta_prime)
    members = [vec(b) for b in rep_index_set]
    if beta_prime not in members:
        raise ValueError("beta_prime is not an element of the index set")
    key = tuple(sorted(beta_prime))
    fiber = [b for b in members if tuple(sorted(b)) == key]
    if not wr_action:
        return len(fiber)
    remaining = set(fiber)
    orbits = 0
    while remaining:
        b = remaining.pop()
        orbits += 1
        for g in wr_action:
            img = vec(g(b))
            remaining.discard(img)
    return orbits


@dataclass(frozen=True)
class SupportRecord:
    r: int
    codim_expected: int
    beta: Vector
    support_closed: tuple = field(default=(), repr=False)


def maximal_support_report(ws: WeightSystem, strata) -> list:
    """Support-maximal nonzero strata, i.e. maximal destabilized monomial sets.

    For each nonzero beta the closed positive side {alpha . beta >= |beta|^2}
    is formed; strata whose closed side is maximal under inclusion are the
    maximal unstable families.  Records carry r = |closed side|.
    """
    weights = _rational_lift(ws.weights)
    sides = []
    for s in strata:
        if s.is_zero():
            continue
        closed = frozenset(
            i for i, w in enumerate(weights) if dot(w, s.beta) >= s.norm2
        )
        sides.append((closed, s))
    records = []
    for closed, s in sides:
        if any(closed < other for other, _ in sides):
            continue
        records.append(
            SupportRecord(len(closed), s.codim_expected, s.beta, tuple(sorted(closed)))
        )
    records.sort(key=lambda r: (r.r, r.codim_expected, r.beta))
    # distinct strata can share a closed side only if they are equal; dedup
    seen = set()
    out = []
    for r in records:
        key = r.support_closed
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def verify_strata_against_oracle(weights, strata, max_support: int | None = None):
    """Cross-check: each emitted beta is the closest point of its support hull.

    Skips strata whose support exceeds ``max_support`` (oracle cost grows
    combinatorially); returns the number of strata checked.
    """
    weights = _rational_lift(weights)
    checked = 0
    for s in strata:
        if s.is_zero():
            continue
        if max_support is not None and len(s.support) > max_support:
            continue
        pts = [weights[i] for i in s.support]
        got = closest_point(pts)
        if got != s.beta:
            raise AssertionError(
                f"oracle mismatch at beta={s.beta}: closest point of support is {got}"
            )
        checked += 1
    return checked


__all__ = [
    "BetaStratum",
    "SupportRecord",
    "ResourceCapError",
    "DEFAULT_BUDGET",
    "instability_index_set",
    "normal_rep_strata",
    "closest_point",
    "weyl_fiber_count",
    "maximal_support_report",
    "verify_strata_against_oracle",
]
