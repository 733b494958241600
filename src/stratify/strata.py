"""Instability index sets and per-stratum codimension data.

The index set consists of the closest points to the origin of convex hulls
of nonempty weight subsets, reduced to the closed positive Weyl chamber.
Candidates are generated from affinely independent subsets of at most
rank+1 weights (Caratheodory), solved exactly, and filtered by hull
membership.  The kernel, `projection_candidates`, finds them by a
depth-first search that cuts every subtree below an affinely dependent
prefix and, for the symmetric Weyl group, visits one subset per orbit of the
coordinate permutations (orderly generation).  It stops at the affine
dimension a of the weights: every independent subset of a+1 weights
projects the origin to the same point, so that level is searched only when
no smaller subset has given that point, and only until it appears.  The
budget (`DEFAULT_BUDGET` where a caller passes None) still bounds the flat
subset count.  Each search node extends an exact fraction-free LDL^T
elimination by one row (`_pure._extend_ldl`, which the lattice layer's
short-vector enumeration shares), 2,326 rows for (n, d) = (4, 3), and
builds its candidate only when the projection has positive barycentric
coordinates.

One loop, `_index_set`, assembles the index set of every group kind
("sym", "torus", "pgl2"): it checks whether every coordinate permutation
preserves the weight multiset, multiplicities counted, calls the kernel
once, folds beta and -beta for "pgl2", and builds each stratum.  The torus
goes by orbits when the multiset is invariant.  The kernel then searches as
for the symmetric group and returns one sorted candidate per S_m-orbit;
each representative's stratum is built once and rearranged to every
distinct permutation of beta, with the same n_beta and |beta|^2 and the
support moved by the permutation.  For hypersurface weights this cuts the
kernel's LDL^T extensions from 1,349 to 177 for (n, d) = (3, 3) and from
405 to 133 for (2, 6).

The index set works in scaled Python ints from the weights, scaled over
their common denominator by `_pure.scaled_integers` (as is each beta in
`maximal_support_report`): its rank (`_pure.rank`), Weyl-invariance check,
each candidate's support and below count (one pass over the weights) and
inversions run on the same integer weights as the kernel.  The strata are
ordered once, by (|beta|^2, beta) on their betas scaled to integers by
`scaled_integers`.  `Fraction`s appear only in the `BetaStratum` fields.
The module does not load `stratify._exact`.

`verify_strata_against_oracle` certifies each stratum without the kernel:
beta is the closest point of conv(S) if and only if every s in S has
<s, beta> = |beta|^2 and beta lies in conv(S).  It scales each beta to
integers itself, from one `as_integer_ratio` per coordinate.  For the first
stratum of each class of betas equal up to a coordinate permutation it
recomputes the support and n_beta from the weights and checks a nonnegative
barycentric witness found by an exact phase-I simplex.  It carries that
certificate to the rest of the class through a permutation pi with
pi(first beta) = beta, matched in sorted order, after checking with its own
code that every coordinate permutation preserves the weight multiset: pi is
then an isometry mapping the first face onto this one, so the record's
support must be the indices of the permuted first support and its n_beta
the first one's, an O(n) check.  For (n, d) = (3, 3) on the torus the 281
strata fall into 21 classes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from ._pure import Record, ResourceCapError, _extend_ldl, rank, scaled_integers
from .weights import WeightSystem, vec

DEFAULT_BUDGET = 10**7


class BetaStratum(Record):
    """One index-set element with its combinatorial stratum data."""

    beta: tuple
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


# ---------------------------------------------------------------------------
# closest-point candidate search
# ---------------------------------------------------------------------------


def _solve_ldl(low, rhs):
    """Integer y = det(D) * c for the eliminated system (back substitution).

    Every division is exact: by Cramer, det(D) * c is integral.
    """
    n = len(low)
    det = low[-1][-1]
    y = [0] * n
    for t in range(n - 1, -1, -1):
        acc = det * rhs[t]
        for j in range(t + 1, n):
            acc -= low[j][t] * y[j]
        y[t] = acc // low[t][t]
    return det, y


def _equation(dots, idx, i):
    """The row and right-hand side that add point i to the system of the
    points idx, given the matrix ``dots`` of their inner products.

    The affine span of pts[idx] is that of p0 + span(pts[j] - p0), so the
    projection of the origin solves D c = b with D the Gram matrix of the
    differences and b_s = -<p0, pts[j_s] - p0>.
    """
    i0 = idx[0]
    d0 = dots[i0]
    di = dots[i]
    c0 = d0[i0] - di[i0]
    row = [di[j] - d0[j] + c0 for j in idx[1:]]
    row.append(di[i] - 2 * di[i0] + d0[i0])
    return row, d0[i0] - d0[i]


def projection_candidates(weights, rank, budget, chamber_sort):
    """Closest-point candidates for hulls of subsets of integer weight vectors.

    For every affinely independent subset of at most rank+1 weights, the
    origin is projected onto the affine span; the projection is kept when it
    lies in the convex hull (all barycentric coordinates nonnegative).
    Returns the deduplicated set of candidates as (nums, den) pairs with
    den > 0 and gcd 1; nums are sorted descending when chamber_sort is set.

    The subsets are visited by a depth-first search over index-increasing
    subsets of the distinct weights, sorted lex-descending (a repeated weight
    only ever gives singular subsets).  Each step extends an exact
    fraction-free elimination of the prefix's system by one row
    (`_extend_ldl`), so a node costs one row, not a whole solve:

    * an affinely dependent prefix (zero pivot) cuts its whole subtree, since
      every superset is dependent too;
    * a node records its candidate only when every barycentric coordinate is
      positive: with a zero coordinate the projection is that of the smaller
      subset without that point, which the search records elsewhere;
    * with chamber_sort, on a point set invariant under coordinate
      permutations, only one subset per S_m-orbit is needed, because sorting
      makes the candidate an orbit invariant.  The coordinates on which every
      chosen point agrees form the classes of the prefix's pointwise
      stabilizer, a Young subgroup; a next point is accepted only if its
      coordinates do not increase within each class, i.e. it is the first
      index of its orbit under that subgroup (orderly generation, McKay,
      "Isomorph-free exhaustive generation", 1998).  The lex-least subset of
      every orbit passes the test at each level, so no candidate is lost.
      The classes are runs of adjacent coordinates, so the test is one AND:
      bit j of the prefix's chain stands for the pair (j, j+1) in one class,
      a point with an increasing pair in the chain is rejected, and its
      child's chain keeps the pairs on which it is constant;
    * the search stops at the affine dimension a of the weights.  Every
      affinely independent subset of a+1 weights spans their whole affine
      hull, so the origin projects to one point, the apex, and that level
      adds at most the apex.  The search runs to depth a; only when the apex
      is not yet a candidate does it search depth a+1, and it stops when the
      apex is recorded there.  If it never is, the apex lies outside the
      hull and the level has been searched in full.  Larger subsets are
      all dependent.  When rank+1 <= a the cut does not apply.

    The budget bounds the flat count, sum of C(n, k) over k <= rank+1, before
    any work is done.
    """
    pts = [tuple(w) for w in weights]
    if not pts:
        raise ValueError("empty weight list")
    kmax = min(rank + 1, len(pts))
    total = sum(comb(len(pts), k) for k in range(1, kmax + 1))
    if total > budget:
        raise ResourceCapError(
            f"candidate subsets {total} exceed budget {budget}"
        )
    pts = sorted(set(pts), reverse=True)
    npts = len(pts)
    m = len(pts[0])
    kmax = min(kmax, npts)
    dots = [[0] * npts for _ in pts]
    for i, p in enumerate(pts):
        row = dots[i]
        for j in range(i, npts):
            row[j] = dots[j][i] = sum(map(mul, p, pts[j]))
    # the pairs (j, j + 1), as bits j, on which point i increases and on
    # which it is constant; chain 0: no reduction
    chain = (1 << m - 1) - 1 if chamber_sort and _permutation_invariant(pts) else 0
    desc = [sum(1 << j for j in range(m - 1) if p[j] < p[j + 1]) for p in pts]
    same = [sum(1 << j for j in range(m - 1) if p[j] == p[j + 1]) for p in pts]
    found = set()

    def candidate(det, lam, idx):
        """The point sum(lam_j * pts[j]) / det as a key of `found`."""
        beta = [0] * m
        for c, j in zip(lam, idx):
            q = pts[j]
            for t in range(m):
                beta[t] += c * q[t]
        g = gcd(det, *beta)
        if g > 1:
            beta = [x // g for x in beta]
        if chamber_sort:
            beta.sort(reverse=True)
        return tuple(beta), det // g

    def visit(start, chain, idx, low, rhs, limit, stop):
        """Extend the prefix idx by every later point, up to `limit` points;
        True as soon as the candidate `stop` is recorded."""
        for i in range(start, npts):
            if desc[i] & chain:
                continue
            ext = _extend_ldl(low, rhs, *_equation(dots, idx, i))
            if ext is None:
                continue  # affinely dependent prefix: so is every superset
            idx.append(i)
            low.append(ext[0])
            rhs.append(ext[1])
            det, y = _solve_ldl(low, rhs)
            lam0 = det - sum(y)
            if lam0 > 0 and min(y) > 0:
                key = candidate(det, [lam0] + y, idx)
                found.add(key)
                if key == stop:
                    return True
            if len(idx) < limit and visit(
                    i + 1, chain & same[i], idx, low, rhs, limit, stop):
                return True
            idx.pop()
            low.pop()
            rhs.pop()
        return False

    def search(limit, stop=None):
        """Subsets of at most `limit` points; stops once `stop` is recorded."""
        for i in range(npts):
            if desc[i] & chain:
                continue
            found.add(candidate(1, [1], [i]))
            if limit > 1 and visit(i + 1, chain & same[i], [i], [], [], limit, stop):
                return

    # an affine basis of the weights, greedily from pts[0]
    basis, low, rhs = [0], [], []
    for i in range(1, npts):
        ext = _extend_ldl(low, rhs, *_equation(dots, basis, i))
        if ext is not None:
            basis.append(i)
            low.append(ext[0])
            rhs.append(ext[1])
    dim = len(basis) - 1  # the affine dimension a
    if dim == 0 or kmax <= dim:
        search(kmax)
        return found
    det, y = _solve_ldl(low, rhs)
    apex = candidate(det, [det - sum(y)] + y, basis)
    search(dim)
    if apex not in found:
        search(dim + 1, apex)
    return found


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------


def _stratum_from_beta(nums, den, denom, scaled, group: str) -> BetaStratum | None:
    """The stratum of the candidate beta = nums / (den * denom), or None when
    its expected codimension is negative.  One pass over the weights gives
    the support, <w, beta> = |beta|^2, and the count below it."""
    b2 = sum(map(mul, nums, nums))
    den_nums = [den * c for c in nums]
    support, below = [], 0
    for i, w in enumerate(scaled):
        x = sum(map(mul, w, den_nums))
        if x < b2:
            below += 1
        elif x == b2:
            support.append(i)
    if group == "sym":
        # the inversions of the weakly decreasing beta: before each entry,
        # the entries above it, which end at its first index
        dim_gp = sum(map(nums.index, nums))
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
    scale = den * denom
    return BetaStratum(tuple([Fraction(c, scale) for c in nums]), Fraction(b2, scale * scale),
                       tuple(support), below, dim_gp, below - dim_gp)


def _permutation_invariant(weights) -> bool:
    """Whether every coordinate permutation preserves the weight multiset,
    multiplicities counted.  Checked on the adjacent transpositions, which
    generate S_m: each is a bijection of vectors, so it preserves the
    multiset when it maps every weight to one of the same multiplicity."""
    counts = Counter(weights)
    return all(
        counts[w[:i] + (w[i + 1], w[i]) + w[i + 2:]] == c
        for i in range(len(weights[0]) - 1)
        for w, c in counts.items()
    )


def _rearrangements(nums):
    """Each distinct rearrangement of the weakly decreasing ``nums`` once, as
    a coordinate permutation perm: the rearrangement is [nums[t] for t in
    perm].  The rearrangements are the lexicographic successors of the
    increasing one (Narayana's next permutation, which skips repeats), and
    every swap and reversal of the values is made on perm too."""
    m = len(nums)
    vals, perm = list(reversed(nums)), list(reversed(range(m)))
    while True:
        yield tuple(perm)
        k = m - 2
        while k >= 0 and vals[k] >= vals[k + 1]:
            k -= 1
        if k < 0:
            return
        j = m - 1
        while vals[k] >= vals[j]:
            j -= 1
        vals[k], vals[j] = vals[j], vals[k]
        perm[k], perm[j] = perm[j], perm[k]
        vals[k + 1:] = vals[:k:-1]
        perm[k + 1:] = perm[:k:-1]


def _index_set(weights, group: str, budget: int | None) -> list:
    """The index set of ``weights`` for the group kind ``group``, ordered by
    (|beta|^2, beta).

    Chamber reduction needs the Weyl group to preserve the weight multiset.
    The torus goes by orbits when every coordinate permutation preserves it:
    the kernel then returns one sorted candidate per S_m-orbit, and a
    permutation pi of the coordinates permutes the weights, so the stratum of
    pi(beta) has the n_beta and |beta|^2 of beta's, and its support holds the
    weights pi(s) for s in beta's support; a weight that occurs several times
    contributes each of its indices.
    """
    if not weights:
        raise ValueError("empty weight list")
    if budget is None:
        budget = DEFAULT_BUDGET
    # weight i is scaled[i] / denom: the kernel and the bookkeeping work on scaled
    scaled, denom = scaled_integers(weights)
    rk = rank(scaled)
    invariant = _permutation_invariant(scaled)
    if group == "sym" and not invariant:
        raise ValueError(
            "weight multiset is not permutation-invariant; "
            "the symmetric Weyl reduction does not apply"
        )
    if group == "pgl2":
        if rk != 1:
            raise ValueError("pgl2 mode expects weights on a single line")
        if Counter(tuple(-c for c in w) for w in scaled) != Counter(scaled):
            raise ValueError(
                "weight ladder is not symmetric under negation; "
                "the rank-1 Weyl reduction does not apply"
            )
    by_orbits = group == "torus" and invariant
    cands = projection_candidates(scaled, rk, budget, group == "sym" or by_orbits)
    if group == "pgl2":
        # the Weyl group of PGL2 acts on the line by beta -> -beta
        cands = {(max(nums, tuple(-c for c in nums)), den) for nums, den in cands}
    where = {}
    if by_orbits:
        for i, w in enumerate(scaled):
            where.setdefault(w, []).append(i)
    out = []
    for nums, den in cands:
        stratum = _stratum_from_beta(nums, den, denom, scaled, group)
        if stratum is None:
            continue
        if not by_orbits:
            out.append(stratum)
            continue
        points = {scaled[i] for i in stratum.support}
        for perm in _rearrangements(nums):
            support = [i for p in points for i in where[tuple([p[t] for t in perm])]]
            support.sort()
            out.append(BetaStratum(
                tuple([stratum.beta[t] for t in perm]), stratum.norm2, tuple(support),
                stratum.n_beta, 0, stratum.codim_expected))
    # over one common denominator every beta is an integer vector, so
    # |beta|^2 and beta compare as those of the vector; no two betas tie
    keys = [(sum(map(mul, c, c)), c) for c in scaled_integers([s.beta for s in out])[0]]
    return [out[i] for i in sorted(range(len(out)), key=keys.__getitem__)]


def instability_index_set(
    ws: WeightSystem, weyl: str = "sym", budget: int | None = None
) -> list:
    """Index set for a hypersurface weight system.

    ``weyl`` is "sym" for the full coordinate-permutation Weyl group (strata
    reduced to weakly decreasing representatives, parabolic dimension counted
    by inversions) or "trivial" for a torus.  Index elements whose expected
    codimension is negative index provably empty strata and are dropped.
    ``budget`` bounds the flat subset count; None is `DEFAULT_BUDGET`.
    """
    group = {"sym": "sym", "trivial": "torus"}[weyl]
    return _index_set(ws.weights, group, budget)


def normal_rep_strata(rep, group: str, budget: int | None = None) -> list:
    """Index set for a stabilizer representation on a normal slice.

    ``group`` is "torus" (trivial Weyl group, zero parabolic contribution) or
    "pgl2" (one-dimensional torus with a single positive root; nonzero strata
    get a one-dimensional flag-variety correction).  In "pgl2" mode the
    weights lie on one line through the origin, and of beta and -beta the
    index set keeps the lexicographically larger.
    """
    if group not in ("torus", "pgl2"):
        raise ValueError("group must be 'torus' or 'pgl2'")
    return _index_set(rep.weights, group, budget)


def weyl_fiber_count(beta_prime, betas, sign=False) -> int:
    """Number of index-set elements in the ambient-Weyl orbit of beta_prime.

    The ambient Weyl group permutes coordinates; membership in the orbit is
    equality of sorted coordinate multisets.  With ``sign``, the stabilizer
    Weyl group acts by beta -> -beta and the count is of the classes
    {beta, -beta} in that fiber.
    """
    beta_prime = vec(beta_prime)
    members = [vec(b) for b in betas]
    if beta_prime not in members:
        raise ValueError("beta_prime is not an element of the index set")
    key = tuple(sorted(beta_prime))
    fiber = [b for b in members if tuple(sorted(b)) == key]
    if not sign:
        return len(fiber)
    return len({min(b, tuple(-c for c in b)) for b in fiber})


class SupportRecord(Record):
    r: int
    codim_expected: int
    beta: tuple
    support_closed: tuple = ()
    _not_in_repr = ("support_closed",)


def maximal_support_report(ws: WeightSystem, strata) -> list:
    """Support-maximal nonzero strata, i.e. maximal destabilized monomial sets.

    For each nonzero beta the closed positive side {alpha . beta >= |beta|^2}
    is formed; strata whose closed side is maximal under inclusion are the
    maximal unstable families.  Records carry r = |closed side|.
    """
    scaled, denom = scaled_integers(ws.weights)
    sides = []
    for s in strata:
        if s.is_zero():
            continue
        # beta * denom = nums / den, over the common denominator of its coordinates
        (nums,), den = scaled_integers([[c * denom for c in s.beta]])
        b2 = sum(map(mul, nums, nums))
        sides.append((frozenset(i for i, w in enumerate(scaled)
                                if den * sum(map(mul, w, nums)) >= b2), s))
    records = []
    for closed, s in sides:
        if any(closed < other for other, _ in sides):
            continue
        records.append(
            SupportRecord(len(closed), s.codim_expected, s.beta, tuple(sorted(closed)))
        )
    records.sort(key=lambda r: (r.r, r.codim_expected, r.beta))
    # distinct strata can share a closed side only if they are equal; dedup
    out = {}
    for r in records:
        out.setdefault(r.support_closed, r)
    return list(out.values())


def verify_strata_against_oracle(weights, strata, max_support: int | None = None):
    """Certify that each beta is the closest point to the origin of the hull
    of its support; a failed check raises AssertionError.

    beta is the closest point of conv(S) if and only if every s in S has
    <s, beta> = |beta|^2 and beta lies in conv(S).  The strata fall into
    classes by the sorted scaled beta.  The first member of a class is
    certified in full: its support and n_beta are recomputed from the
    weights in scaled integers and must equal the stratum's record, and
    membership needs a barycentric witness lambda >= 0 with sum(lambda) = 1
    and sum(lambda_i * s_i) = beta, which `_hull_witness` searches for and
    which is checked exactly here.

    Every later member of a class is the image pi(beta) of the first member's
    beta under a coordinate permutation pi.  When pi maps the weight multiset
    to itself, pi is an isometry that carries the first member's face onto
    this one's, so the certificate carries over: the record's support must be
    the indices of the weights pi(s), s in the first member's support, and
    its n_beta that of the first member, and it is certified when the first
    member was.  Whether every coordinate permutation preserves the weight
    multiset, multiplicities counted, is checked here on the adjacent
    transpositions, which generate S_m.  When it does not, a class holds only
    equal betas and pi is the identity.  Neither the candidate kernel nor the
    index set's helpers are used.

    Nonzero strata whose support has more than ``max_support`` points are
    not certified.  A zero stratum is always certified, as 0 lying in the
    hull of all the weights, but not counted: the return value is the number
    of nonzero strata certified.
    """
    ratios = [[c.as_integer_ratio() for c in w] for w in weights]
    denom = lcm(*{d for w in ratios for _, d in w})
    pts = [tuple([n * (denom // d) for n, d in w]) for w in ratios]
    where = {}
    for i, p in enumerate(pts):
        where.setdefault(p, []).append(i)
    # each adjacent transposition is a bijection of vectors, so it preserves
    # the multiset when it maps every weight to one of the same multiplicity
    invariant = all(
        len(where.get(p[:t] + (p[t + 1], p[t]) + p[t + 2:], ())) == len(at)
        for p, at in where.items()
        for t in range(len(p) - 1)
    )
    firsts = {}
    checked = 0
    for s in strata:
        # beta * denom = nums / den in lowest terms: over beta's common
        # denominator L, only gcd(L, denom) cancels
        ratios = [c.as_integer_ratio() for c in s.beta]
        den = lcm(*[d for _, d in ratios])
        g = gcd(den, denom)
        nums = [n * (den // d) * (denom // g) for n, d in ratios]
        den //= g
        order = range(len(nums))
        if invariant:
            order = sorted(order, key=nums.__getitem__)
        key = tuple([nums[t] for t in order]), den
        first = firsts.get(key)
        if first is None:
            b2 = sum(map(mul, nums, nums))
            den_nums = [den * c for c in nums]
            support, n_beta = [], 0
            for i, p in enumerate(pts):
                x = sum(map(mul, p, den_nums))
                if x < b2:
                    n_beta += 1
                elif x == b2:
                    support.append(i)
            support = tuple(support)
        else:
            rep_order, face, n_beta, counted = first
            # pi with nums[t] = rep[pi[t]], matching the two in sorted order,
            # maps a weight w to w o pi
            pi = [0] * len(nums)
            for t, r in zip(order, rep_order):
                pi[t] = r
            support = tuple(sorted(
                i for p in face for i in where[tuple([p[t] for t in pi])]))
        if support != tuple(s.support) or n_beta != s.n_beta:
            raise AssertionError(
                f"face mismatch at beta={s.beta}: support {support} and n_beta "
                f"{n_beta} from {'its class' if first else 'the weights'}, "
                f"{s.support} and {s.n_beta} recorded"
            )
        if first is not None:
            checked += counted
            continue
        nonzero = any(nums)
        counted = False
        if not (nonzero and max_support is not None and len(support) > max_support):
            hull = [[den * c for c in pts[i]] for i in support]
            lam, lam_den = _hull_witness(hull, nums)
            if not (min(lam, default=0) >= 0 and sum(lam) == lam_den and [
                sum(map(mul, lam, col)) for col in zip(*hull)] == [lam_den * b for b in nums]
            ):
                raise AssertionError(
                    f"oracle: beta={s.beta} does not lie in the hull of its support"
                )
            counted = nonzero
        firsts[key] = order, {pts[i] for i in support}, n_beta, counted
        checked += counted
    return checked


def _hull_witness(points, target) -> tuple:
    """Barycentric coordinates of ``target`` on ``points`` (integer vectors)
    from an exact phase-I simplex.

    Searches lambda >= 0 with sum(lambda) = 1 and sum(lambda_i * points[i])
    = target: one artificial variable per equation, minimizing their sum by
    Bland's rule (smallest entering column, ties in the ratio test to the
    smallest basic variable), which cannot cycle (Chvatal, *Linear
    Programming*, ch. 3).  The tableau rows are integer, each reduced by its
    gcd; an artificial that leaves the basis is dropped.  When the points and
    the target all have one coordinate sum, as traceless weights do, the last
    coordinate's equation follows from the others and sum(lambda) = 1, and is
    left out.  Returns (nums, den) with lambda_i = nums[i] / den, read off the
    last basis whether or not it is feasible: the caller checks the witness.
    """
    k = len(points)
    rows = [[p[t] for p in points] + [b] for t, b in enumerate(target)]
    if len({sum(p) for p in points} | {sum(target)}) == 1:
        rows.pop()
    rows.append([1] * (k + 1))
    rows = [r if r[-1] >= 0 else [-x for x in r] for r in rows if any(r)]
    # basic variable of each row: a column, or k + row for its artificial
    basis = list(range(k, k + len(rows)))
    # phase-I objective as an equation w*s + sum(obj[j] x_j) = obj[k], s > 0
    obj = [sum(col) for col in zip(*rows)]
    while obj[k]:
        c = next((j for j in range(k) if obj[j] > 0), None)
        if c is None:
            break  # optimal with a positive artificial: infeasible
        # ratio test: the least rhs / entry, ties to the least basic variable
        best = None
        for i, row in enumerate(rows):
            a = row[c]
            if a > 0:
                if best is not None:
                    lhs, rhs = row[k] * piv[c], piv[k] * a
                    if lhs > rhs or lhs == rhs and basis[i] > basis[best]:
                        continue
                best, piv = i, row
        p = piv[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != best:
                rows[i] = _reduce([p * x - f * y for x, y in zip(row, piv)])
        obj = _reduce([p * x - obj[c] * y for x, y in zip(obj, piv)])
        basis[best] = c
    lam_den = lcm(*[row[j] for row, j in zip(rows, basis) if j < k])
    lam = [0] * k
    for row, j in zip(rows, basis):
        if j < k:
            lam[j] = row[k] * (lam_den // row[j])
    return lam, lam_den


def _reduce(row) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


__all__ = [
    "BetaStratum",
    "SupportRecord",
    "ResourceCapError",
    "DEFAULT_BUDGET",
    "instability_index_set",
    "normal_rep_strata",
    "weyl_fiber_count",
    "maximal_support_report",
    "verify_strata_against_oracle",
]
