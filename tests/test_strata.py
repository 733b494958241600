import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hull_reference import (affine_projection, closest_point, dot, fraction_index_set,
                            fraction_oracle, norm2)
from stratify import strata as strata_module
from stratify.orbits import normal_rep_of, parse_poly
from stratify.strata import (
    BetaStratum,
    ResourceCapError,
    instability_index_set,
    maximal_support_report,
    normal_rep_strata,
    projection_candidates,
    verify_strata_against_oracle,
    weyl_fiber_count,
)
from stratify.weights import hypersurface_weights, vec


def brute_force_index_set_rank1(values):
    """Oracle for a rank-1 weight ladder: closest points over all subsets."""
    out = set()
    vals = sorted(set(values))
    for r in range(1, len(vals) + 1):
        for sub in combinations(vals, r):
            if sub[0] <= 0 <= sub[-1]:
                out.add(Fraction(0))
            elif sub[0] > 0:
                out.add(Fraction(sub[0]))
            else:
                out.add(Fraction(-sub[-1]))
    return out


def _solve_bordered(gram, k):
    """Solve [[G, 1], [1, 0]] z = e_k by fraction-free elimination with pivoting.

    Returns (det, nums) with z_i = nums[i] / det, or None when singular.
    """
    n = k + 1
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
        row_r = a[r]
        arr = row_r[r]
        for i in range(n):
            if i != r:
                row_i = a[i]
                air = row_i[r]
                for j in range(r + 1, n + 1):
                    row_i[j] = (arr * row_i[j] - air * row_r[j]) // prev
                row_i[r] = 0
        prev = arr
    return sign * a[n - 1][n - 1], [sign * a[i][n] for i in range(k)]


def flat_candidates(pts, rank, chamber_sort):
    """Reference for `strata.projection_candidates`: every subset, no pruning.

    A subset S solves the bordered system M_S (mu, c) = (1, 0), M_S =
    [[0, 1], [1, G_S]] with G_S the Gram matrix of its points, so its
    barycentric coordinates are c_j = adj(M_S)[j][0] / det(M_S).  The subsets
    are visited depth first in lex order, and adding a point to S borders M_S
    by one row and column v, a: then det = a det(M_S) - v adj(M_S) v and the
    adjugate follows from the Schur complement, exactly in integers.  Below a
    singular subset every subset is solved from scratch by `_solve_bordered`.
    """
    dots = [[sum(a * b for a, b in zip(p, q)) for q in pts] for p in pts]
    npts = len(pts)
    kmax = min(rank + 1, npts)
    found = set()

    def record(det, nums, idx):
        if det < 0:
            det, nums = -det, [-c for c in nums]
        if min(nums) < 0:
            return
        beta = [sum(map(mul, nums, col)) for col in zip(*[pts[i] for i in idx])]
        g = gcd(det, *beta)
        beta = [b // g for b in beta]
        if chamber_sort:
            beta.sort(reverse=True)
        found.add((tuple(beta), det // g))

    def visit(idx, det, adj):
        """Every extension of the subset idx, whose bordered matrix has
        determinant det and adjugate adj (det 0: singular)."""
        for i in range(idx[-1] + 1, npts):
            sub = idx + [i]
            deeper = len(sub) < kmax
            if not det:
                sol = _solve_bordered([[dots[a][b] for b in sub] for a in sub], len(sub))
                if sol is not None:
                    record(*sol, sub)
                if deeper:
                    visit(sub, 0, None)
                continue
            di = dots[i]
            v = [1] + [di[j] for j in idx]
            av = [sum(map(mul, row, v)) for row in adj]
            new = di[i] * det - sum(map(mul, v, av))
            if not new:
                if deeper:
                    visit(sub, 0, None)
                continue
            a0 = av[0]
            record(new, [(new * row[0] + p * a0) // det
                         for row, p in zip(adj[1:], av[1:])] + [-a0], sub)
            if deeper:
                bigger = [[(new * x + p * q) // det for x, q in zip(row, av)] + [-p]
                          for row, p in zip(adj, av)]
                bigger.append([-q for q in av] + [det])
                visit(sub, new, bigger)

    for i in range(npts):
        record(1, [1], [i])
        if kmax > 1:
            visit([i], -1, [[dots[i][i], -1], [-1, 0]])
    return found


def _flat_count(npts, rank):
    return sum(comb(npts, k) for k in range(1, min(rank + 1, npts) + 1))


@st.composite
def invariant_point_sets(draw):
    """Unions of S_m-orbits of integer vectors, with repeats, in random order."""
    m = draw(st.integers(1, 4))
    bases = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                          min_size=1, max_size=3))
    orbit = sorted({p for b in bases for p in permutations(b)})
    pts = orbit + draw(st.lists(st.sampled_from(orbit), max_size=4))
    return draw(st.permutations(pts))


class TestProjectionCandidates:
    """The pruned, symmetry-reduced search against the flat enumeration."""

    LIMIT = 3000  # flat subsets per example, so the reference stays fast

    def _rank(self, draw_rank, pts):
        rank = draw_rank
        while rank > 0 and _flat_count(len(pts), rank) > self.LIMIT:
            rank -= 1
        return rank

    @settings(max_examples=80, deadline=None)
    @given(invariant_point_sets(), st.integers(0, 4), st.booleans())
    def test_invariant_sets(self, pts, rank, chamber_sort):
        rank = self._rank(rank, pts)
        got = projection_candidates(pts, rank, 10**7, chamber_sort)
        assert got == flat_candidates(pts, rank, chamber_sort)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
               st.tuples(*[st.integers(-5, 5)] * m), min_size=1, max_size=12)),
           st.integers(0, 4), st.booleans())
    def test_random_sets(self, pts, rank, chamber_sort):
        # mostly not permutation-invariant: the kernel must see that itself
        rank = self._rank(rank, pts)
        got = projection_candidates(pts, rank, 10**7, chamber_sort)
        assert got == flat_candidates(pts, rank, chamber_sort)

    @pytest.mark.parametrize("n,d", [(1, 12), (2, 3), (3, 3), (4, 3)])
    def test_hypersurfaces(self, n, d):
        pts = [tuple(int(c * (n + 1)) for c in w)
               for w in hypersurface_weights(n, d).weights]
        random.Random(n * 100 + d).shuffle(pts)
        got = projection_candidates(pts, n, 10**7, True)
        assert got == flat_candidates(pts, n, True)
        # a rank below the true rank truncates both searches alike
        assert (projection_candidates(pts, n - 1, 10**7, True)
                == flat_candidates(pts, n - 1, True))

    @staticmethod
    def _key(beta, chamber_sort):
        return (tuple(sorted(beta, reverse=True)) if chamber_sort else beta), 1

    # shifted simplices in general position: the origin projects into the
    # interior and onto no proper face, so only the full subset, at the
    # deepest level the search visits, gives the apex
    @pytest.mark.parametrize("pts, apex", [
        ([(2, -1, 1), (-1, 3, 1), (-2, -1, 1)], (0, 0, 1)),
        ([(2, 0, 0, 1), (0, 3, 0, 1), (0, 0, 1, 1), (-1, -2, -1, 1)], (0, 0, 0, 1)),
    ])
    @pytest.mark.parametrize("chamber_sort", [False, True])
    def test_apex_only_in_the_interior(self, pts, apex, chamber_sort):
        got = projection_candidates(pts, len(pts), 10**7, chamber_sort)
        assert self._key(apex, chamber_sort) in got
        assert got == flat_candidates(pts, len(pts), chamber_sort)

    @pytest.mark.parametrize("chamber_sort", [False, True])
    def test_apex_outside_the_hull(self, chamber_sort):
        # 0 is not in the plane z = 1, and (0, 0, 1) is not in the hull
        pts = [(1, 0, 1), (3, 1, 1), (1, 2, 1), (4, 4, 1), (2, 5, 1)]
        got = projection_candidates(pts, 3, 10**7, chamber_sort)
        assert self._key((0, 0, 1), chamber_sort) not in got
        assert got == flat_candidates(pts, 3, chamber_sort)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("chamber_sort", [False, True])
    def test_rank_below_the_affine_dimension(self, rank, chamber_sort):
        # affine dimension 3, permutation-invariant: the search stops at the
        # caller's rank, with the orbit reduction when chamber_sort is set
        pts = sorted({p for b in [(2, 0, -1, -1), (1, 1, -1, -1), (3, -1, -1, -1)]
                      for p in permutations(b)})
        random.Random(rank).shuffle(pts)
        assert (projection_candidates(pts, rank, 10**7, chamber_sort)
                == flat_candidates(pts, rank, chamber_sort))

    # the rows the kernel eliminates (README and the strata docstring quote
    # them): a broken cut or orderly test would otherwise show only as time
    @pytest.mark.parametrize("n, d, weyl, rows", [
        (4, 3, "sym", 2326), (3, 3, "trivial", 177), (2, 6, "trivial", 133)])
    def test_ldl_extension_counts(self, monkeypatch, n, d, weyl, rows):
        calls = []
        extend = strata_module._extend_ldl

        def spy(*args):
            calls.append(args)
            return extend(*args)

        monkeypatch.setattr(strata_module, "_extend_ldl", spy)
        instability_index_set(hypersurface_weights(n, d), weyl=weyl)
        assert len(calls) == rows

    def test_budget_counts_flat_subsets(self):
        pts = [(1, 0), (0, 1), (1, 0)]
        assert projection_candidates(pts, 1, _flat_count(3, 1), True)
        with pytest.raises(ResourceCapError):
            projection_candidates(pts, 1, _flat_count(3, 1) - 1, True)


class TestClosestPoint:
    def test_symmetric_pair(self):
        assert closest_point([(1, 0), (0, 1)]) == (Fraction(1, 2), Fraction(1, 2))

    def test_two_slice_weights(self):
        got = closest_point([
            (Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)),
            (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)),
        ])
        assert got == (Fraction(-1, 3), Fraction(1, 6), Fraction(1, 6))

    def test_hull_containing_origin(self):
        assert closest_point([(1, 1), (-1, 0), (0, -1)]) == (Fraction(0), Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=5))
    def test_minimality_certificate(self, pts):
        # x = closest point satisfies x.(p - x) >= 0 for every hull generator
        x = closest_point(pts)
        for p in pts:
            assert dot(x, vec(p)) >= norm2(x)


def _record(pts, beta, support=None, n_beta=None):
    """A stratum record for ``beta`` on ``pts``, its face recomputed unless given."""
    b2 = norm2(beta)
    if support is None:
        support = tuple(i for i, p in enumerate(pts) if dot(p, beta) == b2)
    if n_beta is None:
        n_beta = sum(1 for p in pts if dot(p, beta) < b2)
    return BetaStratum(beta=beta, norm2=b2, support=support, n_beta=n_beta,
                       dim_g_mod_p=0, codim_expected=0)


def _certified(pts, record) -> bool:
    try:
        verify_strata_against_oracle(pts, [record])
    except AssertionError:
        return False
    return True


def _is_closest_point(pts, record) -> bool:
    """The reference verdict: beta is the closest point of its support's hull."""
    return bool(record.support) and closest_point(
        [pts[i] for i in record.support]) == record.beta


small_point_sets = st.integers(2, 3).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(-3, 3)] * m), min_size=1, max_size=6)).map(
        lambda pts: [vec(p) for p in pts])


class TestHullCertificate:
    """The closest-point certificate against the brute-force reference."""

    @settings(max_examples=60, deadline=None)
    @given(small_point_sets)
    def test_accepts_reference_closest_point(self, pts):
        beta = closest_point(pts)
        checked = verify_strata_against_oracle(pts, [_record(pts, beta)])
        assert checked == (1 if any(beta) else 0)

    @settings(max_examples=100, deadline=None)
    @given(small_point_sets, st.data())
    def test_agrees_with_reference_on_projections(self, pts, data):
        # the origin's projection onto the affine span of a subset: the
        # candidates the kernel solves for, inside the hull or off it
        idx = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1,
                                 max_size=len(pts[0]) + 1, unique=True))
        found = affine_projection([pts[i] for i in idx])
        if found is None:
            return
        record = _record(pts, found[1])
        assert _certified(pts, record) == _is_closest_point(pts, record)

    @settings(max_examples=60, deadline=None)
    @given(small_point_sets, st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-1)]),
           st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_rejects_beta_moved_off_the_hull(self, pts, factor, shift):
        beta = closest_point(pts)
        for moved in (tuple(factor * c for c in beta),
                      tuple(c + Fraction(d, 3) for c, d in zip(beta, shift))):
            record = _record(pts, moved)
            assert _certified(pts, record) == _is_closest_point(pts, record)
            if not record.support:
                assert not _certified(pts, record)

    @settings(max_examples=60, deadline=None)
    @given(small_point_sets, st.data())
    def test_rejects_support_with_an_index_added_or_dropped(self, pts, data):
        beta = closest_point(pts)
        support = _record(pts, beta).support
        others = [i for i in range(len(pts)) if i not in support]
        edits = [tuple(sorted(support + (i,))) for i in others]
        edits += [support[:j] + support[j + 1:] for j in range(len(support))]
        bad = data.draw(st.sampled_from(edits)) if edits else None
        if bad is not None:
            assert not _certified(pts, _record(pts, beta, support=bad))

    @settings(max_examples=40, deadline=None)
    @given(small_point_sets, st.sampled_from([-1, 1]))
    def test_rejects_a_wrong_n_beta(self, pts, delta):
        beta = closest_point(pts)
        right = _record(pts, beta)
        assert not _certified(pts, _record(pts, beta, n_beta=right.n_beta + delta))

    def test_zero_stratum_needs_the_origin_in_the_hull(self):
        zero = (Fraction(0), Fraction(0))
        around = [vec((1, 0)), vec((-1, 1)), vec((0, -1))]
        assert verify_strata_against_oracle(around, [_record(around, zero)]) == 0
        aside = [vec((1, 0)), vec((0, 1))]
        with pytest.raises(AssertionError):
            verify_strata_against_oracle(aside, [_record(aside, zero)])

    def test_skips_only_nonzero_strata_above_max_support(self):
        pts = [vec((1, 0)), vec((-1, 1)), vec((0, -1)), vec((1, 1))]
        records = [_record(pts, (Fraction(0), Fraction(0))),
                   _record(pts, closest_point([pts[0], pts[3]]))]
        assert verify_strata_against_oracle(pts, records, max_support=1) == 0
        assert verify_strata_against_oracle(pts, records, max_support=2) == 1


small_rationals = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


def _vectors(m, min_size, max_size):
    return st.lists(st.tuples(*[small_rationals] * m), min_size=min_size, max_size=max_size)


@st.composite
def torus_orbit_unions(draw):
    """Unions of S_m-orbits of rational vectors with repeats, in random order:
    a whole orbit repeated keeps the multiset permutation-invariant (the
    index set goes by orbits), a single point repeated keeps only the point
    set invariant (it does not)."""
    m = draw(st.integers(2, 3))
    orbits = [sorted(set(permutations(b))) for b in draw(_vectors(m, 1, 2))]
    pts = [p for orbit in orbits for p in orbit]
    pts += [p for orbit in draw(st.lists(st.sampled_from(orbits), max_size=2)) for p in orbit]
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return draw(st.permutations(pts))


# weight sets each mode accepts: a union of S_m-orbits (sym), any points or
# unions of S_m-orbits with repeats (torus), and a ladder +-t*d on a line
# through the origin of dimension 1-3 (pgl2)
weight_sets_by_mode = st.one_of(
    st.integers(2, 3).flatmap(lambda m: _vectors(m, 1, 3)).map(
        lambda bases: ("sym", [p for b in bases for p in sorted(set(permutations(b)))])),
    st.integers(1, 3).flatmap(lambda m: _vectors(m, 1, 6)).map(lambda pts: ("torus", pts)),
    torus_orbit_unions().map(lambda pts: ("torus", pts)),
    st.tuples(st.integers(1, 3).flatmap(lambda m: st.tuples(*[st.integers(-2, 2)] * m)).filter(any),
              st.lists(small_rationals, min_size=1, max_size=5).filter(any)).map(
        lambda line: ("pgl2", [tuple(s * t * c for c in line[0])
                               for t in line[1] for s in (1, -1)])),
)


class TestIntegerPathAgainstFractions:
    """The scaled-integer index set and oracle against the Fraction reference."""

    @settings(max_examples=120, deadline=None)
    @given(weight_sets_by_mode, st.sampled_from([None, 1, 2, 3]), st.randoms())
    def test_equal_lists_in_equal_order_and_equal_counts(self, case, max_support, rng):
        mode, weights = case
        rep = SimpleNamespace(weights=tuple(weights))
        if mode == "sym":
            got = instability_index_set(rep, weyl="sym")
        else:
            got = normal_rep_strata(rep, mode)
        assert got == fraction_index_set(weights, mode)
        count = fraction_oracle(weights, got, max_support)
        assert verify_strata_against_oracle(weights, got, max_support) == count
        # shuffled, the first stratum of a class of permuted betas, the one
        # the oracle certifies in full, is not the one sorted first
        shuffled = list(got)
        rng.shuffle(shuffled)
        assert verify_strata_against_oracle(weights, shuffled, max_support) == count


class TestTorusByOrbits:
    """The torus index set of permutation-invariant weights, built from one
    stratum per S_m-orbit."""

    @staticmethod
    def _chamber_flags(monkeypatch):
        flags = []
        original = strata_module.projection_candidates

        def spy(weights, rank, budget, chamber_sort):
            flags.append(chamber_sort)
            return original(weights, rank, budget, chamber_sort)

        monkeypatch.setattr(strata_module, "projection_candidates", spy)
        return flags

    @pytest.mark.parametrize("weights, by_orbits", [
        # the orbit of (2, 1, -2) and (0, 0, 0): every multiplicity invariant
        (sorted(set(permutations((2, 1, -2)))) * 2 + [(0, 0, 0)], True),
        # the same point set with (1, 2, -2) once more: only the set is
        # invariant, and the strata of (2, 1, -2) and (1, 2, -2) differ in n_beta
        (sorted(set(permutations((2, 1, -2)))) + [(1, 2, -2)] * 2, False),
    ], ids=["invariant-multiset", "invariant-set-only"])
    def test_multiplicities_decide_the_path(self, monkeypatch, weights, by_orbits):
        flags = self._chamber_flags(monkeypatch)
        got = normal_rep_strata(SimpleNamespace(weights=tuple(weights)), "torus")
        assert flags == [by_orbits]
        assert got == fraction_index_set(weights, "torus")
        assert verify_strata_against_oracle(weights, got) == sum(
            1 for s in got if not s.is_zero())

    @pytest.mark.parametrize("n, d", [(9, 1), (2, 8)])
    def test_equal_to_the_plain_search(self, n, d):
        # (9, 1) has ten coordinates: each distinct rearrangement of a beta is
        # generated once, not one per each of the 10! permutations
        ws = hypersurface_weights(n, d)
        assert instability_index_set(ws, weyl="trivial") == fraction_index_set(
            ws.weights, "torus")

    # the torus censuses at the parent of the orbit construction: the count
    # and a sha256 of (beta, support, n_beta) in index-set order
    @pytest.mark.parametrize("n, d, count, digest, certified", [
        (3, 4, 1289, "a098cbcbb6775da5873e71f44d93230137cfe67bbf84c447f54b32b35babdee1", 968),
        (4, 3, 4501, "a923b32a7033f04c5dbe436a29cad7c6e66a5a912e7b7d0ed48c60623c020554", 1455),
    ], ids=["3-4", "4-3"])
    def test_hypersurface_censuses(self, monkeypatch, n, d, count, digest, certified):
        flags = self._chamber_flags(monkeypatch)
        ws = hypersurface_weights(n, d)
        got = instability_index_set(ws, weyl="trivial")
        assert flags == [True]
        text = json.dumps([[[str(c) for c in s.beta], list(s.support), s.n_beta]
                           for s in got])
        assert len(got) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert all(s.dim_g_mod_p == 0 and s.codim_expected == s.n_beta for s in got)
        assert verify_strata_against_oracle(ws.weights, got, max_support=3) == certified


def _with(s, **changes):
    """The stratum record ``s`` with some fields replaced."""
    fields = dict(beta=s.beta, norm2=s.norm2, support=s.support, n_beta=s.n_beta,
                  dim_g_mod_p=s.dim_g_mod_p, codim_expected=s.codim_expected)
    fields.update(changes)
    return BetaStratum(**fields)


class TestOracleByOrbits:
    """The oracle certifies the first stratum of each class of betas equal up
    to a coordinate permutation and carries that certificate to the rest."""

    @pytest.fixture(scope="class")
    def torus_3_3(self):
        ws = hypersurface_weights(3, 3)
        return ws.weights, instability_index_set(ws, weyl="trivial")

    @staticmethod
    def _later_member(got):
        """Position of a stratum that is not the first of its class, and the
        first member, chosen so that their supports differ."""
        firsts = {}
        for at, s in enumerate(got):
            first = firsts.setdefault(tuple(sorted(s.beta)), s)
            if first is not s and first.support != s.support and not s.is_zero():
                return at, first
        raise AssertionError("no later member with a moved support")

    def test_rejects_the_first_members_support_unpermuted(self, torus_3_3):
        weights, got = torus_3_3
        at, first = self._later_member(got)
        bad = list(got)
        bad[at] = _with(got[at], support=first.support)
        with pytest.raises(AssertionError):
            verify_strata_against_oracle(weights, bad)

    def test_rejects_one_index_swapped_off_the_face(self, torus_3_3):
        weights, got = torus_3_3
        at, _ = self._later_member(got)
        support = got[at].support
        outside = next(i for i in range(len(weights)) if i not in support)
        for j in range(len(support)):
            bad = list(got)
            swapped = tuple(sorted(support[:j] + (outside,) + support[j + 1:]))
            bad[at] = _with(got[at], support=swapped)
            with pytest.raises(AssertionError):
                verify_strata_against_oracle(weights, bad)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rejects_a_wrong_n_beta(self, torus_3_3, delta):
        weights, got = torus_3_3
        at, _ = self._later_member(got)
        bad = list(got)
        bad[at] = _with(got[at], n_beta=got[at].n_beta + delta)
        with pytest.raises(AssertionError):
            verify_strata_against_oracle(weights, bad)

    @staticmethod
    def _witness_calls(monkeypatch):
        calls = []

        def spy(points, target):
            calls.append(len(points))
            return hull_witness(points, target)

        hull_witness = strata_module._hull_witness
        monkeypatch.setattr(strata_module, "_hull_witness", spy)
        return calls

    def test_one_witness_per_class(self, monkeypatch, torus_3_3):
        weights, got = torus_3_3
        calls = self._witness_calls(monkeypatch)
        assert verify_strata_against_oracle(weights, got, max_support=4) == 242
        # 281 strata in 21 classes, 16 of them zero or within the support bound
        classes = {}
        for s in got:
            classes.setdefault(tuple(sorted(s.beta)), s)
        assert len(got) == 281 and len(classes) == 21
        assert len(calls) == 16 == sum(
            1 for s in classes.values() if s.is_zero() or len(s.support) <= 4)

    def test_one_witness_per_stratum_without_invariance(self, monkeypatch):
        # the invariant-set-only weights of TestTorusByOrbits: pi must
        # preserve multiplicities, so no certificate is carried over
        weights = sorted(set(permutations((2, 1, -2)))) + [(1, 2, -2)] * 2
        got = normal_rep_strata(SimpleNamespace(weights=tuple(weights)), "torus")
        assert len({tuple(sorted(s.beta)) for s in got}) < len(got)
        calls = self._witness_calls(monkeypatch)
        assert verify_strata_against_oracle(weights, got) == sum(
            1 for s in got if not s.is_zero())
        assert len(calls) == len(got)
        # a repeated record is a later member of its own class, pi the identity
        calls.clear()
        assert verify_strata_against_oracle(weights, got + got) == 2 * sum(
            1 for s in got if not s.is_zero())
        assert len(calls) == len(got)

    def test_uses_no_index_set_helper(self, monkeypatch, torus_3_3):
        weights, got = torus_3_3
        expected = verify_strata_against_oracle(weights, got, max_support=4)

        def forbidden(*args, **kwargs):
            raise RuntimeError("the oracle called an index-set helper")

        for name in ("projection_candidates", "_permutation_invariant", "_rearrangements",
                     "_stratum_from_beta", "scaled_integers", "_index_set", "_solve_ldl",
                     "_equation", "_extend_ldl"):
            monkeypatch.setattr(strata_module, name, forbidden)
        assert verify_strata_against_oracle(weights, got, max_support=4) == expected == 242


@pytest.mark.parametrize("weights, betas", [
    ([(0, 1), (0, -1)], [(0, 0), (0, 1)]),
    ([(2, 1), (-2, -1)], [(0, 0), (2, 1)]),
    ([(1,), (-1,), (2,), (-2,)], [(0,), (1,), (2,)]),
])
def test_pgl2_keeps_the_larger_of_beta_and_minus_beta(weights, betas):
    got = normal_rep_strata(SimpleNamespace(weights=tuple(weights)), "pgl2")
    assert [s.beta for s in got] == [vec(b) for b in betas]
    assert verify_strata_against_oracle(weights, got) == len(betas) - 1


class TestInstabilityIndexSet:
    def test_cubic_threefolds_minimum(self):
        ws = hypersurface_weights(4, 3)
        bset = instability_index_set(ws)
        nonzero = [s for s in bset if not s.is_zero()]
        assert min(s.codim_expected for s in nonzero) == 5
        assert sum(1 for s in nonzero if s.codim_expected == 5) == 1

    def test_binary_12_matches_interval_oracle(self):
        ws = hypersurface_weights(1, 12)
        bset = instability_index_set(ws)
        got = {dot(s.beta, (Fraction(1), Fraction(-1))) for s in bset}
        ladder = [dot(w, (Fraction(1), Fraction(-1))) for w in ws.weights]
        assert got == brute_force_index_set_rank1(ladder)
        two = next(s for s in bset
                   if dot(s.beta, (Fraction(1), Fraction(-1))) == 2)
        assert two.n_beta == 7 and two.codim_expected == 6

    def test_origin_in_hull_gives_zero_stratum(self):
        ws = hypersurface_weights(2, 3)
        bset = instability_index_set(ws)
        assert any(s.is_zero() for s in bset)
        zero = next(s for s in bset if s.is_zero())
        assert zero.codim_expected == 0 and len(zero.support) == len(ws.weights)

    def test_budget_cap(self):
        ws = hypersurface_weights(4, 3)
        with pytest.raises(ResourceCapError):
            instability_index_set(ws, budget=10)

    def test_every_beta_is_closest_point_of_support(self):
        # oracle cross-check at desk scale
        ws = hypersurface_weights(2, 3)
        bset = instability_index_set(ws)
        checked = verify_strata_against_oracle(ws.weights, bset)
        assert checked == len([s for s in bset if not s.is_zero()])

    def test_cubic_threefold_betas_verify_against_oracle(self):
        ws = hypersurface_weights(4, 3)
        bset = instability_index_set(ws)
        nonzero = sum(1 for s in bset if not s.is_zero())
        assert verify_strata_against_oracle(ws.weights, bset, max_support=9) == 66
        start = time.perf_counter()
        assert verify_strata_against_oracle(ws.weights, bset) == nonzero == 71
        assert time.perf_counter() - start < 1.0

    def test_cubic_fourfold_census(self):
        # the GIT setting of Laza 2009: the default budget refuses its flat
        # count (36.7M subsets), the search itself is small
        ws = hypersurface_weights(5, 3)
        bset = instability_index_set(ws, budget=10**9)
        nonzero = [s for s in bset if not s.is_zero()]
        assert len(bset) == 289
        assert verify_strata_against_oracle(ws.weights, bset, max_support=None) == 288
        assert len(nonzero) == 288
        assert min(s.codim_expected for s in nonzero) == 9
        assert sum(1 for s in nonzero if s.codim_expected == 9) == 1

    def test_codim_weyl_invariance(self):
        # permuting ambient coordinates leaves the (norm2, codim) multiset alone
        ws = hypersurface_weights(2, 3)
        base = instability_index_set(ws)
        permuted_weights = [tuple(w[p] for p in (2, 0, 1)) for w in ws.weights]
        from stratify.strata import _index_set
        other = _index_set(permuted_weights, "sym", 10**7)
        key = lambda strata: sorted((s.norm2, s.codim_expected) for s in strata)
        assert key(base) == key(other)


class TestMaximalSupports:
    def test_six_maximal_unstable_families(self):
        ws = hypersurface_weights(4, 3)
        bset = instability_index_set(ws)
        report = maximal_support_report(ws, bset)
        assert [(r.r, r.codim_expected) for r in report] == [
            (18, 7), (19, 9), (20, 6), (21, 5), (21, 7), (22, 7)]
        # black-dot counts and expected-codimension floors per family
        floors = {18: 7, 19: 6, 20: 6, 22: 6}
        for rec in report:
            if rec.r in floors:
                assert rec.codim_expected >= floors[rec.r]
        r21 = sorted(rec.codim_expected for rec in report if rec.r == 21)
        assert r21[0] == 5 and r21[1] >= 7


class TestNormalRepStrata:
    def setup_method(self):
        f = parse_poly("x0*x1*x2 + x3^3 + x4^3", 5)
        self.split_3d4 = normal_rep_of(f, [[1, 0, -1, 0, 0], [0, 1, -1, 0, 0]])
        f2 = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 + x1*x2*x3", 5)
        self.split_2a5 = normal_rep_of(f2, [[2, 1, 0, -1, -2]], ["x2^3"])
        f3 = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 - 2*x1*x2*x3", 5)
        self.split_chordal = normal_rep_of(f3, [[4, 2, 0, -2, -4]])

    def test_rank2_slice_counts(self):
        st_ = normal_rep_strata(self.split_3d4.normal, "torus")
        nz = [s for s in st_ if not s.is_zero()]
        assert sum(1 for s in nz if s.codim_expected == 4) == 3
        assert sum(1 for s in nz if s.codim_expected == 5) == 6
        assert all(s.codim_expected >= 4 for s in nz)
        others = [s for s in nz if s.codim_expected not in (4, 5)]
        assert all(s.codim_expected >= 6 for s in others)
        verify_strata_against_oracle(self.split_3d4.normal.weights, st_)

    def test_rank1_slice_codims(self):
        st_ = normal_rep_strata(self.split_2a5.normal, "torus")
        nz = [s for s in st_ if not s.is_zero()]
        v = vec((2, 1, 0, -1, -2))
        for s in nz:
            ladder = abs(dot(s.beta, v))
            assert s.codim_expected == 5 + ladder - 2
        assert min(s.codim_expected for s in nz) == 5

    def test_projective_group_slice(self):
        st_ = normal_rep_strata(self.split_chordal.normal, "pgl2")
        nz = [s for s in st_ if not s.is_zero()]
        assert all(s.dim_g_mod_p == 1 for s in nz)
        assert min(s.codim_expected for s in nz) == 6

    def test_pgl2_requires_a_line(self):
        with pytest.raises(ValueError):
            normal_rep_strata(self.split_3d4.normal, "pgl2")

    def test_fiber_counts(self):
        st3 = normal_rep_strata(self.split_3d4.normal, "torus")
        idx = [s.beta for s in st3]
        b4 = vec((Fraction(-1, 3), Fraction(1, 6), Fraction(1, 6), 0, 0))
        b5 = vec((Fraction(-3, 7), Fraction(1, 7), Fraction(2, 7), 0, 0))
        assert weyl_fiber_count(b4, idx) == 3
        assert weyl_fiber_count(b5, idx) == 6
        st2 = normal_rep_strata(self.split_2a5.normal, "torus")
        idx2 = [s.beta for s in st2]
        b2 = vec((Fraction(2, 5), Fraction(1, 5), 0, Fraction(-1, 5), Fraction(-2, 5)))
        assert weyl_fiber_count(b2, idx2) == 2

    def test_fiber_count_rejects_foreign_beta(self):
        st3 = normal_rep_strata(self.split_3d4.normal, "torus")
        with pytest.raises(ValueError):
            weyl_fiber_count(vec((1, 0, 0, 0, -1)), [s.beta for s in st3])

    def test_fiber_count_with_stabilizer_weyl(self):
        st_ = normal_rep_strata(self.split_chordal.normal, "pgl2")
        idx = [s.beta for s in st_]
        nz = [b for b in idx if any(b)]
        # chamber representatives carry one element per +- pair
        assert weyl_fiber_count(nz[0], idx, sign=True) == 1
