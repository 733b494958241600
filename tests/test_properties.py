"""Cross-cutting property suites.

These never pin golden values: each asserts a structural invariant that must
hold for arbitrary admissible inputs, so they stay meaningful even if a
regression value elsewhere drifts.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import z_pair
from stratify._exact import det
from stratify.discriminant import discriminant_form, smith_normal_form
from stratify.eisenstein import EisInt, eis_lattice
from hull_reference import closest_point, dot, norm2
from stratify.strata import instability_index_set
from stratify.weights import WeightSystem, vec
from stratify.weyl import ZLattice, enumerate_vectors, z_form


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------

small_vectors = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(small_vectors)
def test_every_emitted_beta_is_a_closest_point(pts):
    ws = WeightSystem(2, 1, tuple(), tuple(vec(p) for p in pts))
    for s in instability_index_set(ws, weyl="trivial"):
        support_pts = [vec(pts[i]) for i in s.support]
        assert closest_point(support_pts) == s.beta
        # wall conditions: support on the wall, n_beta strictly below
        below = sum(1 for p in pts if dot(vec(p), s.beta) < norm2(s.beta))
        assert below == s.n_beta


@settings(max_examples=30, deadline=None)
@given(small_vectors)
def test_index_set_is_permutation_equivariant(pts):
    # close the multiset under coordinate permutations, as for a group action
    from itertools import permutations

    closed = sorted({tuple(p[i] for i in perm)
                     for p in pts for perm in permutations(range(3))})
    ws = WeightSystem(2, 1, tuple(), tuple(vec(p) for p in closed))
    base = instability_index_set(ws, weyl="sym")
    rotated = WeightSystem(
        2, 1, tuple(), tuple(vec((p[1], p[2], p[0])) for p in closed))
    other = instability_index_set(rotated, weyl="sym")
    assert [(s.beta, s.norm2, s.codim_expected) for s in base] == [
        (s.beta, s.norm2, s.codim_expected) for s in other]


def test_symmetric_reduction_rejects_asymmetric_multiset():
    ws = WeightSystem(2, 1, tuple(), (vec((0, 0, 1)),))
    with pytest.raises(ValueError):
        instability_index_set(ws, weyl="sym")


@settings(max_examples=40, deadline=None)
@given(small_vectors)
def test_zero_stratum_iff_origin_in_some_hull(pts):
    ws = WeightSystem(2, 1, tuple(), tuple(vec(p) for p in pts))
    bset = instability_index_set(ws, weyl="trivial")
    has_zero = any(s.is_zero() for s in bset)
    origin_reachable = closest_point(pts) == vec((0, 0, 0)) or any(
        all(c == 0 for c in p) for p in pts)
    # the global closest point is 0 iff 0 lies in the full hull; the zero
    # stratum appears exactly when some (hence the full) hull contains 0
    assert has_zero == (closest_point(pts) == vec((0, 0, 0))) or origin_reachable


# ---------------------------------------------------------------------------
# integral lattices
# ---------------------------------------------------------------------------

def _random_even_negdef(draw_ints):
    """Build a small even negative definite gram from a random integer matrix."""
    n = len(draw_ints)
    b = [[draw_ints[i][j] for j in range(n)] for i in range(n)]
    # gram = -2 * (B B^T + n * I): even, negative definite
    g = [[-2 * (sum(b[i][k] * b[j][k] for k in range(n)) + (n + 1) * (i == j))
          for j in range(n)] for i in range(n)]
    return ZLattice(n, tuple(tuple(r) for r in g))


matrix2 = st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                   min_size=2, max_size=2)
matrix3 = st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3),
                   min_size=3, max_size=3)


@settings(max_examples=25, deadline=None)
@given(st.one_of(matrix2, matrix3))
def test_smith_normal_form_properties(rows):
    zl = _random_even_negdef(rows)
    g = [list(r) for r in zl.gram]
    d, u, v = smith_normal_form([row[:] for row in g])
    n = zl.rank
    # U G V == D
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    ugv = [[sum(ug[i][k] * v[k][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    assert ugv == d
    # diagonal, divisibility chain, determinant preserved up to sign
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(n)]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert prod(diag) == abs(zl.det())


@settings(max_examples=20, deadline=None)
@given(matrix2)
def test_discriminant_group_order_matches_determinant(rows):
    zl = _random_even_negdef(rows)
    n = zl.rank
    disc = discriminant_form(zl)
    assert prod(disc.invariant_factors) == abs(zl.det())
    for w, q, f in zip(disc.generators, disc.q_values, disc.invariant_factors):
        assert 0 <= q < 2
        # the form takes values in (2/f)Z mod 2Z on an order-f generator
        assert (q * f) % 2 == 0 or (q * f).denominator == 1
        # w lies in the dual lattice and has order exactly f in L^*/L
        assert all(Fraction(sum(zl.gram[i][j] * w[j] for j in range(n))).denominator == 1
                   for i in range(n))
        assert all(Fraction(f * x).denominator == 1 for x in w)
        for p in range(2, f + 1):
            if f % p == 0 and all(p % r for r in range(2, isqrt(p) + 1)):
                assert any(Fraction(f // p * x).denominator != 1 for x in w)
        assert q == Fraction(z_pair(zl, w, w)) % 2


@settings(max_examples=15, deadline=None)
@given(matrix2, st.integers(1, 8))
def test_enumerated_vectors_have_the_stated_norm(rows, bound):
    zl = _random_even_negdef(rows)
    target = -2 * bound
    for v in enumerate_vectors(zl, target):
        assert z_pair(zl, v, v) == target


@settings(max_examples=15, deadline=None)
@given(st.one_of(matrix2, matrix3), st.integers(1, 12), st.sampled_from((1, -1)))
def test_enumeration_matches_brute_force_in_a_box(rows, half, sign):
    neg = _random_even_negdef(rows)
    n = neg.rank
    zl = ZLattice(n, tuple(tuple(sign * x for x in row) for row in neg.gram))
    target = -2 * sign * half
    got = set(enumerate_vectors(zl, target))
    # |(v, v)| >= 2 (n + 1) |v|^2, so every solution has |v|^2 <= 12 / 3 and
    # lies in the box
    box = 3
    brute = {v for v in product(range(-box, box + 1), repeat=n)
             if any(v) and z_pair(zl, v, v) == target}
    assert got == brute


# ---------------------------------------------------------------------------
# Eisenstein structures
# ---------------------------------------------------------------------------

def test_positive_definite_enumeration():
    one_dim = ZLattice(1, ((2,),))
    assert enumerate_vectors(one_dim, 2) == [(-1,), (1,)]
    from stratify.weyl import enumerate_roots

    assert len(enumerate_roots(one_dim)) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(-2, 2), st.integers(-2, 2))
def test_z_form_even_and_determinant_law(diag_scale, a, b):
    # rank-2 hermitian lattice with theta-valued off-diagonal entry
    theta = EisInt(1, 2)
    off = EisInt(a, b) * theta
    gram = [[EisInt(3 * diag_scale, 0), off],
            [off.conj(), EisInt(3 * (diag_scale + abs(a) + abs(b) + 1), 0)]]
    lat = eis_lattice([[(e.a, e.b) for e in row] for row in gram])
    zl = z_form(lat)
    assert zl.is_even()
    assert abs(zl.det()) * 9 == det(lat.gram).norm()
