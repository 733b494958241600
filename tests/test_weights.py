from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hull_reference import dot
from stratify._pure import ResourceCapError
from stratify.weights import MAX_WEIGHTS, hypersurface_weights, monomials_of_degree


class TestHypersurfaceWeights:
    def test_cubic_threefolds(self):
        ws = hypersurface_weights(4, 3)
        assert len(ws.monomials) == 35
        i = ws.monomials.index((3, 0, 0, 0, 0))
        assert ws.weights[i] == tuple(
            Fraction(x, 5) for x in (12, -3, -3, -3, -3))

    def test_cubic_surfaces_count(self):
        assert len(hypersurface_weights(3, 3).monomials) == 20

    def test_binary_degree_12_ladder(self):
        ws = hypersurface_weights(1, 12)
        # oracle: direct application of the assignment I - (d/2)(1,1)
        expected = sorted((Fraction(j - 6), Fraction(6 - j)) for j in range(13))
        assert sorted(ws.weights) == expected
        ladder = sorted(dot(w, (Fraction(1), Fraction(-1))) for w in ws.weights)
        assert ladder == [Fraction(2 * j - 12) for j in range(13)]

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            hypersurface_weights(0, 3)
        with pytest.raises(ValueError):
            hypersurface_weights(2, 0)

    def test_monomials_lexicographic(self):
        mons = monomials_of_degree(2, 2)
        assert mons == sorted(mons)
        assert len(mons) == comb(4, 2)

    def test_monomials_against_a_filtered_product(self):
        for n in range(4):
            for d in range(5):
                expected = [e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d]
                assert monomials_of_degree(n, d) == expected

    def test_too_many_monomials_hit_the_cap(self):
        assert len(hypersurface_weights(1, MAX_WEIGHTS - 1).monomials) == MAX_WEIGHTS
        for n, d in ((1, MAX_WEIGHTS), (2000, 2), (2, 10**12), (10**12, 10**12)):
            with pytest.raises(ResourceCapError, match="the cap"):
                hypersurface_weights(n, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4))
def test_weights_sum_to_zero(n, d):
    ws = hypersurface_weights(n, d)
    for w in ws.weights:
        assert sum(w) == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_weight_multiset_permutation_invariant(n, d):
    ws = hypersurface_weights(n, d)
    base = sorted(ws.weights)
    for perm in permutations(range(n + 1)):
        permuted = sorted(tuple(w[p] for p in perm) for w in ws.weights)
        assert permuted == base


def test_total_weight_vanishes():
    ws = hypersurface_weights(4, 3)
    total = [sum(w[i] for w in ws.weights) for i in range(5)]
    assert all(t == 0 for t in total)
