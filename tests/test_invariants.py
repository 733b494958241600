from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratify._backend import ResourceCapError
from stratify.eisenstein import E3, weyl_group
from stratify.invariants import (
    abelian_quotient_betti,
    close_group,
    molien,
    wreath_symmetrize,
)
from stratify.series import BettiTable, TruncatedSeries, gf_expand

DIHEDRAL_GENS = [[[0, 1], [1, 0]], [[-1, 1], [-1, 0]]]
PERM3_GENS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[-1, 1, 0], [-1, 0, 0], [3, 0, 1]]]


class TestCloseGroup:
    def test_dihedral_order_six(self):
        assert close_group(DIHEDRAL_GENS).order == 6

    def test_single_triflection_order_three(self):
        g = close_group([[[(0, 1)]]])  # multiplication by omega on a line
        assert g.order == 3 and g.ring == "E"

    def test_triflection_group_order(self):
        assert weyl_group(E3).order == 648

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            close_group(DIHEDRAL_GENS, cap=3)

    def test_rejects_singular_generator(self):
        with pytest.raises(ValueError):
            close_group([[[1, 0], [1, 0]]])

    def test_canonical_ordering_deterministic(self):
        a = close_group(DIHEDRAL_GENS).elements
        b = close_group(list(reversed(DIHEDRAL_GENS))).elements
        assert a == b

    def test_closure_cache_round_trip(self, tmp_path):
        g1 = close_group([[[(0, 1)]]], cache_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        g2 = close_group([[[(0, 1)]]], cache_dir=str(tmp_path))
        assert g1.elements == g2.elements


class TestMolien:
    def test_dihedral_invariants(self):
        g = close_group(DIHEDRAL_GENS)
        assert molien(g, 2, 12) == gf_expand([(4, 1), (6, 1)], 12)

    def test_three_dimensional_permutation_action(self):
        g = close_group(PERM3_GENS)
        assert molien(g, 2, 10) == gf_expand([(2, 1), (4, 1), (6, 1)], 10)

    def test_trivial_group(self):
        g = close_group([[[1]]])
        assert molien(g, 2, 6) == gf_expand([(2, 1)], 6)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3))
    def test_trivial_group_matches_gf_expand(self, dim, g_half):
        ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
        grp = close_group([ident])
        assert molien(grp, 2 * g_half, 8) == gf_expand([(2 * g_half, dim)], 8)

    def test_constant_term_one_and_integrality(self):
        g = close_group(DIHEDRAL_GENS)
        s = molien(g, 2, 14)
        assert s[0] == 1
        assert all(c.denominator == 1 and c >= 0 for c in s.coeffs)

    def test_central_extension_factorization(self):
        # a central 1-torus acting trivially factors out as its classifying series
        order = 12
        full = gf_expand([(2, 1), (4, 1), (6, 1)], order)  # rank-3 invariants
        quotient = full / gf_expand([(2, 1)], order)
        assert quotient == gf_expand([(4, 1), (6, 1)], order)
        assert gf_expand([(2, 1)], order) * quotient == full


class TestAbelianQuotients:
    def test_rank3_triflection_quotient(self):
        w3 = weyl_group(E3)
        t = abelian_quotient_betti(w3, 3)
        assert t.even() == [1, 1, 1, 1] and t.odd() == [0, 0, 0]

    def test_trivial_group_elliptic_curve(self):
        ident = [[(1, 0)]]
        g = close_group([ident])
        from stratify.invariants import FiniteMatrixGroup
        g = FiniteMatrixGroup(g.ring, g.dim, g.elements, g.gens, form=(3, 0))
        t = abelian_quotient_betti(g, 1)
        assert list(t.betti) == [1, 2, 1]

    def test_order_six_quotient_is_projective_line(self):
        g = close_group([[[(0, 1)]], [[(-1, 0)]]])
        from stratify.invariants import FiniteMatrixGroup
        g = FiniteMatrixGroup(g.ring, g.dim, g.elements, g.gens, form=(3, 0))
        t = abelian_quotient_betti(g, 1)
        assert list(t.betti) == [1, 0, 1]

    def test_unitarity_violation_detected(self):
        bad = [[(2, 0)]]  # not unitary for the rank-1 form
        g = close_group([[[(1, 0)]]])
        from stratify.invariants import FiniteMatrixGroup
        g = FiniteMatrixGroup("E", 1, (tuple([2, 0]),), (), form=(3, 0))
        with pytest.raises(ValueError):
            abelian_quotient_betti(g, 1)

    def test_requires_eisenstein_ring(self):
        g = close_group(DIHEDRAL_GENS)
        with pytest.raises(ValueError):
            abelian_quotient_betti(g, 2, form=(3, 0, 0, 0, 0, 0, 3, 0))


class TestWreath:
    def test_square_symmetrization(self):
        p = TruncatedSeries.from_coeffs([1, 0, 1, 0, 1, 0, 1, 0, 1], 16)
        got = wreath_symmetrize(p, 2)
        assert got.integer_coeffs() == [
            1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1]

    def test_cube_symmetrization(self):
        p = TruncatedSeries.from_coeffs([1, 0, 1, 0, 1, 0, 1], 18)
        got = wreath_symmetrize(p, 3)
        assert got.integer_coeffs() == [
            1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 0, 1, 0, 1]

    def test_constant(self):
        p = TruncatedSeries.one(4)
        for n in (1, 2, 3, 4):
            assert wreath_symmetrize(p, n) == p

    def test_betti_table_form(self):
        t = BettiTable.of_projective_space(1)
        got = wreath_symmetrize(t, 3)
        assert got.complex_dim == 3 and got.even() == [1, 1, 1, 1]

    def test_refuses_odd_classes(self):
        p = TruncatedSeries.from_coeffs([1, 1], 1)
        with pytest.raises(ValueError):
            wreath_symmetrize(p, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    def test_matches_explicit_cycle_index_formulas(self, even_coeffs):
        coeffs = []
        for c in even_coeffs:
            coeffs.extend([c, 0])
        p = TruncatedSeries.from_coeffs(coeffs, 8)
        two = (p * p + p.substitute_power(2)).scale(Fraction(1, 2))
        assert wreath_symmetrize(p, 2) == two
        three = (p * p * p
                 + (p * p.substitute_power(2)).scale(3)
                 + p.substitute_power(3).scale(2)).scale(Fraction(1, 6))
        assert wreath_symmetrize(p, 3) == three


def test_molien_rejects_odd_generator_degree():
    g = close_group(DIHEDRAL_GENS)
    with pytest.raises(ValueError):
        molien(g, 3, 6)
