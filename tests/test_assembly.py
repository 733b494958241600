from fractions import Fraction

import pytest

from stratify.assembly import (
    StratumContribution,
    b_shift,
    blowup_correction,
    extra_term,
    main_term,
    semistable_series,
)
from stratify.series import BettiTable, TruncatedSeries, gf_expand


def contribution(codim, series, w=1):
    return StratumContribution(codim=codim, series=series, weyl_share=w)


ONE10 = TruncatedSeries.one(10)


class TestSemistableSeries:
    def test_cubic_threefolds(self):
        s = semistable_series(34, [2, 3, 4, 5], [contribution(5, ONE10)], 10)
        assert s.integer_coeffs() == [1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 6]

    def test_cubic_surfaces(self):
        s = semistable_series(19, [2, 3, 4], [], 4)
        assert s.integer_coeffs() == [1, 0, 1, 0, 2]

    def test_binary_degree_12(self):
        s = semistable_series(12, [2], [], 9)
        assert s == gf_expand([(2, 1), (4, 1)], 9)


class TestMainTerm:
    def test_chordal(self):
        s = main_term(gf_expand([(4, 1)], 10), 13, 10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3]

    def test_rank2_center(self):
        s = main_term(gf_expand([(4, 1), (6, 1)], 10), 12, 10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4]

    def test_pencil_center(self):
        center = gf_expand([(4, 1)], 10) * TruncatedSeries.from_coeffs(
            [1, 0, 1], 10)
        s = main_term(center, 10, 10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5]

    def test_small_rank_rejected(self):
        with pytest.raises(ValueError):
            main_term(ONE10, 1, 10)


class TestExtraTerm:
    def test_rank2_case(self):
        bc = gf_expand([(2, 1)], 10)
        items = [contribution(4, bc, 3)] * 3 + [contribution(5, ONE10, 6)] * 6
        s = extra_term(items, 10)
        assert s.integer_coeffs() == [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2]

    def test_pencil_case(self):
        s = extra_term([contribution(5, ONE10, 2)] * 2, 10)
        assert s.integer_coeffs() == [0] * 10 + [1]

    def test_empty(self):
        assert not any(extra_term([], 10).coeffs)

    def test_incomplete_orbit_detected(self):
        with pytest.raises(ValueError):
            extra_term([contribution(5, ONE10, 2)], 10)

    def test_contribution_validation(self):
        with pytest.raises(ValueError):
            StratumContribution(codim=0, series=ONE10)
        with pytest.raises(ValueError):
            StratumContribution(codim=1, series=ONE10, weyl_share=0)


class TestBShift:
    def test_twelve_points_table(self):
        table = BettiTable.from_list(
            [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1], 9)
        s = b_shift(table, 18)
        assert s.integer_coeffs() == [
            0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1]

    def test_rank2_invariant_table(self):
        table = BettiTable.from_list(
            [1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 0, 1, 0, 1], 9)
        s = b_shift(table, 10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3]

    def test_dimension8_table(self):
        table = BettiTable.from_list(
            [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1], 8)
        s = b_shift(table, 10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2]


class TestBlowupCorrection:
    def test_projective_3_space(self):
        e = BettiTable.of_projective_space(3)
        s = blowup_correction(e, 4)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 1]

    def test_rank2_boundary_divisor(self):
        e = BettiTable.from_list(
            [1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 0, 1, 0, 1], 9)
        s = blowup_correction(e, 10, order=10)
        assert s.integer_coeffs() == [0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3]

    def test_empty_divisor(self):
        e = BettiTable(3, tuple([0] * 7))
        assert not any(blowup_correction(e, 4).coeffs)

    def test_palindromic(self):
        e = BettiTable.from_list([1, 0, 2, 0, 2, 0, 1], 3)
        s = blowup_correction(e, 4)
        cs = s.integer_coeffs()
        assert cs[2:] == cs[2:][::-1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            blowup_correction(BettiTable.of_projective_space(3), 7)


def test_b_shift_requires_symmetric_table():
    asym = BettiTable.from_list([1, 0, 2, 0, 1, 0, 1], 3)
    with pytest.raises(ValueError):
        b_shift(asym, 6)
