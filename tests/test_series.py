import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratify._exact import UNITS, EisInt
from stratify._pure import MAX_ORDER, ResourceCapError
from stratify.assembly import StratumContribution, semistable_series
from stratify.series import (
    BettiTable,
    TruncatedSeries,
    duality_check,
    duality_complete,
    gf_expand,
    inverse,
    lincomb,
    projective_space_series,
)


def naive_product_expansion(factors, order):
    """Independent oracle: multiply out geometric series coefficient lists."""
    coeffs = [1] + [0] * order
    for k, e in factors:
        for _ in range(e):
            geo = [1 if i % k == 0 else 0 for i in range(order + 1)]
            out = [0] * (order + 1)
            for i, a in enumerate(coeffs):
                if a:
                    for j in range(order + 1 - i):
                        out[i + j] += a * geo[j]
            coeffs = out
    return coeffs


class TestGfExpand:
    def test_five_factor_product(self):
        # derived by direct multiplication of geometric series
        factors = [(2, 1), (4, 1), (6, 1), (8, 1), (10, 1)]
        expected = naive_product_expansion(factors, 10)
        assert gf_expand(factors, 10).integer_coeffs() == expected
        assert expected == [1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 7]

    def test_single_geometric(self):
        assert gf_expand([(4, 1)], 8).integer_coeffs() == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_two_factor_product(self):
        assert gf_expand([(2, 1), (4, 1)], 8).integer_coeffs() == [1, 0, 1, 0, 2, 0, 2, 0, 3]

    def test_empty_factor_list(self):
        assert gf_expand([], 5) == TruncatedSeries.one(5)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            gf_expand([(0, 1)], 4)
        with pytest.raises(ValueError):
            gf_expand([(2, 0)], 4)

    @given(st.lists(st.tuples(st.integers(1, 14), st.integers(1, 5)), max_size=4),
           st.integers(0, 12))
    def test_closed_form_equals_repeated_multiplication(self, factors, order):
        # periods above the order included: such a factor is 1
        assert gf_expand(factors, order).integer_coeffs() == naive_product_expansion(
            factors, order)

    def test_huge_multiplicity_at_once(self):
        # C(e - 1 + j, j) for (1 - t^2)^(-e); the factor t^12 is beyond the order
        e = 10**8
        t0 = time.perf_counter()
        got = gf_expand([(2, e), (12, e)], 10).integer_coeffs()
        assert time.perf_counter() - t0 < 1
        assert got == [comb(e - 1 + j // 2, j // 2) if j % 2 == 0 else 0 for j in range(11)]

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=4),
           st.integers(0, 12), st.integers(0, 12))
    def test_truncation_consistency(self, factors, m1, m2):
        lo, hi = sorted((m1, m2))
        full = gf_expand(factors, hi)
        assert full.truncate(lo) == gf_expand(factors, lo)

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=4),
           st.integers(0, 10))
    def test_nonnegative_integer_coefficients(self, factors, order):
        for c in gf_expand(factors, order).coeffs:
            assert type(c) is int and c >= 0


class TestLincomb:
    def test_assembly_of_main_terms(self, cubic3fold_report):
        # the scenario checks the semistable + main - extra combination exactly
        steps = {s["id"]: s for s in cubic3fold_report.steps}
        assert steps["p_kirwan"]["value"]["triples"] == [
            [0, 1, 1], [2, 4, 1], [4, 6, 1], [6, 10, 1], [8, 13, 1], [10, 15, 1]]

    def test_intersection_series_difference(self, cubic3fold_report):
        steps = {s["id"]: s for s in cubic3fold_report.steps}
        assert steps["ip_git"]["value"]["triples"] == [
            [0, 1, 1], [2, 1, 1], [4, 2, 1], [6, 3, 1], [8, 4, 1], [10, 5, 1]]

    def test_identity_term(self):
        s = gf_expand([(2, 1)], 6)
        assert lincomb([(1, 0, s)]) == s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lincomb([])

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                              st.lists(st.integers(-4, 4), min_size=7, max_size=7)),
                    min_size=1, max_size=5))
    def test_reordering_invariance(self, raw):
        terms = [(c, sh, TruncatedSeries.from_coeffs(cs, 6)) for c, sh, cs in raw]
        assert lincomb(terms) == lincomb(list(reversed(terms)))


class TestDuality:
    def test_completion_binary12(self):
        prefix = gf_expand([(2, 1), (4, 1)], 9)
        table = duality_complete(prefix, 9)
        assert table.even() == [1, 1, 2, 2, 3, 3, 2, 2, 1, 1]
        assert table.odd() == [0] * 9

    def test_completion_point(self):
        assert duality_complete(TruncatedSeries.one(0), 0).betti == (1,)

    def test_completion_kirwan_row(self):
        prefix = TruncatedSeries.from_coeffs(
            [1, 0, 4, 0, 6, 0, 10, 0, 13, 0, 15], 10)
        table = duality_complete(prefix, 10)
        assert table.even() == [1, 4, 6, 10, 13, 15, 13, 10, 6, 4, 1]

    def test_completion_rejects_asymmetric_overhang(self):
        s = TruncatedSeries.from_coeffs([1, 0, 2, 0, 7], 4)
        with pytest.raises(ValueError):
            duality_complete(s, 3)

    def test_check_pass(self):
        t = BettiTable.from_list([1, 0, 2, 0, 2, 0, 2, 0, 1], 4)
        assert duality_check(t).ok

    def test_check_fail_reports_first_offense(self):
        t = BettiTable.from_list([1, 0, 2, 0, 1, 0, 1], 3)
        rep = duality_check(t)
        assert not rep.ok and rep.first_offense == (2, 4)

    def test_check_point(self):
        assert duality_check(BettiTable.from_list([1], 0)).ok

    @given(st.integers(0, 6), st.lists(st.integers(0, 9), min_size=7, max_size=7))
    def test_completion_inverts_truncation(self, n, prefix_raw):
        # build a symmetric table, truncate, complete, compare
        betti = [0] * (2 * n + 1)
        for j in range(n + 1):
            v = prefix_raw[j % len(prefix_raw)]
            betti[j] = v
            betti[2 * n - j] = v
        table = BettiTable.from_list(betti, n)
        prefix = table.poincare_series(n)
        assert duality_complete(prefix, n) == BettiTable.from_list(betti, n)


class TestProjectiveSeries:
    def test_small_dimension_truncates(self):
        assert projective_space_series(2, 8).integer_coeffs() == [1, 0, 1, 0, 1, 0, 0, 0, 0]

    def test_large_dimension_saturates(self):
        assert projective_space_series(34, 4).integer_coeffs() == [1, 0, 1, 0, 1]

    def test_table_dimension_is_capped_before_allocating(self):
        # the table of P^n has a Poincare series of order 2n
        assert BettiTable.of_projective_space(MAX_ORDER // 2).betti[-1] == 1
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError):
            BettiTable.of_projective_space(10**12)
        assert time.perf_counter() - t0 < 1
        with pytest.raises(ValueError):
            BettiTable.of_projective_space(-1)


class TestSeriesArithmetic:
    def test_mul_truncates_to_min_order(self):
        a = gf_expand([(2, 1)], 8)
        b = gf_expand([(2, 1)], 4)
        assert (a * b).order == 4

    def test_inverse_round_trip(self):
        s = TruncatedSeries.from_coeffs([1, 2, Fraction(1, 3), 0, 5], 4)
        assert s * TruncatedSeries.from_coeffs(inverse(s.coeffs, 4), 4) == TruncatedSeries.one(4)

    def test_inverse_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            inverse([0, 1], 3)

    def test_no_silent_extension(self):
        s = gf_expand([(2, 1)], 4)
        with pytest.raises(ValueError):
            s.truncate(9)


class TestLincombEffectiveOrder:
    def test_shifted_term_extends_reach(self):
        # a term shifted by t^8 is known exactly to order series.order + 8
        s = TruncatedSeries.one(2)
        out = lincomb([(1, 8, s)])
        assert out.order == 10
        assert out.integer_coeffs() == [0] * 8 + [1, 0, 0]

    def test_mixed_shifts_take_minimum(self):
        a = gf_expand([(2, 1)], 6)
        b = TruncatedSeries.one(2)
        out = lincomb([(1, 0, a), (-1, 3, b)])
        assert out.order == 5
        assert out.integer_coeffs() == [1, 0, 1, -1, 1, 0]

    def test_negative_shift_rejected(self):
        # a shift below 0 would drop terms and wrap an index onto the top
        with pytest.raises(ValueError, match="shifts must be >= 0"):
            lincomb([(1, -1, TruncatedSeries.from_coeffs([2, 0, 1], 6))])


# ---------------------------------------------------------------------------
# the coefficient rule: an int where integral, a Fraction where not
# ---------------------------------------------------------------------------


def ref_mul(a, b):
    """Plain-`Fraction` reference of the truncated product of two
    coefficient lists."""
    return [sum((Fraction(a[i]) * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(min(len(a), len(b)))]


def ref_inverse(a, recip=lambda c: 1 / Fraction(c)):
    """Dense reference of the inverse of a coefficient list: b_0 = 1/a_0 and
    b_k = -(a_1 b_(k-1) + ... + a_k b_0) / a_0, with ``recip`` the inverse of
    a_0 (over Q by default)."""
    r = recip(a[0])
    inv = [r]
    for k in range(1, len(a)):
        inv.append(-sum((a[j] * inv[k - j] for j in range(1, k + 1)), 0 * r) * r)
    return inv


def eis_recip(c):
    """1/c in Q(omega), as conj(c) / N(c) in `Fraction` parts."""
    n = c.norm()
    return EisInt(Fraction(c.a - c.b, n), Fraction(-c.b, n))


def ref_lincomb(terms):
    order = min(len(cs) - 1 + shift for _, shift, cs in terms)
    out = [Fraction(0)] * (order + 1)
    for c, shift, cs in terms:
        for i, x in enumerate(cs[: max(order + 1 - shift, 0)]):
            out[i + shift] += Fraction(c) * x
    return out


def ref_substitute_power(a, k):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if i * k < len(a):
            out[i * k] = Fraction(x)
    return out


def assert_rule(s):
    """``s`` holds an int exactly where its coefficient is integral."""
    for c in s.coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), repr(c)


rationals = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=4, min_value=-6,
                                                      max_value=6))
coeff_lists = st.integers(0, 7).flatmap(lambda n: st.lists(rationals, min_size=n + 1,
                                                           max_size=n + 1))
units = coeff_lists.filter(lambda cs: cs[0] != 0)
eis_ints = st.builds(EisInt, st.integers(-4, 4), st.integers(-4, 4))


def sparse_lists(coeffs, constants):
    """Coefficient lists of up to 13 terms, an invertible constant first and
    about half of the rest zero."""
    return st.builds(lambda c, rest: [c, *rest], constants,
                     st.lists(st.one_of(st.just(0), coeffs), max_size=12))


def series_of(cs):
    return TruncatedSeries.from_coeffs(cs, len(cs) - 1)


class TestAgainstFractionReference:
    @given(coeff_lists)
    def test_from_coeffs(self, cs):
        s = series_of(cs)
        assert_rule(s)
        assert list(s.coeffs) == [Fraction(c) for c in cs]

    @given(coeff_lists, coeff_lists)
    def test_product(self, a, b):
        s = series_of(a) * series_of(b)
        assert_rule(s)
        assert list(s.coeffs) == ref_mul(a, b)

    @given(units)
    def test_inverse(self, a):
        inv = inverse(a, len(a) - 1)
        assert inv == ref_inverse(a)
        if a[0] in (1, -1) and all(type(c) is int for c in a):
            assert all(type(c) is int for c in inv)

    @given(coeff_lists, units)
    def test_quotient(self, a, b):
        m = min(len(a), len(b))
        s = series_of(a[:m]) * series_of(inverse(b, m - 1))
        assert_rule(s)
        assert list(s.coeffs) == ref_mul(a[:m], ref_inverse(b[:m]))

    @given(coeff_lists, rationals)
    def test_scale_add_sub(self, a, c):
        s = series_of(a)
        scaled = s.scale(c)
        assert_rule(scaled)
        assert list(scaled.coeffs) == [Fraction(c) * x for x in a]
        for got, want in ((s + scaled, [x + Fraction(c) * x for x in a]),
                          (s - scaled, [x - Fraction(c) * x for x in a])):
            assert_rule(got)
            assert list(got.coeffs) == want

    @given(st.lists(st.tuples(rationals, st.integers(0, 4), coeff_lists), min_size=1,
                    max_size=4))
    def test_lincomb(self, raw):
        s = lincomb([(c, shift, series_of(cs)) for c, shift, cs in raw])
        assert_rule(s)
        assert list(s.coeffs) == ref_lincomb(raw)

    @given(coeff_lists, st.integers(1, 4))
    def test_substitute_power(self, a, k):
        s = series_of(a).substitute_power(k)
        assert_rule(s)
        assert list(s.coeffs) == ref_substitute_power(a, k)


class TestInverse:
    """`inverse`, the one series inversion, against the dense `ref_inverse`:
    sparse inputs over Q (any nonzero constant) and over Z[omega] (a unit
    constant, or any nonzero one in Q(omega)), at every order."""

    @given(sparse_lists(rationals, rationals.filter(bool)), st.integers(0, 15))
    def test_rationals(self, a, order):
        padded = (a + [0] * order)[: order + 1]
        assert inverse(a, order) == ref_inverse(padded)

    @given(sparse_lists(eis_ints, st.sampled_from(UNITS)), st.integers(0, 15))
    def test_eisenstein_integers(self, a, order):
        padded = (a + [0] * order)[: order + 1]
        inv = inverse(a, order)
        assert inv == ref_inverse(padded, eis_recip)
        # over a unit constant the inverse is integral, in int parts
        assert all(type(c) is int or type(c.a) is type(c.b) is int for c in inv)

    @given(sparse_lists(eis_ints, eis_ints.filter(bool)), st.integers(0, 15))
    def test_eisenstein_rationals(self, a, order):
        padded = (a + [0] * order)[: order + 1]
        assert inverse(a, order) == ref_inverse(padded, eis_recip)

    def test_order_zero(self):
        assert inverse([2, 5], 0) == [Fraction(1, 2)]
        assert inverse([EisInt(0, 1)], 0) == [EisInt(-1, -1)]

    def test_non_unit_constant(self):
        # 1/(2 - t) = sum t^k / 2^(k+1)
        assert inverse([2, -1], 4) == [Fraction(1, 2 ** (k + 1)) for k in range(5)]


class TestIntegralCoefficientsAreInts:
    """Integral coefficients are ints; `TestGfExpand` checks those of
    gf_expand (`test_nonnegative_integer_coefficients`)."""

    @given(st.lists(st.integers(0, 5), min_size=3, max_size=3),
           st.lists(st.integers(0, 5), min_size=5, max_size=5))
    def test_kunneth(self, a, b):
        x, y = BettiTable.from_list(a, 1), BettiTable.from_list(b, 2)
        product = x.poincare_series(6) * y.poincare_series(6)
        assert all(type(c) is int for c in product.coeffs)
        assert all(type(c) is int for c in x.kunneth(y).betti)

    def test_semistable_series(self):
        # two strata with half-integral series at one codimension remove an
        # integral series: a Fraction only where one stratum is left
        half = TruncatedSeries.from_coeffs([Fraction(1, 2), 0, Fraction(3, 2)], 10)
        strata = [StratumContribution(codim=1, series=half)] * 2
        s = semistable_series(5, [2, 3], strata, 10)
        assert all(type(c) is int for c in s.coeffs)
        ambient = ref_mul([1, 0] * 5 + [1], naive_product_expansion([(4, 1), (6, 1)], 10))
        assert s.integer_coeffs() == [x - y for x, y in zip(ambient, [0, 0, 1, 0, 3] + [0] * 6)]
        odd = semistable_series(5, [2, 3], strata[:1], 10)
        assert_rule(odd)
        assert odd[2] == Fraction(1, 2)


class TestOrderCapSpeed:
    """At the order cap a product and an inverse run in plain ints."""

    def test_product(self):
        s = gf_expand([(1, 3)], MAX_ORDER)
        t0 = time.perf_counter()
        square = s * s
        assert time.perf_counter() - t0 < 0.5
        # (1 - t)^(-6)
        assert square.integer_coeffs() == [comb(5 + j, 5) for j in range(MAX_ORDER + 1)]

    def test_inverse(self):
        s = gf_expand([(1, 3)], MAX_ORDER)
        t0 = time.perf_counter()
        inv = inverse(s.coeffs, MAX_ORDER)
        assert time.perf_counter() - t0 < 0.5
        # (1 - t)^3
        assert inv == [1, -3, 3, -1] + [0] * (MAX_ORDER - 3)
        assert all(type(c) is int for c in inv)
