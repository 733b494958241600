import re
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import isometry_group_order, root_permutations, triflections
from stratify._pure import ResourceCapError
from stratify._exact import UNITS, EisInt, eis_matrix, identity, mat_mul
from stratify.eisenstein import (
    E1,
    E2,
    E3,
    E4,
    H,
    NAMED_LATTICES,
    EisLattice,
)
from stratify import invariants
from stratify.invariants import (
    _check_trace,
    _elementary_symmetric,
    _elements,
    _matrix_chain,
    _Matrices,
    _Perms,
    _stabilizer_chain,
    abelian_quotient_betti,
    close_group,
    molien,
    permutation_group_order,
    wreath_symmetrize,
)
from stratify.series import BettiTable, TruncatedSeries, gf_expand, inverse
from stratify.weyl import weyl_group

DIHEDRAL_GENS = [[[0, 1], [1, 0]], [[-1, 1], [-1, 0]]]
PERM3_GENS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[-1, 1, 0], [-1, 0, 0], [3, 0, 1]]]


def symmetric_gens(n):
    """An n-cycle and a transposition, as permutation matrices: S_n."""
    swap = (1, 0, *range(2, n))
    return [[[int(j == (i + 1) % n) for j in range(n)] for i in range(n)],
            [[int(j == swap[i]) for j in range(n)] for i in range(n)]]


def skew_symmetric_gens(n):
    """S_n in the basis of the columns of the unimodular P whose first column
    is (1, 2, ..., n): the orbit of e_1 holds one vector per element."""
    p = eis_matrix([[int(i == j) + (i + 1 if j == 0 < i else 0) for j in range(n)]
                    for i in range(n)])
    p_inv = eis_matrix([[int(i == j) - (i + 1 if j == 0 < i else 0) for j in range(n)]
                        for i in range(n)])
    return [mat_mul(p_inv, mat_mul(eis_matrix(g), p)) for g in symmetric_gens(n)]


def cycles_matrix(lengths):
    """The permutation matrix of disjoint cycles of the given lengths."""
    perm = []
    for n in lengths:
        perm += [len(perm) + (i + 1) % n for i in range(n)]
    return [[int(perm[j] == i) for j in range(len(perm))] for i in range(len(perm))]


S7_GENS = symmetric_gens(7)
UNIPOTENT7 = [[int(i == j or (i, j) == (0, 1)) for j in range(7)] for i in range(7)]


def walk(group):
    """The elements of a group in the order of the chain walk (`_elements`)."""
    levels, _ = _matrix_chain(group.gens, group.dim, group.order)
    return list(_elements(levels))


def _companion(coeffs):
    """The companion matrix of a monic integer polynomial, coefficients
    leading first."""
    n = len(coeffs) - 1
    return [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[n - i]] for i in range(n)]


# unit determinant, infinite order: the companions of Lehmer's polynomial
# x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1, whose Salem root
# 1.17628... has the least Mahler measure known, and of the Salem
# polynomial x^4 - x^3 - x^2 - x + 1, root 1.72208...
LEHMER = _companion([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
SALEM = _companion([1, -1, -1, -1, 1])


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

    @pytest.mark.parametrize("gens, det", [
        ([[[2]]], "determinant 2,"),
        ([DIHEDRAL_GENS[0], [[Fraction(1, 2), 0], [0, 1]]], "generator 1 has determinant 1/2,"),
        ([[[(2, 1)]]], "determinant 2 + 1*omega,"),
        # unit determinant, infinite order
        ([[[1, 1], [0, 1]]], "generator 0 has infinite order: a power has trace 2 and |trace| = 2, "
                             "the dimension, but it is not a root of unity times the identity"),
        ([[[2, 1], [1, 1]]],
         "generator 0 has infinite order: a power has trace 3 and |trace| > 2, the dimension"),
        ([[[(0, 1), (1, 0)], [(0, 0), (0, 1)]]],
         "generator 0 has infinite order: a power has trace 0 + 2*omega and |trace| = 2, "
         "the dimension, but it is not a root of unity times the identity"),
        ([LEHMER], "generator 0 has infinite order: a power has trace 10 and |trace| = 10"),
        ([SALEM], "generator 0 has infinite order: a power has trace 7 and |trace| > 4"),
        # S_7 closes to 5040 elements; the unipotent generator after it is refused first
        ([*S7_GENS, UNIPOTENT7],
         "generator 2 has infinite order: a power has trace 7 and |trace| = 7"),
    ])
    def test_rejects_generator_of_infinite_order(self, gens, det):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(det)):
            close_group(gens)
        assert time.perf_counter() - start < 1.0

    def test_accepts_an_involution_with_huge_entries(self):
        # diag(-1, 1) conjugated by [[1, 10^30], [0, 1]]
        n = 10**30
        assert close_group([[[-1, 2 * n], [0, 1]]]).order == 2

    def test_generator_order_above_the_cap(self):
        # a transposition times a 3-cycle has order 6, and is refused before any closure
        perm = (1, 0, 3, 4, 2)
        gen = [[int(perm[j] == i) for j in range(5)] for i in range(5)]
        assert close_group([gen], cap=6).order == 6
        with pytest.raises(ResourceCapError, match="generator 0 has order above the cap 5"):
            close_group([gen], cap=5)

    @pytest.mark.parametrize("gens", [
        [[[1, 0], [0, 1]], [[1]]],
        [[[(1, 0), (0, 0)], [(0, 0), (1, 0)]], [[(1, 0)]]],
        [[[1, 0]]],
        [[]],
    ])
    def test_rejects_generators_of_different_sizes(self, gens):
        with pytest.raises(ValueError, match="must be nonempty square matrices of one size"):
            close_group(gens)

    @pytest.mark.parametrize("gens, trace", [
        # orders 6 and 3; the product [[1, 0], [2, 1]] has trace 2 and is not scalar
        ([[[0, 1], [-1, 1]], [[-1, -1], [1, 0]]],
         "trace 2 and |trace| = 2, the dimension, but it is not a root of unity"),
        # two reflections whose product has trace 4
        ([[[1, 0], [0, -1]], [[2, 3], [-1, -2]]], "trace 4 and |trace| > 2"),
        # diag(omega, 1) and that reflection: trace 2*omega - 2, of norm 12 > 2^2
        ([[[(0, 1), (0, 0)], [(0, 0), (1, 0)]], [[(2, 0), (3, 0)], [(-1, 0), (-2, 0)]]],
         "trace -2 + 2*omega and |trace| > 2"),
        # a quarter turn and a half turn about (1, 2, 2): a rational trace
        ([[[0, -1, 0], [1, 0, 0], [0, 0, 1]],
          [[Fraction(a, 9) for a in row] for row in ((-7, 4, 4), (4, -1, 8), (4, 8, -1))]],
         "trace -1/9 and it is not an algebraic integer"),
    ])
    def test_rejects_infinite_group_of_finite_order_generators(self, gens, trace):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(trace)):
            close_group(gens)
        assert time.perf_counter() - start < 1.0

    def test_scalar_elements_pass_the_trace_check(self):
        # -I and omega * I have |trace| = k and are roots of unity times I
        assert close_group([[[-1, 0], [0, -1]]]).order == 2
        assert close_group([[[(0, 1), (0, 0)], [(0, 0), (0, 1)]], DIHEDRAL_GENS[0]]).order == 6

    def test_accepts_every_unit_determinant(self):
        # -omega^2 = 1 + omega is a unit of order 6
        assert close_group([[[(1, 1)]]]).order == 6
        assert close_group([[[-1]]]).order == 2

    def test_canonical_ordering_deterministic(self):
        # the chain walk starts at the identity: the same generators give
        # the same list, generators in another order the same elements
        a = walk(close_group(DIHEDRAL_GENS))
        assert a == walk(close_group(DIHEDRAL_GENS))
        b = walk(close_group(list(reversed(DIHEDRAL_GENS))))
        assert a[0] == b[0] == eis_matrix([[1, 0], [0, 1]])
        assert len(b) == 6 and set(a) == set(b)

    def test_symmetric_group_order_without_closure(self):
        start = time.perf_counter()
        assert close_group(symmetric_gens(8)).order == 40320
        assert time.perf_counter() - start < 1.0

    def test_basic_orbit_of_every_element(self):
        # S_6 in a skew basis: the orbit of e_1 holds 720 vectors, one per
        # element, so the chain acts on matrices, not on permutations of that orbit
        n = 6
        gens = skew_symmetric_gens(n)
        start = time.perf_counter()
        group = close_group(gens)
        assert group.order == 720
        assert len(_matrix_chain(group.gens, n, 720)[0][0].trans) == 720
        assert molien(group, 2, 6) == molien(close_group(symmetric_gens(n)), 2, 6)
        assert time.perf_counter() - start < 2.0

    def test_generator_of_large_order_is_certified_by_its_chain(self):
        # cycles of lengths 2, 3, 5, 7 and 11 on 28 points: order 2,310, which
        # a walk over the powers reaches only after 2,310 products
        start = time.perf_counter()
        assert close_group([cycles_matrix((2, 3, 5, 7, 11))]).order == 2310
        assert time.perf_counter() - start < 2.0

    def test_generator_order_above_the_cap_is_refused_by_its_chain(self):
        # cycles of lengths 2 to 13 on 41 points: order 30,030, refused from
        # orbits of those lengths, not after 10,000 powers
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="generator 0 has order above the cap 10000$"):
            close_group([cycles_matrix((2, 3, 5, 7, 11, 13))], cap=10_000)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("gens, chains", [
        ([cycles_matrix((2, 3, 5, 7, 11))], 1), (DIHEDRAL_GENS, 3), (PERM3_GENS, 3),
        (symmetric_gens(5) + [cycles_matrix((5,))], 4)])
    def test_one_chain_per_generator_and_one_for_the_group(self, monkeypatch, gens, chains):
        # a one-generator group takes its order from the generator's chain
        calls = []
        chain = invariants._matrix_chain
        monkeypatch.setattr(invariants, "_matrix_chain",
                            lambda *args: calls.append(args) or chain(*args))
        close_group(gens)
        assert len(calls) == chains

    def test_order_above_the_cap_is_refused_at_once(self):
        # S_10 has 3,628,800 elements, above DEFAULT_CAP
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="group order 3628800 exceeds the cap"):
            close_group(symmetric_gens(10))
        assert time.perf_counter() - start < 1.0


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
        quotient = full * TruncatedSeries.from_coeffs(
            inverse(gf_expand([(2, 1)], order).coeffs, order), order)
        assert quotient == gf_expand([(4, 1), (6, 1)], order)
        assert gf_expand([(2, 1)], order) * quotient == full


class TestAbelianQuotients:
    def test_rank3_triflection_quotient(self):
        w3 = weyl_group(E3)
        t = abelian_quotient_betti(w3.gens, 3, w3.form)
        assert t.even() == [1, 1, 1, 1] and t.odd() == [0, 0, 0]

    def test_rank5_quotient_is_the_kunneth_product(self):
        # rank 5 is MAX_QUOTIENT_RANK: fixed spaces in Lambda^p V (x) conj
        # Lambda^q V of dimension up to 100, where an elimination that does
        # not reduce its vectors or touches every zero entry blows up
        lat = E1.direct_sum(E4)
        t0 = time.perf_counter()
        t = abelian_quotient_betti(triflections(lat), 5, lat.gram)
        assert time.perf_counter() - t0 < 20
        e1 = abelian_quotient_betti(triflections(E1), 1, E1.gram)
        w4 = weyl_group(E4)
        e4 = abelian_quotient_betti(w4.gens, 4, w4.form)
        assert t == e1.kunneth(e4)
        assert list(t.betti) == [1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 1]

    def test_trivial_group_elliptic_curve(self):
        ident = [[(1, 0)]]
        t = abelian_quotient_betti(close_group([ident]).gens, 1, eis_matrix([[3]]))
        assert list(t.betti) == [1, 2, 1]

    def test_order_six_quotient_is_projective_line(self):
        g = close_group([[[(0, 1)]], [[(-1, 0)]]])
        t = abelian_quotient_betti(g.gens, 1, eis_matrix([[3]]))
        assert list(t.betti) == [1, 0, 1]

    def test_unitarity_violation_detected(self):
        bad = [[(2, 0)]]  # not unitary for the rank-1 form
        with pytest.raises(ValueError):
            abelian_quotient_betti([bad], 1, eis_matrix([[3]]))

    def test_int64_sized_generator_is_not_unitary(self):
        # the retired compiled character sums wrapped this entry to -1
        gen = eis_matrix([[(2**63 - 1, 0), (0, 0)], [(0, 0), (1, 0)]])
        form = eis_matrix([[3, 0], [0, 3]])
        with pytest.raises(ValueError):
            abelian_quotient_betti([gen], 2, form=form)

    def test_indefinite_form_is_rejected(self):
        g = close_group([[[(1, 0), (0, 0)], [(0, 0), (1, 0)]]])
        with pytest.raises(ValueError):
            abelian_quotient_betti(g.gens, 2, form=H.gram)


def element_average_betti(group, k):
    """h^{p,q} as the element average of e_p(M) conj(e_q(M)), summed to Betti
    numbers.  e_p comes from Newton's identities on trace powers, so this
    shares nothing with the fixed-space computation."""
    acc = [[EisInt(0, 0)] * (k + 1) for _ in range(k + 1)]
    for mat in walk(group):
        es = _elementary_symmetric(mat)
        for p in range(k + 1):
            for q in range(k + 1):
                acc[p][q] = acc[p][q] + es[p] * es[q].conj()
    betti = [0] * (2 * k + 1)
    for p in range(k + 1):
        for q in range(k + 1):
            h = acc[p][q] / group.order
            assert h.is_real() and h.a.denominator == 1 and h.a >= 0
            betti[p + q] += int(h.a)
    return betti


TRIFLECTIONS = {lat: triflections(lat) for lat in (E1, E2, E3)}


@st.composite
def monomial(draw):
    """A permutation matrix on 3E1 with unit entries."""
    perm = draw(st.permutations(range(3)))
    units = draw(st.lists(st.sampled_from(UNITS), min_size=3, max_size=3))
    mat = [[EisInt(0, 0)] * 3 for _ in range(3)]
    for j in range(3):
        mat[perm[j]][j] = units[j]
    return eis_matrix(mat)


small_groups = st.one_of(
    st.sampled_from([E1, E2, E3]).flatmap(lambda lat: st.tuples(
        st.just(lat),
        st.lists(st.sampled_from(TRIFLECTIONS[lat]), min_size=1, max_size=3, unique=True))),
    st.tuples(st.just(NAMED_LATTICES["3E1"]), st.lists(monomial(), min_size=1, max_size=3)),
)


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_fixed_spaces_match_element_average(case):
    lat, gens = case
    k = lat.rank
    group = close_group(gens, cap=1500)
    expected = element_average_betti(group, k)
    assert list(abelian_quotient_betti(gens, k, form=lat.gram).betti) == expected


@settings(max_examples=30, deadline=None)
@given(small_groups)
def test_schreier_sims_matches_closure(case):
    lat, gens = case
    closed = close_group(gens, cap=1500)
    assert isometry_group_order(lat, gens) == closed.order


# --- basis-free differential tests: the same group in another basis ---------

def elementary_change(k, ops):
    """A unimodular Z[omega] matrix P and its inverse, the product of the
    elementary column operations ``ops``: ("add", i, j, u) adds u times
    column i to column j, ("scale", j, u) multiplies column j by a unit u."""
    p = [list(row) for row in identity(k)]
    p_inv = [list(row) for row in identity(k)]
    for op in ops:
        if op[0] == "add":
            _, i, j, u = op
            for row in p:
                row[j] = row[j] + u * row[i]
            p_inv[i] = [x - u * y for x, y in zip(p_inv[i], p_inv[j])]
        else:
            _, j, u = op
            for row in p:
                row[j] = row[j] * u
            p_inv[j] = [x * u.conj() for x in p_inv[j]]
    assert mat_mul(p, p_inv) == identity(k)
    return eis_matrix(p), eis_matrix(p_inv)


def change_basis(lat, gens, p, p_inv):
    """The lattice in the basis given by the columns of P: form P* G P, and
    each isometry g as P^-1 g P."""
    adjoint = tuple(tuple(e.conj() for e in col) for col in zip(*p))
    return (EisLattice(lat.rank, mat_mul(adjoint, mat_mul(lat.gram, p))),
            [mat_mul(p_inv, mat_mul(g, p)) for g in gens])


@st.composite
def elementary_ops(draw, k):
    small = st.builds(EisInt, st.integers(-2, 2), st.integers(-2, 2))
    pairs = st.permutations(range(k)).map(lambda perm: perm[:2])
    add = st.tuples(st.just("add"), pairs, small).map(lambda t: ("add", *t[1], t[2]))
    scale = st.tuples(st.just("scale"), st.integers(0, k - 1), st.sampled_from(UNITS))
    return draw(st.lists(st.one_of(add, scale) if k > 1 else scale, max_size=6))


conjugated_groups = small_groups.flatmap(lambda case: st.tuples(
    st.just(case), elementary_ops(case[0].rank)))


def assert_same_group(lat, gens, new_lat, new_gens, closure=True):
    k = lat.rank
    assert isometry_group_order(new_lat, new_gens) == isometry_group_order(lat, gens)
    assert weyl_group(new_lat).order == weyl_group(lat).order
    assert (abelian_quotient_betti(new_gens, k, form=new_lat.gram)
            == abelian_quotient_betti(gens, k, form=lat.gram))
    if closure:
        group, new_group = close_group(gens, cap=1500), close_group(new_gens, cap=1500)
        assert new_group.order == group.order
        assert molien(new_group, 2, 8) == molien(group, 2, 8)


@settings(max_examples=30, deadline=None)
@given(conjugated_groups)
def test_group_invariants_do_not_depend_on_the_basis(case):
    (lat, gens), ops = case
    p, p_inv = elementary_change(lat.rank, ops)
    assert_same_group(lat, gens, *change_basis(lat, gens, p, p_inv))


# elementary column operations that take E4 to a basis with another Gram matrix
E4_OPS = [("add", 0, 1, EisInt(1, 1)), ("add", 2, 3, EisInt(-2, 1)), ("scale", 1, UNITS[2]),
          ("add", 3, 0, EisInt(0, 2)), ("add", 1, 2, EisInt(2, -1)), ("add", 0, 3, EisInt(1, 0))]


def test_conjugated_e4_triflections():
    # the closure of E4's 155,520 elements is left out: it takes minutes
    p, p_inv = elementary_change(4, E4_OPS)
    gens = triflections(E4)
    new_lat, new_gens = change_basis(E4, gens, p, p_inv)
    assert new_lat.gram != E4.gram
    assert_same_group(E4, gens, new_lat, new_gens, closure=False)


def test_weyl_group_of_conjugated_e4():
    # the cover walk picks its generators in the new basis's own root order
    new_lat, _ = change_basis(E4, [], *elementary_change(4, E4_OPS))
    w, w4 = weyl_group(new_lat), weyl_group(E4)
    assert w.order == 155520 and len(w.gens) == 4
    assert abelian_quotient_betti(w.gens, 4, w.form) == abelian_quotient_betti(w4.gens, 4, w4.form)


def line_image_permutations(monkeypatch, lat, gens):
    """The permutations of the roots that the reference engine
    (`lattice_reference.root_action_order`) hands to Schreier-Sims for
    ``gens``, and the order it certifies."""
    perms = []
    monkeypatch.setattr(invariants, "permutation_group_order",
                        lambda p: perms.extend(p) or permutation_group_order(p))
    return perms, isometry_group_order(lat, gens)


@pytest.mark.parametrize("name, order", [
    ("E1", 3), ("E2", 24), ("E3", 648), ("E4", 155520), ("3E1", 27), ("3E3", 648**3),
    ("E1+2E4", 3 * 155520**2)])
def test_root_line_images_match_the_per_root_images(monkeypatch, name, order):
    # one dense image per root line, five read off the unit multiples; the
    # order of all triflections is the one `weyl_group` certifies on its few
    lat = NAMED_LATTICES[name]
    neg = EisLattice(lat.rank, tuple(tuple(-e for e in row) for row in lat.gram))
    for x in (lat, neg):
        gens = triflections(x)
        perms, n = line_image_permutations(monkeypatch, x, gens)
        assert n == order and perms == root_permutations(x, gens)


def test_root_line_images_of_conjugated_e4_triflections(monkeypatch):
    new_lat, new_gens = change_basis(E4, triflections(E4), *elementary_change(4, E4_OPS))
    perms, order = line_image_permutations(monkeypatch, new_lat, new_gens)
    assert order == 155520 and perms == root_permutations(new_lat, new_gens)


def permutation_closure_order(perms):
    """Breadth-first closure of permutations, shared with nothing in the library."""
    ident = tuple(range(len(perms[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [y for y in {tuple(g[i] for i in x) for x in frontier for g in perms}
                    if y not in seen]
        seen.update(frontier)
    return len(seen)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4)))
def test_permutation_group_order_matches_closure(perms):
    assert permutation_group_order(perms) == permutation_closure_order(perms)


def test_permutation_group_order_on_one_and_two_points():
    # one point has only the identity, so no product is taken there
    assert permutation_group_order([(0,)]) == 1
    assert permutation_group_order([(1, 0)]) == 2


def test_permutation_group_order_of_known_groups():
    cycle = tuple(range(1, 12)) + (0,)
    swap = (1, 0) + tuple(range(2, 12))
    assert permutation_group_order([cycle, swap]) == 479001600  # S_12
    # Mathieu group M11 on 11 points
    a = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0)
    b = (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)
    assert permutation_group_order([a, b]) == 7920
    assert permutation_group_order([tuple(range(5))]) == 1


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


def test_integral_rational_generators_give_int_parts():
    # integral entries, given as ints or as integral Fractions, stay ints
    # on every element, so the closure multiplies in plain integers
    halves = [[Fraction(2, 2) if x == 1 else x for x in row] for row in PERM3_GENS[1]]
    for gens in (DIHEDRAL_GENS, PERM3_GENS, [PERM3_GENS[0], halves]):
        group = close_group(gens)
        assert group.ring == "Q" and group.order in (6, 12)
        assert all(type(e.a) is int and type(e.b) is int
                   for m in walk(group) for row in m for e in row)


# --- differential test against a Fraction reference written here -----------

def ref_mul(x, y):
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
                       for col in zip(*y)) for row in x)


def ref_det(m):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n, d = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv], d = a[piv], a[c], -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def ref_inverse(m):
    n = len(m)
    return tuple(tuple(
        (-1) ** (i + j) * ref_det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
        / ref_det(m) for j in range(n)) for i in range(n))


def ref_closure(gens):
    n = len(gens[0])
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = list({ref_mul(x, g) for x in frontier for g in gens} - seen)
        seen.update(frontier)
    return seen


def ref_molien(elements, degree, order):
    """(1/|G|) sum over G of 1/det(1 - t^degree M), by principal minors."""
    from itertools import combinations

    total = [Fraction(0)] * (order + 1)
    for m in elements:
        k = len(m)
        poly = [Fraction(0)] * (order + 1)
        poly[0] = Fraction(1)
        for p in range(1, k + 1):
            if p * degree <= order:
                e_p = sum(ref_det([[m[i][j] for j in s] for i in s])
                          for s in combinations(range(k), p))
                poly[p * degree] = (-1) ** p * e_p
        inv = [Fraction(1)] + [Fraction(0)] * order
        for i in range(1, order + 1):
            inv[i] = -sum(poly[t] * inv[i - t] for t in range(1, i + 1))
        total = [a + b for a, b in zip(total, inv)]
    return [c / len(elements) for c in total]


@st.composite
def signed_permutation_groups(draw):
    """Generators of a signed-permutation group, as integer matrices or
    conjugated by a random invertible rational matrix."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        gens.append(tuple(tuple(Fraction(signs[i]) if j == perm[i] else Fraction(0)
                                for j in range(n)) for i in range(n)))
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        conj = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
                    .filter(lambda m: ref_det(m) != 0))
        conj = tuple(map(tuple, conj))
        gens = [ref_mul(ref_mul(conj, g), ref_inverse(conj)) for g in gens]
    return gens


@settings(max_examples=40, deadline=None)
@given(signed_permutation_groups(), st.sampled_from((2, 4)))
def test_closure_and_molien_match_fraction_reference(gens, degree):
    group = close_group([[list(row) for row in g] for g in gens])
    expected = ref_closure(gens)
    elements = walk(group)
    got = {tuple(tuple(Fraction(e.a) for e in row) for row in m) for m in elements}
    assert all(e.b == 0 for m in elements for row in m for e in row)
    assert got == expected and group.order == len(expected)
    if all(x.denominator == 1 for g in gens for row in g for x in row):
        assert all(type(e.a) is int for m in elements for row in m for e in row)
    assert list(molien(group, degree, 8).coeffs) == ref_molien(list(expected), degree, 8)


# --- the chain walk against a breadth-first element closure -----------------

def bfs_closure(gens):
    """Breadth-first multiplicative closure: the identity, then each new
    product x * g, x running over the list as it grows and g over ``gens``."""
    ident = identity(len(gens[0]))
    seen, elements = {ident}, [ident]
    for x in elements:
        for g in gens:
            y = mat_mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def _conjugated(case):
    (lat, gens), ops = case
    return change_basis(lat, gens, *elementary_change(lat.rank, ops))[1]


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_groups.map(lambda case: case[1]),
                 conjugated_groups.map(_conjugated),
                 signed_permutation_groups().map(
                     lambda gens: [[list(row) for row in g] for g in gens])))
def test_chain_walk_lists_each_element_of_the_closure_once(gens):
    group = close_group(gens, cap=1500)
    listed = walk(group)
    closure = bfs_closure(group.gens)
    assert listed[0] == closure[0] == identity(group.dim)
    assert len(listed) == len(set(listed)) == len(closure) == group.order
    assert set(listed) == set(closure)


# --- the Molien census against the per-element sum --------------------------

def molien_by_elements(group, degree, order):
    """`molien` as one series per element: det(1 - T M)^(-1), T = t^degree,
    inverted for each element of the chain walk, summed and averaged.  The
    census must give the same coefficients."""
    k, zero = group.dim, EisInt(0, 0)
    total = [zero] * (order + 1)
    for mat in walk(group):
        es = _elementary_symmetric(mat)
        terms = [(p * degree, -es[p] if p % 2 else es[p])
                 for p in range(1, min(k, order // degree) + 1) if es[p]]
        inv = [EisInt(1, 0)] + [zero] * order
        for m in range(1, order + 1):
            s = zero
            for t, c in terms:
                if t > m:
                    break
                s = s + c * inv[m - t]
            inv[m] = -s
        total = [a + b for a, b in zip(total, inv)]
    assert all(c.is_real() for c in total)
    return [Fraction(c.a, group.order) for c in total]


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_groups.map(lambda case: case[1]), conjugated_groups.map(_conjugated)),
       st.sampled_from((2, 4)))
def test_molien_census_matches_the_per_element_sum(gens, degree):
    group = close_group(gens, cap=1500)
    assert list(molien(group, degree, 8).coeffs) == molien_by_elements(group, degree, 8)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_molien_census_of_symmetric_groups(n):
    group = close_group(symmetric_gens(n))
    assert list(molien(group, 2, 8).coeffs) == molien_by_elements(group, 2, 8)


def test_s6_elements_have_eleven_characteristic_polynomials():
    # one per cycle type, the 11 partitions of 6: the census inverts 11 series, not 720
    group = close_group(symmetric_gens(6))
    assert len({tuple(_elementary_symmetric(m)) for m in walk(group)}) == 11


# --- each transversal element is held with its inverse ----------------------

def counted_chain(gens, act):
    """The chain of ``gens`` in ``act``, and the number of `inverse` calls."""
    calls, inverse = [], act.inverse
    act.inverse = lambda x: calls.append(x) or inverse(x)
    return _stabilizer_chain(gens, act), len(calls)


def assert_inverse_pairs(gens, act):
    """At every level u u^-1 is the identity for every orbit point y, with
    u mapping the base point to y, and s s^-1 for every strong generator, whose
    inverse was taken once; returns the order."""
    levels, inverse_calls = counted_chain(gens, act)
    # a strong generator s is inserted at several levels, the same s at each
    strong = {id(gen[0]): gen for level in levels for gen in level.gens}
    assert inverse_calls == len(strong)
    assert all(act.mul(s, s_inv) == act.ident for s, s_inv in strong.values())
    for level in levels:
        for y, (u, u_inv) in level.trans.items():
            assert act.image(u, level.point) == y
            assert act.mul(u, u_inv) == act.ident
    return prod(len(level.trans) for level in levels)


@pytest.mark.parametrize("lat, order", [(E3, 648), (E4, 155520)])
def test_root_permutation_chain_holds_inverses(monkeypatch, lat, order):
    # the permutations of the roots that `weyl_group` hands to the engine
    perms = []
    monkeypatch.setattr(invariants, "permutation_group_order", lambda p: perms.extend(p) or 1)
    weyl_group(lat)
    assert assert_inverse_pairs(perms, _Perms(len(perms[0]))) == order


@pytest.mark.parametrize("gens, order", [
    (DIHEDRAL_GENS, 6), (skew_symmetric_gens(6), 720)])
def test_matrix_chain_holds_inverses(gens, order):
    gens = [eis_matrix(g) for g in gens]
    assert assert_inverse_pairs(gens, _Matrices(len(gens[0]), 1000)) == order


@settings(max_examples=30, deadline=None)
@given(conjugated_groups.map(_conjugated))
def test_conjugated_matrix_chain_holds_inverses(gens):
    order = assert_inverse_pairs(gens, _Matrices(len(gens[0]), 1500))
    assert order == close_group(gens, cap=1500).order


# --- two finiteness certificates of one generator ---------------------------

def power_walk_order(i, mat, cap) -> int:
    """The order of generator i, a k x k matrix M, from its powers: the
    reference for the chain of its cyclic group in `close_group`.

    Certificate: the powers M, M^2, ... reach the identity, and each power
    before it passes `_check_trace`, the test the chain holds every
    transversal element to.  The walk ends.  An eigenvalue off the unit
    circle makes |tr M^j| unbounded, and a non-integral eigenvalue gives some
    power a non-integral trace.  Otherwise every eigenvalue is a root of
    unity (Kronecker), so for L the lcm of their orders M^L is unipotent:
    the identity, or of trace k without being scalar.  A power beyond
    ``cap`` raises ResourceCapError, since then M alone generates more than
    ``cap`` elements.
    """
    k = len(mat)
    ident = identity(k)
    power, j = mat, 1
    while power != ident:
        _check_trace(power, k, f"generator {i} has infinite order: M^{j}")
        if j >= cap:
            raise ResourceCapError(f"generator {i} has order above the cap {cap}")
        power = mat_mul(power, mat)
        j += 1
    return j


def certified_orders(mat, cap=1500):
    """A generator's order from `close_group`, which takes it from the chain
    of its cyclic group, and from the walk over its powers
    (`power_walk_order`), None where one refuses."""
    orders = []
    for certify in (lambda: close_group([mat], cap).order,
                    lambda: power_walk_order(0, eis_matrix(mat), cap)):
        try:
            orders.append(certify())
        except (ValueError, ResourceCapError):
            orders.append(None)
    return orders


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_groups.map(lambda case: case[1]), conjugated_groups.map(_conjugated)))
def test_cyclic_chain_and_power_walk_agree_on_group_generators(gens):
    for gen in gens:
        chain, walk_order = certified_orders(gen)
        assert chain is not None and chain == walk_order


_HALF_TURN = [[Fraction(a, 9) for a in row] for row in ((-7, 4, 4), (4, -1, 8), (4, 8, -1))]


@pytest.mark.parametrize("gen, cap, order", [
    # the generators TestCloseGroup refuses, each of infinite order
    (LEHMER, 1500, None), (SALEM, 1500, None), (UNIPOTENT7, 1500, None),
    ([[1, 1], [0, 1]], 1500, None), ([[2, 1], [1, 1]], 1500, None),
    ([[(0, 1), (1, 0)], [(0, 0), (0, 1)]], 1500, None),
    ([[Fraction(1, 2), 0], [0, 1]], 1500, None), ([[2]], 1500, None), ([[(2, 1)]], 1500, None),
    # and those of finite order that generate infinite groups
    ([[0, 1], [-1, 1]], 1500, 6), ([[-1, -1], [1, 0]], 1500, 3),
    ([[1, 0], [0, -1]], 1500, 2), ([[2, 3], [-1, -2]], 1500, 2),
    ([[(0, 1), (0, 0)], [(0, 0), (1, 0)]], 1500, 3),
    ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], 1500, 4), (_HALF_TURN, 1500, 2),
    # a finite order above the cap
    (cycles_matrix((2, 3)), 6, 6), (cycles_matrix((2, 3)), 5, None),
])
def test_cyclic_chain_and_power_walk_agree_on_refusals(gen, cap, order):
    assert certified_orders(gen, cap) == [order, order]


@pytest.mark.parametrize("gens, cap", [
    ([LEHMER], 10**6), ([SALEM], 10**6), ([[[1, 1], [0, 1]]], 10**6),
    ([[[2, 1], [1, 1]]], 10**6), ([[[(0, 1), (1, 0)], [(0, 0), (0, 1)]]], 10**6),
    ([*S7_GENS, UNIPOTENT7], 10**6),
    ([cycles_matrix((2, 3))], 5),  # order 6, above the cap
])
def test_cyclic_chain_refuses_as_the_power_walk(gens, cap):
    # the same exception class, and for an infinite order the same trace and reason
    i = len(gens) - 1
    with pytest.raises((ValueError, ResourceCapError)) as chain:
        close_group(gens, cap)
    with pytest.raises((ValueError, ResourceCapError)) as reference:
        power_walk_order(i, eis_matrix(gens[i]), cap)
    assert chain.type is reference.type
    rest = str(reference.value).partition(" has trace ")[2]
    if rest:  # the walk names the power M^j that it refuses
        assert str(chain.value) == f"generator {i} has infinite order: a power has trace {rest}"
    else:
        assert str(chain.value) == str(reference.value)
