from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import (eisenstein_roots, isometry_group_order, root_permutations,
                               triflections, z_pair)
from stratify._exact import (UNITS, adjugate, definite_ldl, det, eis_matrix, eis_vector_from_z,
                             identity, mat_mul, real_form, z_matrix)
from stratify.discriminant import (
    _ideal_norm,
    discriminant_form,
    divisibility,
    find_norm_div_vector,
    glue_overlattice,
    verify_unimodular_complement_vector,
)
from stratify.eisenstein import (
    E1,
    E2,
    E3,
    E4,
    H,
    NAMED_LATTICES,
    OMEGA,
    THETA,
    EisInt,
    EisLattice,
    boundary_betti,
    eis_lattice,
    named_lattice,
)
from stratify.invariants import (MAX_QUOTIENT_RANK, FiniteMatrixGroup, abelian_quotient_betti,
                                 close_group, molien, permutation_group_order)
from stratify.weyl import (
    ZLattice,
    enumerate_roots,
    enumerate_vectors,
    generating_triflections,
    triflection,
    weyl_group,
    z_form,
)

O3E1_GENS = {
    "generators": [
        [[(0, 1), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
        [[(-1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
        [[(0, 0), (1, 0), (0, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)]],
        [[(0, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)]],
    ]
}


class TestEisInt:
    def test_ring_relations(self):
        w = EisInt(0, 1)
        assert w * w == EisInt(-1, -1)
        assert THETA == w - w * w
        assert THETA * THETA.conj() == EisInt(3, 0)
        assert THETA.conj() == -THETA

    def test_field_axioms_spot(self):
        w = EisInt(0, 1)
        assert w * w == EisInt(-1, -1)
        assert w * w * w == EisInt(1, 0)
        x = EisInt(Fraction(2, 3), Fraction(-1, 2))
        assert x * (1 / x) == EisInt(1, 0)
        assert (x * x.conj()).is_real()


class TestZForm:
    def test_rank1_is_hexagonal_root_lattice(self):
        zl = z_form(E1)
        assert zl.gram == ((-2, 1), (1, -2))

    def test_hyperbolic_summand_is_unimodular(self):
        zl = z_form(H)
        assert zl.is_even() and abs(zl.det()) == 1
        # signature (2, 2): indefinite, although its first leading minor is 0
        with pytest.raises(ValueError, match="lattice is indefinite"):
            enumerate_roots(zl)
        with pytest.raises(ValueError, match="degenerate form"):
            enumerate_roots(z_form(eis_lattice([[0]])))

    def test_rank4_is_even_unimodular_definite(self):
        zl = z_form(E4)
        assert zl.is_even() and abs(zl.det()) == 1 and zl.rank == 8

    def test_determinant_matches_eisenstein_norm(self):
        for lat in (E1, E2, E3, E4, H):
            zl = z_form(lat)
            assert abs(zl.det()) * 3**lat.rank == det(lat.gram).norm()

    def test_lattice_file_format(self):
        lat = eis_lattice([[3, [1, 2]], [[-1, -2], 3]])
        assert lat.gram == E2.gram

    def test_theta_valued_validation(self):
        with pytest.raises(ValueError):
            eis_lattice([[1]])
        with pytest.raises(ValueError):
            eis_lattice([[3, [1, 0]], [[1, 0], 3]])


def z_form_by_pairings(lat):
    """The integral form as `weyl.z_form` computed it before it read
    `_exact.real_form`: one hermitian pairing, a k^2 loop, per pair of basis
    vectors e_i, omega e_i, (x, y) = -(2/3) Re<x, y>.  The reference for `z_form`."""
    k = lat.rank
    basis = [[u if j == i else EisInt(0, 0) for j in range(k)]
             for i in range(k) for u in (EisInt(1, 0), OMEGA)]
    gram = []
    for x in basis:
        row = []
        for y in basis:
            h = EisInt(0, 0)
            for i in range(k):
                for j in range(k):
                    h = h + x[i].conj() * lat.gram[i][j] * y[j]
            re2 = 2 * h.a - h.b  # twice the real part
            assert re2 % 3 == 0, "pairing is not theta-integral"
            row.append(-re2 // 3)
        gram.append(tuple(row))
    return tuple(gram)


def is_definite_sylvester(gram):
    """Sylvester's criterion on the k leading Eisenstein minors of a square
    matrix of `EisInt`, False when it is not hermitian: the definiteness test
    `abelian_quotient_betti` ran before it read `_exact.definite_ldl`."""
    k = len(gram)
    if any(gram[j][i] != gram[i][j].conj() for i in range(k) for j in range(k)):
        return False
    minors = [det([row[:i] for row in gram[:i]]) for i in range(1, k + 1)]
    return all(m.a > 0 for m in minors) or all(
        (-1) ** i * m.a > 0 for i, m in enumerate(minors, 1))


small_eis = st.builds(EisInt, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def hermitian_forms(draw, theta=True):
    """A hermitian k x k matrix, k <= 3: B* B or -B* B (definite or
    degenerate), or a random one (often indefinite).  With ``theta`` its
    entries lie in theta E and its diagonal in 3Z: the Gram of an `EisLattice`."""
    k = draw(st.integers(1, 3))
    scale = THETA if theta else EisInt(1, 0)
    if draw(st.booleans()):
        b = [[scale * draw(small_eis) for _ in range(k)] for _ in range(k)]
        sign = draw(st.sampled_from((1, -1)))
        adj = [[e.conj() for e in col] for col in zip(*b)]
        return tuple(tuple(sign * e for e in row) for row in mat_mul(adj, b))
    g = [[None] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = EisInt((3 if theta else 1) * draw(st.integers(-9, 9)), 0)
        for j in range(i + 1, k):
            g[i][j] = scale * draw(small_eis)
            g[j][i] = g[i][j].conj()
    return tuple(map(tuple, g))


@st.composite
def square_forms(draw):
    """Hermitian forms, and (one draw in four) square matrices that are
    usually not hermitian."""
    if draw(st.integers(0, 3)):
        return draw(hermitian_forms(theta=draw(st.booleans())))
    k = draw(st.integers(1, 3))
    return tuple(tuple(draw(small_eis) for _ in range(k)) for _ in range(k))


@settings(max_examples=200, deadline=None)
@given(hermitian_forms())
def test_z_form_matches_the_pairings(gram):
    lat = EisLattice(len(gram), gram)
    assert z_form(lat).gram == z_form_by_pairings(lat)


def test_z_form_matches_the_pairings_on_the_named_lattices():
    for lat in NAMED_LATTICES.values():
        assert z_form(lat).gram == z_form_by_pairings(lat)


@settings(max_examples=300, deadline=None)
@given(square_forms())
def test_one_definiteness_test_agrees_with_sylvester(gram):
    k = len(gram)
    if is_definite_sylvester(gram):
        sign, _ = definite_ldl(real_form(gram))
        assert sign == (1 if gram[0][0].a > 0 else -1)
        assert abelian_quotient_betti([], k, gram).betti[0] == 1
    else:
        with pytest.raises(ValueError, match="not hermitian|degenerate form|lattice is indefinite"):
            abelian_quotient_betti([], k, gram)


class TestRoots:
    def test_classical_root_counts(self):
        assert len(enumerate_roots(z_form(E1))) == 6
        assert len(enumerate_roots(z_form(E2))) == 24
        assert len(enumerate_roots(z_form(E3))) == 72
        assert len(enumerate_roots(z_form(E4))) == 240

    def test_block_sum_root_count(self):
        assert len(enumerate_roots(z_form(named_lattice("3E3")))) == 216

    def test_eisenstein_roots_have_norm_three(self):
        for r in eisenstein_roots(E3):
            assert E3.pair(r, r) == EisInt(3, 0)

    def test_root_sets_coincide(self):
        # Eisenstein roots correspond exactly to the square -2 vectors
        assert len(eisenstein_roots(E4)) == len(enumerate_roots(z_form(E4)))

    def test_vectors_of_other_norm(self):
        # norm -4 vectors of the hexagonal plane: none (only -2, -6, -8...)
        assert enumerate_vectors(z_form(E1), -4) == []


class TestWeylGroups:
    def test_orders(self):
        assert weyl_group(E1).order == 3
        assert weyl_group(E3).order == 648
        assert weyl_group(E4).order == 155520

    def test_orders_come_without_closure(self, monkeypatch):
        from stratify import invariants

        def refuse(*args):
            raise AssertionError("matrix chain or element walk called")

        monkeypatch.setattr(invariants, "_matrix_chain", refuse)
        monkeypatch.setattr(invariants, "_elements", refuse)
        assert weyl_group(E3).order == 648
        w4 = weyl_group(E4)
        assert w4.order == 155520 and len(w4.gens) == 4

    def test_roots_short_of_spanning(self):
        # the roots of diag(3, 6) span only the first line; a triflection
        # fixes its orthogonal complement, so the action is still faithful
        lat = eis_lattice([[3, 0], [0, 6]])
        w = weyl_group(lat)
        assert w.order == 3 and len(w.gens) == 1
        # an isometry need not: the reference engine checks the complement
        sign = eis_matrix([[1, 0], [0, -1]])  # fixes every root
        with pytest.raises(AssertionError, match="not certified faithful"):
            isometry_group_order(lat, [sign])

    @pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "3E1", "3E3"])
    def test_negative_definite_lattice_has_the_same_weyl_group(self, name):
        # a root of -L has norm -3; its triflections are those of L
        lat = named_lattice(name)
        neg = EisLattice(lat.rank, tuple(tuple(-e for e in row) for row in lat.gram))
        assert triflections(neg) == triflections(lat)
        assert weyl_group(neg).order == weyl_group(lat).order
        if lat.rank <= MAX_QUOTIENT_RANK:  # 3E3's boundary is over the rank cap
            tables = [boundary_betti({"factors": [{"lattice": x, "group": "weyl"}]})
                      for x in (lat, neg)]
            assert tables[0] == tables[1]

    def test_generator_must_permute_the_roots(self):
        with pytest.raises(AssertionError, match="permute the roots"):
            isometry_group_order(E1, [eis_matrix([[2]])])

    def test_molien_closes_a_weyl_group(self):
        w2 = weyl_group(E2)
        closed = close_group(w2.gens)
        assert molien(w2, 2, 12) == molien(closed, 2, 12)
        wrong = FiniteMatrixGroup("E", 2, w2.gens, 12, w2.form)
        with pytest.raises(AssertionError, match="order 24"):
            molien(wrong, 2, 12)

    def test_order_divides_declared_supergroup(self):
        # the rank-3 triflection group sits inside the rank-6 real Weyl group
        assert 51840 % weyl_group(E3).order == 0

    def test_triflections_order_three_and_isometry(self):
        ident = identity(E3.rank)
        for r in eisenstein_roots(E3):
            mat = triflection(E3, r)
            cube = mat_mul(mat_mul(mat, mat), mat)
            assert cube == ident and mat != ident

    @pytest.mark.parametrize("name, count", [("E1", 1), ("E2", 4), ("E3", 12), ("E4", 40),
                                             ("3E1", 3)])
    def test_one_root_per_line_gives_the_all_roots_list(self, name, count):
        lat = named_lattice(name)
        everyone = []
        for r in eisenstein_roots(lat):
            mat = triflection(lat, r)
            if mat not in everyone:
                everyone.append(mat)
        assert triflections(lat) == everyone and len(everyone) == count

    def test_triflection_requires_root(self):
        with pytest.raises(ValueError):
            triflection(E3, [EisInt(1, 0), EisInt(1, 0), EisInt(0, 0)])


class TestDiscriminant:
    def test_rank6_root_lattice(self):
        d = discriminant_form(z_form(E3))
        assert d.invariant_factors == (3,)
        assert d.q_values[0] % 2 == Fraction(-4, 3) % 2

    def test_unimodular_trivial(self):
        assert discriminant_form(z_form(E4)).invariant_factors == ()

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            discriminant_form(ZLattice(2, ((1, 1), (1, 1))))


class TestDivisibility:
    def test_basis_root(self):
        zl = z_form(E3)
        v = [0] * 6
        v[0] = 1
        assert divisibility(v, zl) == 1

    def test_norm_minus12_div3_vector_exists(self):
        zl = z_form(E3)
        v = find_norm_div_vector(zl, -12, 3)
        assert v is not None
        assert z_pair(zl, v, v) == -12 and divisibility(v, zl) == 3

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            divisibility([0] * 6, z_form(E3))


def _three_copies(zl):
    n = zl.rank
    big = [[0] * (3 * n) for _ in range(3 * n)]
    for c in range(3):
        for i in range(n):
            for j in range(n):
                big[c * n + i][c * n + j] = zl.gram[i][j]
    return ZLattice(3 * n, tuple(tuple(r) for r in big))


class TestGlue:
    def test_diagonal_glue(self):
        zl = z_form(E3)
        z = find_norm_div_vector(zl, -12, 3)
        big = _three_copies(zl)
        glue = [Fraction(x, 3) for _ in range(3) for x in z]
        res = glue_overlattice(big, [glue])
        assert res.index == 3
        assert res.lattice.is_even()
        assert res.disc.invariant_factors == (3,)
        # difference of glue summands: square -24, divisibility 3
        diff = [0] * 18
        for i, x in enumerate(z):
            diff[i] = x
            diff[6 + i] = -x
        assert z_pair(big, diff, diff) == -24
        # divisibility inside the overlattice: pair against the glued basis
        vals = []
        for row in res.basis:
            vals.append(sum(Fraction(row[i]) * big.gram[i][j] * diff[j]
                            for i in range(18) for j in range(18)))
        assert all(v.denominator == 1 for v in vals)
        from math import gcd
        assert gcd(*[int(v) for v in vals]) == 3

    @pytest.mark.parametrize("zl, piece, index", [
        (z_form(E3), None, 3),  # the cubic3fold glue: z/3 with z of norm -12, div 3
        (z_form(E1), [Fraction(2, 3), Fraction(1, 3)], 3),  # 3E1 glued to E6
    ])
    def test_glue_basis_spans_the_generators(self, zl, piece, index):
        # the basis is not canonical, so check what makes it a basis: it
        # spans exactly the lattice of R = [3 I ; 3 glue], in units of 1/3
        if piece is None:
            piece = [Fraction(x, 3) for x in find_norm_div_vector(zl, -12, 3)]
        big = _three_copies(zl)
        n = big.rank
        glue = piece * 3
        res = glue_overlattice(big, [glue])
        assert res.index == index and res.lattice.is_even()
        basis = [[int(3 * x) for x in row] for row in res.basis]
        assert all(3 * x == y for row, brow in zip(res.basis, basis) for x, y in zip(row, brow))
        d, adj = adjugate(basis)
        assert abs(d) * res.index == 3 ** n
        rows = [[3 * int(i == j) for j in range(n)] for i in range(n)]
        rows.append([int(3 * x) for x in glue])
        # the coordinates of a row r are r adj / d
        for r in rows:
            assert all(sum(r[i] * adj[i][j] for i in range(n)) % d == 0 for j in range(n))

    def test_empty_glue_is_identity(self):
        zl = z_form(E1)
        res = glue_overlattice(zl, [])
        assert res.index == 1 and res.lattice.gram == zl.gram

    @pytest.mark.parametrize("glue", [[Fraction(1, 3)], [Fraction(1, 3)] * 3])
    def test_glue_of_wrong_length_rejected(self, glue):
        with pytest.raises(ValueError, match="length differs from the lattice rank 2"):
            glue_overlattice(z_form(E1), [glue])

    def test_non_isotropic_glue_rejected(self):
        zl = z_form(E3)
        z = find_norm_div_vector(zl, -12, 3)
        big = _three_copies(zl)
        bad = [Fraction(x, 3) for x in z] + [Fraction(0)] * 12
        with pytest.raises(ValueError):
            glue_overlattice(big, [bad])

    def test_dual_membership_enforced(self):
        zl = z_form(E1)
        with pytest.raises(ValueError):
            glue_overlattice(zl, [[Fraction(1, 5), Fraction(0)]])


def test_cusp_vector_verification():
    rep = verify_unimodular_complement_vector()
    assert rep.ok and rep.norm == 3 and rep.div_norm == 9


def span_index(elements):
    """The index in Z^2 of the span of each element a + b omega and its
    omega-multiple, as (a, b) rows: the gcd of their 2 x 2 minors, which is 0
    when they do not have rank 2."""
    rows = [(x.a, x.b) for e in elements for x in (e, OMEGA * e)]
    return gcd(*(p * s - q * r for (p, q), (r, s) in combinations(rows, 2)))


eis_elements = st.builds(EisInt, st.integers(-60, 60), st.integers(-60, 60))


@st.composite
def ideal_generators(draw):
    """0-6 elements: zeros, units, associates and multiples of one element,
    and random entries."""
    base = draw(eis_elements)
    entry = st.one_of(st.just(EisInt(0, 0)), st.sampled_from(UNITS),
                      st.sampled_from(UNITS).map(lambda u: u * base),
                      eis_elements.map(lambda x: x * base), eis_elements)
    return draw(st.lists(entry, max_size=6))


@settings(max_examples=300, deadline=None)
@given(ideal_generators())
def test_ideal_norm_is_the_index_of_the_span(elements):
    norm = _ideal_norm(elements)
    assert type(norm) is int and norm == span_index(elements)
    if len(elements) == 1:  # a principal ideal has the norm of its generator
        assert norm == elements[0].norm()


class TestBoundary:
    def test_wreath_pair_with_line_factor(self):
        t = boundary_betti({"factors": [
            {"lattice": "E1", "group": O3E1_GENS_RANK1, "count": 1},
            {"lattice": "E4", "group": "weyl", "count": 2}]})
        assert t.even() == [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
        assert all(b == 0 for b in t.odd())

    def test_wreath_triple(self):
        t = boundary_betti({"factors": [{"lattice": "E3", "group": "weyl", "count": 3}]})
        assert t.even() == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]

    def test_full_isometry_enumeration(self):
        t = boundary_betti({"factors": [
            {"lattice": "3E1", "group": O3E1_GENS, "count": 1}]})
        assert t.even() == [1, 1, 1, 1] and t.odd() == [0, 0, 0]

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            boundary_betti({"factors": []})


O3E1_GENS_RANK1 = {"generators": [[[(0, 1)]], [[(-1, 0)]]]}


Z_ROOTS = {lat: enumerate_roots(z_form(lat)) for lat in (E1, E2, E3)}
TRIFLECTIONS = {lat: triflections(lat) for lat in Z_ROOTS}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([E1, E2, E3]), st.data())
def test_z_matrix_acts_as_the_eisenstein_product(lat, data):
    # the integer action `generating_triflections` permutes the roots by
    word = data.draw(st.lists(st.sampled_from(TRIFLECTIONS[lat]), min_size=1, max_size=4))
    zroot = data.draw(st.sampled_from(Z_ROOTS[lat]))
    mat = word[0]
    for t in word[1:]:
        mat = mat_mul(mat, t)
    column = mat_mul(mat, [[x] for x in eis_vector_from_z(zroot)])
    expected = tuple(c for (e,) in column for c in (e.a, e.b))
    assert tuple(sum(map(mul, row, zroot)) for row in z_matrix(mat)) == expected


# --- a few triflections whose root orbits cover every line generate W --------

WEYL_ORDERS = {"E1": (1, 3), "E2": (2, 24), "E3": (3, 648), "E4": (4, 155520),
               "3E1": (3, 27), "3E3": (9, 648**3), "E1+2E4": (9, 3 * 155520**2)}


def negation(lat):
    return EisLattice(lat.rank, tuple(tuple(-e for e in row) for row in lat.gram))


@pytest.mark.parametrize("name", WEYL_ORDERS)
def test_generating_triflections_are_certified(name):
    count, order = WEYL_ORDERS[name]
    lat = named_lattice(name)
    for x in (lat, negation(lat)):
        mats, perms = generating_triflections(x)
        everyone = triflections(x)
        assert len(mats) == count and all(m in everyone for m in mats)
        assert perms == root_permutations(x, mats)
        assert permutation_group_order(perms) == isometry_group_order(x, everyone) == order
        assert weyl_group(x).gens == mats


@pytest.mark.parametrize("name, smaller", [("E2", 3), ("E3", 24), ("E4", 648),
                                           ("3E3", 10_077_696)])
def test_each_generating_triflection_is_needed(name, smaller):
    # the kept set is minimal: without any one, its orbits miss a root line
    _, perms = generating_triflections(named_lattice(name))
    for i in range(len(perms)):
        assert permutation_group_order(perms[:i] + perms[i + 1:]) == smaller


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "3E1"])
def test_generating_triflections_give_the_all_triflection_quotient(name):
    lat = named_lattice(name)
    for x in (lat, negation(lat)):
        assert (abelian_quotient_betti(generating_triflections(x)[0], x.rank, x.gram)
                == abelian_quotient_betti(triflections(x), x.rank, x.gram))


@pytest.mark.parametrize("name, count", [("E3", 1), ("E3", 2), ("E3", 3), ("E4", 2)])
def test_weyl_boundary_matches_the_all_triflection_boundary(name, count):
    lat = named_lattice(name)
    everyone = {"generators": [[[[e.a, e.b] for e in row] for row in m]
                               for m in triflections(lat)]}
    t = boundary_betti({"factors": [{"lattice": name, "group": "weyl", "count": count}]})
    assert t == boundary_betti({"factors": [{"lattice": name, "group": everyone,
                                             "count": count}]})
    if name == "E4":
        assert t.even() == [1, 1, 2, 2, 3, 2, 2, 1, 1] and not any(t.odd())
