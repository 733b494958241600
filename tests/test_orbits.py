from collections import Counter
from fractions import Fraction

import pytest

from hull_reference import dot
from stratify.orbits import (
    MultiPoly,
    check_semiinvariant,
    df_matrix,
    normal_rep_of,
    parse_poly,
)
from stratify.weights import hypersurface_weights, vec

F_3D4 = "x0*x1*x2 + x3^3 + x4^3"
F_CHORDAL = "x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 - 2*x1*x2*x3"
F_2A5_GENERIC = "x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 + x1*x2*x3"


class TestParse:
    def test_round_trip_terms(self):
        p = parse_poly("2*x0^2*x1 - 1/3*x2^3 + x1*x2", 3)
        assert p.terms[(2, 1, 0)] == 2
        assert p.terms[(0, 0, 3)] == Fraction(-1, 3)
        assert p.terms[(0, 1, 1)] == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("x0 + **", 2)
        with pytest.raises(ValueError):
            parse_poly("x9", 2)


class TestDFMatrix:
    def test_triple_product_entries(self):
        f = parse_poly(F_3D4, 5)
        df = df_matrix(f, 4)
        assert df[0][0] == parse_poly("x0*x1*x2", 5)
        assert df[3][0] == parse_poly("3*x0*x3^2", 5)

    def test_single_variable_cubic(self):
        f = parse_poly("x0^3", 5)
        df = df_matrix(f, 4)
        assert df[0][1] == parse_poly("3*x0^2*x1", 5)
        assert all(df[i][j].is_zero() for i in range(1, 5) for j in range(5))

    def test_pencil_relation(self):
        # the unique linear relation among the derivative entries
        f = parse_poly(F_2A5_GENERIC, 5)
        df = df_matrix(f, 4)
        rel = df[0][0].scale(2) + df[1][1] + df[3][3].scale(-1) + df[4][4].scale(-2)
        assert rel.is_zero()

    def test_triple_product_relations(self):
        f = parse_poly(F_3D4, 5)
        df = df_matrix(f, 4)
        assert df[0][0] == df[1][1] == df[2][2]

    def test_entry_weights(self):
        # entries of an eigenform are eigenvectors of weight w(F)+w(xj)-w(xi)
        f = parse_poly(F_2A5_GENERIC, 5)
        df = df_matrix(f, 4)
        cochar = (2, 1, 0, -1, -2)
        for i in range(5):
            for j in range(5):
                p = df[i][j]
                if p.is_zero():
                    continue
                weights = {sum(e * c for e, c in zip(expo, cochar)) for expo in p.terms}
                assert weights == {cochar[j] - cochar[i]}


class TestNormalRep:
    def test_chordal_weights(self):
        split = normal_rep_of(parse_poly(F_CHORDAL, 5), [[4, 2, 0, -2, -4]])
        assert split.span_dim == 22 and split.relation_count == 3
        ladder = sorted(p[0] for p in split.normal.pairings)
        assert ladder == [Fraction(w) for w in range(-12, 13, 2)]
        # tangent multiset: (+-8)x1, (+-6)x2, (+-4)x3, (+-2)x3, (0)x4
        tangent = Counter(p[0] for p in split.tangent_pairings)
        assert tangent == Counter(
            {Fraction(8): 1, Fraction(-8): 1, Fraction(6): 2, Fraction(-6): 2,
             Fraction(4): 3, Fraction(-4): 3, Fraction(2): 3, Fraction(-2): 3,
             Fraction(0): 4})

    def test_pencil_weights_with_extra_tangent(self):
        split = normal_rep_of(parse_poly(F_2A5_GENERIC, 5), [[2, 1, 0, -1, -2]],
                              ["x2^3"])
        assert split.relation_count == 1
        ladder = sorted(p[0] for p in split.normal.pairings)
        assert ladder == [Fraction(w) for w in
                          (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]

    def test_triple_product_projected_weights(self):
        split = normal_rep_of(parse_poly(F_3D4, 5),
                              [[1, 0, -1, 0, 0], [0, 1, -1, 0, 0]])
        assert split.normal.dim == 12 and split.relation_count == 2
        weights = Counter(split.normal.weights)
        third = Fraction(1, 3)
        expected = Counter()
        for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            base = [0] * 5
            cubes = {perm[0]: Fraction(2), perm[1]: Fraction(-1), perm[2]: Fraction(-1)}
            v_cube = tuple(cubes.get(i, Fraction(0)) for i in range(5))
            expected[v_cube] += 1
            v_sq = tuple(c * 2 * third for c in v_cube)
            expected[v_sq] += 2
            v_lin = tuple(c * third for c in v_cube)
            expected[v_lin] += 1
        assert weights == expected

    def test_tangent_plus_normal_is_ambient(self):
        ws = hypersurface_weights(4, 3)
        cochar = vec((2, 1, 0, -1, -2))
        ambient = Counter(dot(w, cochar) for w in ws.weights)
        split = normal_rep_of(parse_poly(F_2A5_GENERIC, 5), [[2, 1, 0, -1, -2]],
                              ["x2^3"])
        combined = Counter(p[0] for p in split.tangent_pairings)
        combined.update(p[0] for p in split.normal.pairings)
        assert combined == ambient

    def test_rejects_non_eigenvector(self):
        with pytest.raises(ValueError):
            normal_rep_of(parse_poly("x0^3 + x1^3", 5), [[2, 1, 0, -1, -2]])

    def test_rejects_wrong_degree_extra(self):
        with pytest.raises(ValueError):
            normal_rep_of(parse_poly(F_2A5_GENERIC, 5), [[2, 1, 0, -1, -2]],
                          ["x2^2"])


class TestSemiInvariant:
    def test_diagonal_stabilizer_member(self):
        f = parse_poly(F_3D4, 5)
        g = [[2, 0, 0, 0, 0], [0, 3, 0, 0, 0], [0, 0, Fraction(1, 6), 0, 0],
             [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        rep = check_semiinvariant(f, g)
        assert rep.ok and rep.scalar == 1

    def test_coordinate_reversal(self):
        f = parse_poly(F_CHORDAL, 5)
        rev = [[1 if j == 4 - i else 0 for j in range(5)] for i in range(5)]
        rep = check_semiinvariant(f, rev)
        assert rep.ok and rep.scalar == 1

    def test_shear_fails(self):
        f = parse_poly("x0^3", 3)
        shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]  # x0 -> x0 + x1
        rep = check_semiinvariant(f, shear)
        assert not rep.ok and rep.scalar is None

    def test_shear_missing_the_form_is_invariant(self):
        f = parse_poly("x0^3", 3)
        shear = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]  # x1 -> x1 + x0
        rep = check_semiinvariant(f, shear)
        assert rep.ok and rep.scalar == 1

    def test_scaling_action(self):
        f = parse_poly("x0^3", 3)
        rep = check_semiinvariant(f, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rep.ok and rep.scalar == 8


def test_multipoly_drops_zero_coefficients():
    p = MultiPoly(2, {(1, 0): 1}) + MultiPoly(2, {(1, 0): 1}).scale(-1)
    assert p.is_zero() and p.terms == {}


def test_integral_coefficients_are_ints():
    p = parse_poly("2*x0^2*x1 - 1/3*x2^3 + 4/2*x1*x2", 3)
    assert {e: type(c) for e, c in p.terms.items()} == {
        (2, 1, 0): int, (0, 0, 3): Fraction, (0, 1, 1): int}
    q = p.scale(Fraction(3, 1)) + p.diff(2).scale(Fraction(4, 2))
    assert all(type(c) is int for c in q.terms.values())


def test_semiinvariant_scalar_of_an_integer_form_is_a_fraction():
    # the scalar is an exact quotient of integers: a Fraction, never an int
    # (it serializes as [num, den]) nor a float
    f = parse_poly("x0*x1*x2", 3)
    rep = check_semiinvariant(f, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert rep.ok and type(rep.scalar) is Fraction and rep.scalar == -1
    rep = check_semiinvariant(parse_poly("2*x0^3", 3), [[3, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert type(rep.scalar) is Fraction and rep.scalar == 27


@pytest.mark.parametrize("cochars", [[[2, 1, 0, -1, -2]], [[1, "1/2", 0, "-1/2", -1]],
                                     [["2/3", "1/3", 0, "-1/3", "-2/3"]]])
def test_split_fields_are_fractions(cochars):
    # pairings are found with the cocharacters scaled to integers; the
    # record keeps the exact rational pairings and projected weights
    split = normal_rep_of(parse_poly(F_2A5_GENERIC, 5), cochars, ["x2^3"])
    scale = Fraction(vec(cochars[0])[0], 2)
    for pairings in (split.tangent_pairings, split.normal.pairings):
        assert all(type(c) is Fraction for p in pairings for c in p)
    for weights in (split.tangent_weights, split.normal.weights):
        assert all(type(c) is Fraction for w in weights for c in w)
    ladder = sorted(p[0] / scale for p in split.normal.pairings)
    assert ladder == [Fraction(w) for w in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]
    for p, w in zip(split.normal.pairings, split.normal.weights):
        assert dot(w, vec(cochars[0])) == p[0]


def test_cocharacters_of_different_denominators():
    # the cocharacters are scaled over one common denominator: a cocharacter
    # rescaled by 1/2, another by 1/3, give the same projected weights in the
    # same order, and pairings rescaled alike
    f = parse_poly("x0*x1*x2", 3)
    whole = normal_rep_of(f, [[1, 0, -1], [0, 1, -1]])
    halves = normal_rep_of(f, [["1/2", 0, "-1/2"], [0, "1/3", "-1/3"]])
    assert halves.tangent_weights == whole.tangent_weights
    assert halves.normal.weights == whole.normal.weights
    assert halves.normal.dim == whole.normal.dim > 0
    for got, ref in ((halves.tangent_pairings, whole.tangent_pairings),
                     (halves.normal.pairings, whole.normal.pairings)):
        assert got == tuple((p / 2, q / 3) for p, q in ref)


def test_cocharacters_must_match_the_variables():
    f = parse_poly(F_3D4, 5)
    for cochars in ([], [[1, 0, -1, 0]]):
        with pytest.raises(ValueError, match="one entry per variable"):
            normal_rep_of(f, cochars)
