"""Differential tests for the shared exact arithmetic in `stratify._exact`.

Each helper is checked against an independent computation of the same
quantity: Smith normal form for |det| and rank over Q, cofactor expansion on
(a, b) integer pairs (`minor_det` below) for det over Z and Q(omega), the
products with the input for the adjugate, and a reduced row echelon form
over Q and Q(omega) (`rref_nullspace` below) for the nullspace.  All four
come from one fraction-free elimination, `_pure.echelon`; sparse matrices
with zero rows and columns run its zero-skipping branches.  Entries reach
past 2^63 so that nothing can hide behind machine integers, and no result
may ever be a float.

`smith_normal_form` blows up on dense matrices with large entries (a random
4 x 4 matrix with 10-bit entries grows intermediates past 4300 digits, where
its growth cap refuses it), so the Smith comparisons take a matrix with entries in [-9, 9] times a scalar of up
to 70 bits: its entries pass 2^63 while Smith takes the steps it takes on
the small matrix.  Unscaled large entries are checked against cofactors.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratify._exact import EisInt, adjugate, det, eis, nullspace
from stratify._pure import ResourceCapError, rank
from stratify.discriminant import smith_normal_form


def minor_det(mat, rows, cols):
    """Determinant of a square Z[omega] submatrix of (a, b) pairs by cofactors."""
    if not rows:
        return (1, 0)
    ra, rb = 0, 0
    sign = 1
    for t, r in enumerate(rows):
        a, b = mat[r][cols[0]]
        if (a, b) != (0, 0):
            c, d = minor_det(mat, rows[:t] + rows[t + 1:], cols[1:])
            bd = b * d  # (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w
            ra += sign * (a * c - bd)
            rb += sign * (a * d + b * c - bd)
        sign = -sign
    return ra, rb


def rref_nullspace(rows):
    """Kernel basis by reduced row echelon form over Q or Q(omega), dividing
    through `Fraction`: one vector per free column, 1 there and 0 at the
    other free columns.  The reference for `nullspace`."""
    rows = [[Fraction(x) if type(x) is int else x for x in r] for r in rows]
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        f = rows[rk][col]
        head = rows[rk] = [x / f for x in rows[rk]]
        for i, r in enumerate(rows):
            if i != rk and r[col]:
                fi = r[col]
                rows[i] = [x - fi * y for x, y in zip(r, head)]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = -rows[r][free]
        basis.append(x)
    return basis


BIG = 2**70
big_ints = st.integers(-BIG, BIG)
small_ints = st.integers(-3, 3)
fractions = st.builds(Fraction, big_ints, st.integers(1, BIG))
eis_ints = st.builds(EisInt, big_ints, big_ints)
eis_fractions = st.builds(EisInt, fractions, fractions)


def square(entries, max_size=4):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def low_rank(draw, entries=small_ints):
    """An n x m integer matrix A B with A n x r and B r x m, so rank <= r."""
    n, m, r = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r))
    return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(m)] for i in range(n)]


@st.composite
def scaled(draw, matrices):
    """A matrix times a nonzero scalar of up to 70 bits."""
    c = draw(big_ints.filter(bool))
    return [[c * x for x in row] for row in draw(matrices)]


@st.composite
def sparse(draw, entries, square=False):
    """An up to 8 x 8 matrix, about three entries in four zero, with some
    rows and columns zero throughout."""
    n = draw(st.integers(1, 8))
    m = n if square else draw(st.integers(1, 8))
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, m - 1)))
    return [[draw(entries) if i not in zero_rows and j not in zero_cols
             and draw(st.integers(0, 3)) == 0 else 0 * draw(entries)
             for j in range(m)] for i in range(n)]


def assert_exact(x):
    """Every leaf is an int or a Fraction; EisInt parts included."""
    if isinstance(x, (list, tuple)):
        for y in x:
            assert_exact(y)
    elif isinstance(x, EisInt):
        assert_exact((x.a, x.b))
    else:
        assert type(x) in (int, Fraction), type(x)


def smith_diagonal(mat):
    d, _, _ = smith_normal_form([list(r) for r in mat])
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def matmul(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), 0 * x[0][0])
             for j in range(len(y[0]))] for i in range(len(x))]


def identity_like(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def realify(mat):
    """Integer 2n x 2m matrix of an Eisenstein matrix on the basis 1, omega."""
    out = []
    for row in mat:
        out.append([x for e in row for x in (e.a, -e.b)])
        out.append([x for e in row for x in (e.b, e.a - e.b)])
    return out


@settings(max_examples=60, deadline=None)
@given(scaled(st.one_of(square(st.integers(-9, 9)),
                        low_rank().filter(lambda m: len(m) == len(m[0])))))
def test_det_matches_smith_diagonal(mat):
    d = det(mat)
    assert type(d) is int
    assert abs(d) == prod(smith_diagonal(mat))


def test_smith_growth_is_capped():
    mat = [[-912, 467, 880, 280], [532, 711, -351, -298],
           [-57, -80, -927, -301], [307, -313, -465, 449]]
    with pytest.raises(ResourceCapError, match="Hadamard bound of the input: 40 bits"):
        smith_normal_form(mat)


@settings(max_examples=60, deadline=None)
@given(square(big_ints))
def test_integer_det_matches_cofactor_expansion(mat):
    d = det(mat)
    assert type(d) is int
    pairs = [[(x, 0) for x in row] for row in mat]
    n = len(mat)
    assert (d, 0) == minor_det(pairs, list(range(n)), list(range(n)))


@settings(max_examples=60, deadline=None)
@given(square(eis_ints))
def test_eisenstein_det_matches_cofactor_expansion(mat):
    d = det(mat)
    assert_exact(d)
    assert type(d.a) is int and type(d.b) is int
    pairs = [[(e.a, e.b) for e in row] for row in mat]
    n = len(mat)
    assert (d.a, d.b) == minor_det(pairs, list(range(n)), list(range(n)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse(big_ints, square=True), sparse(eis_ints, square=True)))
def test_sparse_det_matches_cofactor_expansion(mat):
    d = det(mat)
    assert_exact(d)
    pairs = [[(e.a, e.b) if isinstance(e, EisInt) else (e, 0) for e in row] for row in mat]
    n = len(mat)
    got = (d.a, d.b) if isinstance(d, EisInt) else (d, 0)
    assert all(type(x) is int for x in got)
    assert got == minor_det(pairs, list(range(n)), list(range(n)))


@settings(max_examples=40, deadline=None)
@given(square(eis_ints, max_size=3))
def test_eisenstein_det_is_multiplicative(mat):
    conj_t = [[mat[j][i].conj() for j in range(len(mat))] for i in range(len(mat))]
    d = det(mat)
    assert det(matmul(conj_t, mat)) == d.conj() * d


@settings(max_examples=60, deadline=None)
@given(scaled(low_rank()))
def test_rank_matches_smith_diagonal(mat):
    r = rank(mat)
    assert r == sum(1 for x in smith_diagonal(mat) if x != 0)
    assert rank([[Fraction(x, 7) for x in row] for row in mat]) == r


@settings(max_examples=40, deadline=None)
@given(low_rank(), low_rank())
def test_eisenstein_rank_is_half_the_rational_rank(re, im):
    rows, cols = min(len(re), len(im)), min(len(re[0]), len(im[0]))
    mat = [[EisInt(re[i][j], im[i][j]) for j in range(cols)] for i in range(rows)]
    assert 2 * rank(mat) == rank(realify(mat))


def parts(v):
    return [x for e in v for x in ((e.a, e.b) if isinstance(e, EisInt) else (e,))]


def assert_kernel_basis(mat, basis):
    """``basis`` spans the kernel of ``mat`` computed by `rref_nullspace`; its
    vectors have int parts with gcd 1."""
    ref = rref_nullspace(mat)
    assert len(basis) == len(ref) == len(mat[0]) - rank(mat)
    assert all(not sum(x * y for x, y in zip(row, v)) for row in mat for v in basis)
    if basis:
        assert rank(basis) == rank(ref) == rank(basis + ref) == len(basis)
    for v in basis:
        assert all(type(x) is int for x in parts(v))
        assert gcd(*parts(v)) == 1


@settings(max_examples=40, deadline=None)
@given(low_rank(), low_rank())
def test_nullspace_is_the_kernel(re, im):
    rows, cols = min(len(re), len(im)), min(len(re[0]), len(im[0]))
    for mat in ([row[:cols] for row in re[:rows]],
                [[EisInt(re[i][j], im[i][j]) for j in range(cols)] for i in range(rows)],
                [[Fraction(re[i][j], 1 + abs(im[i][j])) for j in range(cols)]
                 for i in range(rows)]):
        basis = nullspace(mat)
        assert_exact(basis)
        assert_kernel_basis(mat, basis)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse(st.integers(-9, 9)), sparse(big_ints), sparse(fractions),
                 sparse(st.builds(EisInt, small_ints, small_ints)), sparse(eis_ints),
                 sparse(eis_fractions)))
def test_sparse_nullspace_is_the_kernel(mat):
    basis = nullspace(mat)
    assert_exact(basis)
    assert_kernel_basis(mat, basis)
    if all(isinstance(e, EisInt) for row in mat for e in row):
        assert all(isinstance(e, EisInt) for v in basis for e in v)


def assert_adjugate(mat):
    d, adj = adjugate(mat)
    assert_exact(adj)
    assert d == det(mat)
    scalar = [[d * x for x in row] for row in identity_like(len(mat), 1, 0)]
    assert matmul(adj, mat) == scalar
    assert matmul(mat, adj) == scalar


@settings(max_examples=60, deadline=None)
@given(st.one_of(square(big_ints), square(fractions)))
def test_rational_adjugate(mat):
    assume(det(mat) != 0)
    assert_adjugate(mat)


@settings(max_examples=40, deadline=None)
@given(st.one_of(square(eis_ints, max_size=3), square(eis_fractions, max_size=3)))
def test_eisenstein_adjugate(mat):
    assume(det(mat))
    assert_adjugate(mat)


@settings(max_examples=40, deadline=None)
@given(st.one_of(square(big_ints), square(fractions), square(eis_ints, max_size=3)),
       st.lists(small_ints, min_size=4, max_size=4))
def test_adjugate_of_a_singular_matrix_raises(mat, coeffs):
    # the first row becomes a combination of the others (zero when n = 1)
    mat[0] = [sum((c * row[j] for c, row in zip(coeffs, mat[1:])), 0 * mat[0][j])
              for j in range(len(mat))]
    assert not det(mat)
    with pytest.raises(ValueError, match="singular"):
        adjugate(mat)


@settings(max_examples=100, deadline=None)
@given(st.one_of(eis_ints, eis_fractions), st.one_of(eis_ints, eis_fractions),
       st.one_of(big_ints, fractions))
def test_eisenstein_operations_stay_exact(x, y, r):
    results = [x + y, x - y, -x, x * y, x * r, r * x, x + r, -x + r,
               x.conj(), x.norm(), x / (r or 1)]
    if y:
        results += [x / y, r / y]
    assert_exact(results)
    assert (x - y) + y == x
    assert (x * y).norm() == x.norm() * y.norm()
    if y:
        assert (x / y) * y == x


def test_eisint_equals_the_plain_number_it_stands_for():
    assert EisInt(3, 0) == 3 and 3 == EisInt(3, 0)
    assert not EisInt(0, 0) != 0
    assert EisInt(Fraction(1, 2), 0) == Fraction(1, 2)
    assert EisInt(3, 1) != 3 and EisInt(0, 1) != 0
    assert EisInt(1, 0) != "1"
    assert {EisInt(3, 0): "three"}[3] == "three"
    assert {3: "three"}[EisInt(Fraction(3), 0)] == "three"


def test_eis_takes_only_integer_pairs():
    assert eis([3, 1]) == EisInt(3, 1)
    for bad in ((Fraction(3, 2), 0), (0.5, 0), ("3", "1")):
        with pytest.raises(ValueError, match="is not an integer pair"):
            eis(bad)


@settings(max_examples=100, deadline=None)
@given(st.one_of(big_ints, fractions), st.one_of(big_ints, fractions),
       st.one_of(big_ints, fractions))
def test_eisint_compares_exactly_with_plain_numbers(a, b, r):
    x = EisInt(a, b)
    assert (x == r) is (r == x) is (b == 0 and a == r)
    assert (x != r) is not (x == r)
    assert (x == a) is (b == 0)
    if b == 0:
        assert hash(x) == hash(a)


@settings(max_examples=60, deadline=None)
@given(eis_ints, eis_ints)
def test_integral_division_stays_integral(x, y):
    assume(y)
    q = (x * y) / y
    assert q == x and type(q.a) is int and type(q.b) is int
