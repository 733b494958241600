"""Differential tests for the shared exact arithmetic in `stratify._exact`.

Each helper is checked against an independent computation of the same
quantity: Smith normal form for |det| and rank over Q, cofactor expansion on
(a, b) integer pairs (`minor_det` below) for det over Z and Q(omega), the
product with the input for the inverse, and rank for the dimension of the
nullspace.  Entries reach past 2^63 so that nothing can hide behind machine
integers, and no result may ever be a float.

`smith_normal_form` blows up on dense matrices with large entries (a random
4 x 4 matrix with 10-bit entries grows intermediates past 4300 digits), so the
Smith comparisons take a matrix with entries in [-9, 9] times a scalar of up
to 70 bits: its entries pass 2^63 while Smith takes the steps it takes on
the small matrix.  Unscaled large entries are checked against cofactors.
"""

from fractions import Fraction
from math import prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratify._exact import EisInt, det, inverse, nullspace, rank
from stratify.eisenstein import smith_normal_form


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


@settings(max_examples=40, deadline=None)
@given(low_rank(), low_rank())
def test_nullspace_is_the_kernel(re, im):
    rows, cols = min(len(re), len(im)), min(len(re[0]), len(im[0]))
    for mat in ([row[:cols] for row in re[:rows]],
                [[EisInt(re[i][j], im[i][j]) for j in range(cols)] for i in range(rows)]):
        basis = nullspace(mat)
        assert_exact(basis)
        assert len(basis) == cols - rank(mat)
        assert all(not sum(x * y for x, y in zip(row, v)) for row in mat for v in basis)
        if basis:
            assert rank(basis) == len(basis)


@settings(max_examples=60, deadline=None)
@given(st.one_of(square(big_ints), square(fractions)))
def test_rational_inverse(mat):
    assume(det(mat) != 0)
    inv = inverse(mat)
    assert_exact(inv)
    assert matmul(inv, mat) == identity_like(len(mat), 1, 0)


@settings(max_examples=40, deadline=None)
@given(st.one_of(square(eis_ints, max_size=3), square(eis_fractions, max_size=3)))
def test_eisenstein_inverse(mat):
    assume(det(mat))
    inv = inverse(mat)
    assert_exact(inv)
    one, zero = EisInt(1, 0), EisInt(0, 0)
    assert matmul(inv, mat) == identity_like(len(mat), one, zero)
    assert matmul(mat, inv) == identity_like(len(mat), one, zero)


@settings(max_examples=100, deadline=None)
@given(st.one_of(eis_ints, eis_fractions), st.one_of(eis_ints, eis_fractions),
       st.one_of(big_ints, fractions))
def test_eisenstein_operations_stay_exact(x, y, r):
    results = [x + y, x - y, -x, x * y, x * r, r * x, x + r, r - x,
               x.conj(), x.norm(), x / (r or 1)]
    if y:
        results += [x / y, r / y]
    assert_exact(results)
    assert (x - y) + y == x
    assert (x * y).norm() == x.norm() * y.norm()
    if y:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(eis_ints, eis_ints)
def test_integral_division_stays_integral(x, y):
    assume(y)
    q = (x * y) / y
    assert q == x and type(q.a) is int and type(q.b) is int
    q, r = x.divmod_nearest(y)
    assert q * y + r == x and r.norm() < y.norm()
    assert_exact((q, r))
