"""Hermitian lattices over the Eisenstein integers.

Conventions: omega is a primitive cube root of unity (omega^2 = -1 - omega),
theta = omega - omega^2 with theta * conj(theta) = 3.  Hermitian forms are
linear in the second slot, take values in theta * E, and have diagonal in 3Z.
The underlying integral form is (x, y) = -(2/3) Re<x, y> in the
coordinates of `_exact.z_matrix`.

Eisenstein numbers are `EisInt` and determinants come from
`stratify._exact`; this module keeps the lattices themselves (`EisLattice`,
the named lattices) and the Betti tables of toroidal boundary divisors.
The integral forms, roots and triflection groups are in `stratify.weyl`,
and the discriminant forms and overlattices in `stratify.discriminant`,
whose cusp check reads the norm of a Z[omega] ideal off a Smith form: no
gcd in Z[omega] is needed.

At load this module imports only `_pure` and `_exact`.  `boundary_betti`
imports `invariants` (quotients and symmetric powers) when it runs, and
`weyl` only for a factor acted on by its triflection group, which it
quotients by the few triflections that `weyl.generating_triflections` keeps.
A factor given as an earlier step's table is not quotiented again.
"""

from __future__ import annotations

from . import _pure
from ._exact import EisInt, eis, eis_matrix, mat_mul

E_ZERO = EisInt(0, 0)
E_ONE = EisInt(1, 0)
OMEGA = EisInt(0, 1)
THETA = EisInt(1, 2)  # omega - omega^2


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


class EisLattice(_pure.Record):
    """Hermitian Eisenstein lattice with theta-valued Gram matrix."""

    rank: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.rank or any(len(r) != self.rank for r in g):
            raise ValueError("gram size mismatch")
        for i in range(self.rank):
            d = g[i][i]
            if not d.is_real() or d.a % 3 != 0:
                raise ValueError("diagonal entries must be integers divisible by 3")
            for j in range(self.rank):
                if g[j][i] != g[i][j].conj():
                    raise ValueError("gram must be conjugate-symmetric")
                # theta-valued: entry * theta-conjugate divisible by 3
                if (g[i][j] * THETA.conj()).a % 3 or (g[i][j] * THETA.conj()).b % 3:
                    raise ValueError("entries must lie in theta * E")

    def pair(self, x, y) -> EisInt:
        """Hermitian pairing conj(x)^T G y, linear in the second slot."""
        row = mat_mul([[eis(c).conj() for c in x]], self.gram)
        return mat_mul(row, [[eis(c)] for c in y])[0][0]

    def direct_sum(self, other: "EisLattice") -> "EisLattice":
        r = self.rank + other.rank
        g = [[E_ZERO] * r for _ in range(r)]
        for i in range(self.rank):
            for j in range(self.rank):
                g[i][j] = self.gram[i][j]
        for i in range(other.rank):
            for j in range(other.rank):
                g[self.rank + i][self.rank + j] = other.gram[i][j]
        return EisLattice(r, tuple(tuple(row) for row in g))


def eis_lattice(gram_entries) -> EisLattice:
    gram = eis_matrix(gram_entries)
    return EisLattice(len(gram), gram)


def _tridiagonal_theta(rank: int) -> EisLattice:
    g = [[E_ZERO] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = EisInt(3, 0)
        if i + 1 < rank:
            g[i][i + 1] = THETA
            g[i + 1][i] = THETA.conj()
    return EisLattice(rank, tuple(tuple(r) for r in g))


E1 = _tridiagonal_theta(1)
E2 = _tridiagonal_theta(2)
E3 = _tridiagonal_theta(3)
E4 = _tridiagonal_theta(4)
H = eis_lattice([[0, [1, 2]], [[-1, -2], 0]])

NAMED_LATTICES = {
    "E1": E1,
    "E2": E2,
    "E3": E3,
    "E4": E4,
    "H": H,
    "3E1": E1.direct_sum(E1).direct_sum(E1),
    "3E3": E3.direct_sum(E3).direct_sum(E3),
    "E1+2E4": E1.direct_sum(E4).direct_sum(E4),
}


def named_lattice(name: str) -> EisLattice:
    try:
        return NAMED_LATTICES[name]
    except KeyError:
        raise KeyError(
            f"unknown lattice {name!r}; known: {sorted(NAMED_LATTICES)}"
        ) from None


# ---------------------------------------------------------------------------
# toroidal boundary divisors
# ---------------------------------------------------------------------------


def boundary_betti(spec: dict) -> BettiTable:
    """Betti table of a toroidal boundary divisor from its factor description.

    ``spec`` is as `StepArgs.boundary_spec` reads it: a nonempty list of
    factors, each repeated ``count`` times and symmetrized, multiplied
    together.  A factor is either ``table``, a quotient an earlier step
    computed, or the quotient of ``lattice`` by ``group``: its triflection
    group ("weyl") or a list of generating isometries.  Each quotient comes
    from the generators alone, never a closure; a Weyl group's are the few
    triflections whose root orbits cover every root line
    (`weyl.generating_triflections`).
    Declared extra symmetries that act trivially are recorded by the caller
    and do not change the table.
    """
    from .invariants import (
        abelian_quotient_betti,
        check_quotient_rank,
        check_wreath_count,
        wreath_symmetrize,
    )

    # the product's complex dimension, held to the cap before any factor runs
    dim = 0
    for factor in spec["factors"]:
        if "table" in factor:
            rank = factor["table"].complex_dim
        else:
            rank = factor["lattice"].rank
            check_quotient_rank(rank)
        check_wreath_count(factor["count"])
        dim += rank * factor["count"]
    _pure.check_order(2 * dim, "twice the product's dimension")
    table = None
    for factor in spec["factors"]:
        if "table" in factor:
            part = factor["table"]
        else:
            lat, gens = factor["lattice"], factor["group"]
            if gens == "weyl":
                from .weyl import generating_triflections

                gens = generating_triflections(lat)[0]
            part = abelian_quotient_betti(gens, lat.rank, form=lat.gram)
        if factor["count"] > 1:
            part = wreath_symmetrize(part, factor["count"])
        table = part if table is None else table.kunneth(part)
    return table
