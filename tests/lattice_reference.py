"""References for the lattice tests.

`isometry_group_order` is the order of the group that Eisenstein matrices
generate, read off their action on the roots of a definite lattice: the
path `weyl.weyl_group` takes, through `weyl._root_action_order`, for any
generators.  `root_permutations` is that action formed one dense image per
root, the reference for `_root_action_order`, which forms one image per
root line and reads the other five off the unit multiples.  `z_pair` is the
integral pairing x^T G y of a `ZLattice`.  The program needs none of them:
it pairs lattice vectors through its Gram matrices, and it orders only
triflection groups.
"""

from operator import mul

from stratify._exact import z_matrix
from stratify.weyl import _root_action_order, enumerate_roots, z_form


def isometry_group_order(lat, gens) -> int:
    """Order of the group generated by isometries ``gens`` of a definite
    Eisenstein lattice, from its permutation action on the roots."""
    zl = z_form(lat)
    return _root_action_order(zl, enumerate_roots(zl), gens)


def root_permutations(lat, gens) -> list:
    """Each of the isometries ``gens`` of a definite Eisenstein lattice as a
    permutation of its roots (`enumerate_roots` order), one dense image per root."""
    zroots = enumerate_roots(z_form(lat))
    index = {v: i for i, v in enumerate(zroots)}
    return [tuple(index[tuple(sum(map(mul, row, v)) for row in z)] for v in zroots)
            for z in map(z_matrix, gens)]


def z_pair(zl, x, y):
    """The integral pairing x^T G y of the `ZLattice` ``zl``."""
    return sum(x[i] * zl.gram[i][j] * y[j] for i in range(zl.rank) for j in range(zl.rank))
