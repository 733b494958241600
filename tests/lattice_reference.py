"""References for the lattice tests.

`isometry_group_order` is the order of the group that Eisenstein matrices
generate, read off their action on the roots of a definite lattice: the
path `weyl.weyl_group` takes, through `weyl._root_action_order`, for any
generators.  `z_pair` is the integral pairing x^T G y of a `ZLattice`.
The program needs neither: it pairs lattice vectors through its Gram
matrices, and it orders only triflection groups.
"""

from stratify.weyl import _root_action_order, enumerate_roots, z_form


def isometry_group_order(lat, gens) -> int:
    """Order of the group generated by isometries ``gens`` of a definite
    Eisenstein lattice, from its permutation action on the roots."""
    zl = z_form(lat)
    return _root_action_order(zl, enumerate_roots(zl), gens)


def z_pair(zl, x, y):
    """The integral pairing x^T G y of the `ZLattice` ``zl``."""
    return sum(x[i] * zl.gram[i][j] * y[j] for i in range(zl.rank) for j in range(zl.rank))
