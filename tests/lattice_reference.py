"""References for the lattice tests.

`triflections` lists every distinct triflection of a definite lattice, one
per root line, from its `eisenstein_roots`; `weyl.generating_triflections`
keeps only a few of them, and the tests hold its choice to this list.
`isometry_group_order` is the order of the group that any Eisenstein
matrices generate, read off their action on the roots of a definite
lattice by `root_action_order`: one dense image per root line, the other
five read off the unit multiples, with every generator checked to fix the
roots' orthogonal complement and to be a bijection of the roots.
`root_permutations` is that action formed one dense image per root.
`z_pair` is the integral pairing x^T G y of a `ZLattice`.  The program
needs none of them: it pairs lattice vectors through its Gram matrices, and
it orders only triflection groups, whose action on the roots is faithful
without a complement check.
"""

from operator import mul

from stratify import invariants
from stratify._exact import UNITS, eis_vector_from_z, nullspace, z_matrix
from stratify.weyl import enumerate_roots, triflection, z_form


def eisenstein_roots(lat) -> list:
    """Roots of a definite Eisenstein lattice (norm 3, or -3 when negative
    definite), via the integral form."""
    return [eis_vector_from_z(v) for v in enumerate_roots(z_form(lat))]


def triflections(lat) -> list:
    """All distinct triflections of a definite lattice, in the order of the
    first root giving each (`eisenstein_roots`).  The six unit multiples of
    a root give the same triflection, so a root on the line of one already
    used is skipped."""
    found = []
    lines = set()
    for r in eisenstein_roots(lat):
        if r in lines:
            continue
        lines.update(tuple(u * c for c in r) for u in UNITS)
        mat = triflection(lat, r)
        if mat not in found:
            found.append(mat)
    if not found:
        raise ValueError("lattice has no roots")
    return found


def root_action_order(zl, zroots, gens) -> int:
    """Order of the group generated by isometries ``gens`` of a definite
    lattice, from its integral form ``zl`` and the integer coordinates of its
    roots, by Schreier-Sims (`invariants.permutation_group_order`) on their
    permutations of the roots.

    A generator is Z[omega]-linear, so it maps u v to u g(v) for each of the
    six units u: one dense image per root line gives the images of its six
    roots, read from a table of unit multiples.  Each image must be a root
    and each generator a bijection.  The action is faithful: an element
    fixing every root fixes their span, and it fixes their orthogonal
    complement because every generator must (as triflections do).
    """
    if not zroots:
        raise ValueError("lattice has no roots")

    def act(z, v):
        return tuple([sum(map(mul, row, v)) for row in z])

    def units(v):  # v, omega v, omega^2 v and their negatives
        out = [v]  # omega (a + b w) = -b + (a - b) w
        for _ in range(2):
            v = tuple(x for a, b in zip(v[::2], v[1::2]) for x in (-b, a - b))
            out.append(v)
        return out + [tuple(-x for x in u) for u in out]

    # the roots' complement in the integral form is the hermitian one: a unit
    # multiple u r of a root is a root, and Re<u r, x> = 0 for u = 1, omega
    perp = [tuple(v) for v in nullspace([act(zl.gram, r) for r in zroots])]
    zmats = [z_matrix(m) for m in gens]
    if any(act(z, x) != x for z in zmats for x in perp):
        raise AssertionError("a generator moves the orthogonal complement of the roots, "
                             "so the action on the roots is not certified faithful")
    index = {v: i for i, v in enumerate(zroots)}
    multiples = [[index[u] for u in units(v)] for v in zroots]
    lines = [m for i, m in enumerate(multiples) if min(m) == i]
    perms = []
    for z in zmats:
        perm = [None] * len(zroots)
        for line in lines:
            image = index.get(act(z, zroots[line[0]]))
            if image is None:
                break  # not a root: the line's entries stay None
            for i, j in zip(line, multiples[image]):
                perm[i] = j
        if None in perm or len(set(perm)) != len(perm):
            raise AssertionError("a generator does not permute the roots")
        perms.append(tuple(perm))
    return invariants.permutation_group_order(perms)


def isometry_group_order(lat, gens) -> int:
    """Order of the group generated by isometries ``gens`` of a definite
    Eisenstein lattice, from its permutation action on the roots."""
    zl = z_form(lat)
    return root_action_order(zl, enumerate_roots(zl), gens)


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
