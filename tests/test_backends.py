"""Cross-checks between the pure-Python kernels and the compiled extension.

When the compiled extension is unavailable these collapse to self-checks and
are skipped where trivial.
"""

import random

import pytest

from stratify import _backend, _pure
from stratify.eisenstein import E1, E2, z_form
from stratify.invariants import flatten_eis_matrix
from stratify.weights import hypersurface_weights

try:
    from stratify import _kernels
except ImportError:
    _kernels = None

needs_compiled = pytest.mark.skipif(
    _kernels is None, reason="compiled kernels not built")


@needs_compiled
class TestBackendAgreement:
    def test_projection_candidates_random(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randint(2, 5)
            npts = rng.randint(1, 12)
            rank = rng.randint(1, m)
            pts = [tuple(rng.randint(-7, 7) for _ in range(m)) for _ in range(npts)]
            for chamber in (False, True):
                a = _pure.projection_candidates(pts, rank, 10**7, chamber)
                b = _kernels.projection_candidates(pts, rank, 10**7, chamber)
                assert a == b

    @pytest.mark.parametrize("n,d", [(1, 12), (2, 3), (3, 3), (4, 3)])
    def test_projection_candidates_hypersurfaces(self, n, d):
        ws = hypersurface_weights(n, d)
        scaled = [tuple(int(c * (n + 1)) for c in w) for w in ws.weights]
        a = _pure.projection_candidates(scaled, n, 10**7, True)
        b = _kernels.projection_candidates(scaled, n, 10**7, True)
        assert a == b

    def test_close_eis_small_groups(self):
        omega = [[(0, 1)]]
        neg = [[(-1, 0)]]
        a = _pure.close_eis([flatten_eis_matrix(omega), flatten_eis_matrix(neg)], 1, 100)
        b = _kernels.close_eis([flatten_eis_matrix(omega), flatten_eis_matrix(neg)], 1, 100)
        assert a == b and len(a) == 6

    def test_close_eis_triflection_group(self):
        from stratify.eisenstein import eisenstein_roots, triflection
        gens = [flatten_eis_matrix(triflection(E2, r)) for r in eisenstein_roots(E2)]
        a = _pure.close_eis(gens, 2, 10**4)
        b = _kernels.close_eis(gens, 2, 10**4)
        assert a == b

    def test_cap_errors_match(self):
        omega = flatten_eis_matrix([[(0, 1)]])
        with pytest.raises(_pure.ResourceCapError):
            _pure.close_eis([omega], 1, 2)
        with pytest.raises(_kernels.ResourceCapError):
            _kernels.close_eis([omega], 1, 2)


def test_backend_is_exposed():
    assert _backend.BACKEND in ("pure", "compiled")


def test_pure_z_form_independent_of_backend():
    # lattice arithmetic never touches the kernels
    assert z_form(E1).gram == ((-2, 1), (1, -2))
