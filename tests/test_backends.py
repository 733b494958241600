"""Cross-checks between the pure-Python kernels and the compiled extension.

When the compiled extension is unavailable these collapse to self-checks and
are skipped where trivial.
"""

import pytest

from stratify import _backend, _pure
from stratify.eisenstein import E1, E2, z_form
from stratify.invariants import flatten_eis_matrix

try:
    from stratify import _kernels
except ImportError:
    _kernels = None

needs_compiled = pytest.mark.skipif(
    _kernels is None, reason="compiled kernels not built")


@needs_compiled
class TestBackendAgreement:
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
