"""The kernels under the names the benchmark's tracer (`perfbench/child.py`)
looks up: plain re-exports of `stratify._pure`, the one backend.  The
program itself imports `_pure`; this module goes when that lookup goes.
"""

from __future__ import annotations

from ._pure import (  # noqa: F401
    BACKEND,
    ResourceCapError,
    close_eis,
    eis_identity_flat,
    eis_mul_flat,
    projection_candidates,
)


def eis_char_sums(*args, **kwargs):
    """Retired: invariant cohomology comes from generator fixed spaces."""
    raise NotImplementedError("use invariants.abelian_quotient_betti")
