"""The kernels under the names the benchmark's tracer (`perfbench/child.py`)
looks up: plain re-exports of the strata kernel from `stratify.strata` and of
the group closure from `stratify.invariants`.  The program itself imports
them from there; this module goes when that lookup goes.
"""

from __future__ import annotations

from .invariants import close_eis  # noqa: F401
from .strata import projection_candidates  # noqa: F401


def eis_char_sums(*args, **kwargs):
    """Retired: invariant cohomology comes from generator fixed spaces."""
    raise NotImplementedError("use invariants.abelian_quotient_betti")
