"""The kernels under the names the benchmark's tracer (`perfbench/child.py`)
looks up: the strata kernel re-exported from `stratify.strata`, and stubs
for the retired group closure and character sums.  The program imports its
kernel from `strata`; this module goes when that lookup goes.
"""

from __future__ import annotations

from .strata import projection_candidates  # noqa: F401


def close_eis(*args, **kwargs):
    """Retired: group orders and elements come from the Schreier-Sims chain."""
    raise NotImplementedError("use invariants.close_group")


def eis_char_sums(*args, **kwargs):
    """Retired: invariant cohomology comes from generator fixed spaces."""
    raise NotImplementedError("use invariants.abelian_quotient_betti")
