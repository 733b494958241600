"""Kernel backend selection: compiled extension if available, pure otherwise.

Set STRATIFY_PURE=1 to force the pure-Python kernels.
"""

from __future__ import annotations

import os

from . import _pure

ResourceCapError = _pure.ResourceCapError

if os.environ.get("STRATIFY_PURE"):
    _impl = _pure
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _pure

BACKEND = _impl.BACKEND

projection_candidates = _impl.projection_candidates
close_eis = _impl.close_eis

# helpers shared by both backends
eis_identity_flat = _pure.eis_identity_flat
eis_mul_flat = _pure.eis_mul_flat


def eis_char_sums(*args, **kwargs):
    """Retired: invariant cohomology comes from generator fixed spaces.

    Only the name is left, because the benchmark's tracer (`perfbench/child.py`)
    wraps it by name; it goes when that lookup goes.
    """
    raise NotImplementedError("use invariants.abelian_quotient_betti")
