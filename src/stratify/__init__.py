"""Exact-arithmetic workbench for instability stratifications, equivariant
Poincare series, blowup corrections, and Eisenstein-lattice boundary
cohomology."""

from ._pure import BACKEND
from .assembly import (
    StratumContribution,
    b_shift,
    blowup_correction,
    extra_term,
    main_term,
    semistable_series,
)
from .eisenstein import (
    EisInt,
    EisLattice,
    ZLattice,
    boundary_betti,
    discriminant_form,
    divisibility,
    enumerate_roots,
    glue_overlattice,
    named_lattice,
    weyl_group,
    z_form,
)
from .invariants import (
    FiniteMatrixGroup,
    abelian_quotient_betti,
    close_group,
    molien,
    wreath_symmetrize,
)
from .orbits import (
    MultiPoly,
    NormalRep,
    check_semiinvariant,
    df_matrix,
    normal_rep_of,
    parse_poly,
)
from .runner import run_scenario
from .series import (
    BettiTable,
    TruncatedSeries,
    duality_check,
    duality_complete,
    gf_expand,
    lincomb,
)
from .strata import (
    BetaStratum,
    instability_index_set,
    maximal_support_report,
    normal_rep_strata,
    weyl_fiber_count,
)
from .weights import WeightSystem, hypersurface_weights

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "BetaStratum",
    "BettiTable",
    "EisInt",
    "EisLattice",
    "FiniteMatrixGroup",
    "MultiPoly",
    "NormalRep",
    "StratumContribution",
    "TruncatedSeries",
    "WeightSystem",
    "ZLattice",
    "abelian_quotient_betti",
    "b_shift",
    "blowup_correction",
    "boundary_betti",
    "check_semiinvariant",
    "close_group",
    "df_matrix",
    "discriminant_form",
    "divisibility",
    "duality_check",
    "duality_complete",
    "enumerate_roots",
    "extra_term",
    "gf_expand",
    "glue_overlattice",
    "hypersurface_weights",
    "instability_index_set",
    "lincomb",
    "main_term",
    "maximal_support_report",
    "molien",
    "named_lattice",
    "normal_rep_of",
    "normal_rep_strata",
    "parse_poly",
    "run_scenario",
    "semistable_series",
    "weyl_fiber_count",
    "weyl_group",
    "wreath_symmetrize",
    "z_form",
]
