"""Exact-arithmetic workbench for instability stratifications, equivariant
Poincare series, blowup corrections, and Eisenstein-lattice boundary
cohomology.

The public names below are loaded on first use (PEP 562): importing the
package compiles none of its layers, so a command-line call pays only for the
modules it runs.  A submodule (``stratify.runner``) is likewise loaded when
first looked up.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; the one source of `__all__`
_EXPORTS = {
    "_exact": ("EisInt",),
    "_pure": ("BACKEND",),
    "assembly": ("StratumContribution", "b_shift", "blowup_correction", "extra_term",
                 "main_term", "semistable_series"),
    "discriminant": ("discriminant_form", "divisibility", "glue_overlattice"),
    "eisenstein": ("EisLattice", "boundary_betti", "named_lattice"),
    "invariants": ("FiniteMatrixGroup", "abelian_quotient_betti", "close_group", "molien",
                   "wreath_symmetrize"),
    "orbits": ("MultiPoly", "NormalRep", "check_semiinvariant", "df_matrix",
               "normal_rep_of", "parse_poly"),
    "runner": ("run_scenario",),
    "series": ("BettiTable", "TruncatedSeries", "duality_check", "duality_complete",
               "gf_expand", "lincomb"),
    "strata": ("BetaStratum", "instability_index_set", "maximal_support_report",
               "normal_rep_strata", "weyl_fiber_count"),
    "weights": ("WeightSystem", "hypersurface_weights"),
    "weyl": ("ZLattice", "enumerate_roots", "weyl_group", "z_form"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if not name.startswith("__"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
