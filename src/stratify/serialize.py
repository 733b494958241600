"""JSON-facing serialization for the documented external interfaces.

Series serialize as ordered (degree, numerator, denominator) triples;
Betti tables as (complex_dim, even list, odd list); strata as records with
rational tuples; groups as ring, dimension and order; lattices as Gram entries.
All emitted structures are deterministic (sorted, no environment data).
"""

from __future__ import annotations

from fractions import Fraction

from ._exact import EisInt
from .eisenstein import DiscriminantGroup, EisLattice, ZLattice
from .invariants import FiniteMatrixGroup
from .orbits import MultiPoly, NormalRep, TangentNormalSplit
from .series import BettiTable, DualityReport, TruncatedSeries
from .strata import BetaStratum, SupportRecord
from .weights import WeightSystem


def frac_pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def series_to_jsonable(s: TruncatedSeries) -> dict:
    triples = [
        [d, c.numerator, c.denominator]
        for d, c in enumerate(s.coeffs)
        if c != 0
    ]
    return {"kind": "series", "order": s.order, "triples": triples}


def series_from_jsonable(obj) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (obj["order"] + 1)
    for d, num, den in obj["triples"]:
        coeffs[d] = Fraction(num, den)
    return TruncatedSeries.from_coeffs(coeffs, obj["order"])


def table_to_jsonable(t: BettiTable) -> dict:
    return {
        "kind": "betti_table",
        "complex_dim": t.complex_dim,
        "even": t.even(),
        "odd": t.odd(),
    }


def table_from_jsonable(obj) -> BettiTable:
    n = obj["complex_dim"]
    betti = [0] * (2 * n + 1)
    for j, b in enumerate(obj["even"]):
        betti[2 * j] = b
    for j, b in enumerate(obj.get("odd", [])):
        betti[2 * j + 1] = b
    return BettiTable.from_list(betti, n)


def stratum_to_jsonable(s: BetaStratum) -> dict:
    return {
        "kind": "stratum",
        "beta": [frac_pair(c) for c in s.beta],
        "norm2": frac_pair(s.norm2),
        "support": list(s.support),
        "n_beta": s.n_beta,
        "dim_g_mod_p": s.dim_g_mod_p,
        "codim_expected": s.codim_expected,
        "nonemptiness": s.nonemptiness,
    }


def to_jsonable(value):
    if isinstance(value, TruncatedSeries):
        return series_to_jsonable(value)
    if isinstance(value, BettiTable):
        return table_to_jsonable(value)
    if isinstance(value, BetaStratum):
        return stratum_to_jsonable(value)
    if isinstance(value, SupportRecord):
        return {"kind": "support_record", "r": value.r,
                "codim_expected": value.codim_expected,
                "beta": [frac_pair(c) for c in value.beta]}
    if isinstance(value, WeightSystem):
        return {"kind": "weight_system", "n": value.n, "d": value.d,
                "monomials": [list(m) for m in value.monomials]}
    if isinstance(value, NormalRep):
        return {"kind": "normal_rep", "dim": value.dim,
                "pairings": [[frac_pair(c) for c in p] for p in value.pairings]}
    if isinstance(value, TangentNormalSplit):
        return {"kind": "tangent_normal_split", "span_dim": value.span_dim,
                "relation_count": value.relation_count,
                "normal": to_jsonable(value.normal)}
    if isinstance(value, FiniteMatrixGroup):
        return {"kind": "matrix_group", "ring": value.ring, "dim": value.dim,
                "order": value.order}
    if isinstance(value, EisLattice):
        return {"kind": "eis_lattice", "rank": value.rank,
                "gram": [[[e.a, e.b] for e in row] for row in value.gram]}
    if isinstance(value, ZLattice):
        return {"kind": "z_lattice", "rank": value.rank,
                "gram": [list(r) for r in value.gram]}
    if isinstance(value, DiscriminantGroup):
        return {"kind": "discriminant", "invariant_factors": list(value.invariant_factors),
                "q_mod_2": [frac_pair(q) for q in value.q_values]}
    if isinstance(value, DualityReport):
        return {"kind": "duality", "ok": value.ok,
                "first_offense": list(value.first_offense) if value.first_offense else None}
    if isinstance(value, MultiPoly):
        return {"kind": "poly", "nvars": value.nvars, "text": repr(value)}
    if isinstance(value, EisInt):
        return [value.a, value.b]
    if isinstance(value, Fraction):
        return frac_pair(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")
