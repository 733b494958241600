"""JSON-facing serialization for the documented external interfaces.

Series serialize as ordered (degree, numerator, denominator) triples;
Betti tables as (complex_dim, even list, odd list); strata as records with
rational tuples; groups as ring, dimension and order; lattices as Gram entries.
All emitted structures are deterministic (sorted, no environment data).
A series or table holding an integer with more decimal digits than Python
writes as text (`sys.get_int_max_str_digits`) is refused with
`ResourceCapError` (exit code 4): no report could print it.

This module holds the encoders and `dumps`, the one writer of JSON text
(sorted keys, indent 2, a final newline) for scenario reports and the CLI's
json output alike; input is read by `_pure.load_json` and decoded by
`stepargs.StepArgs`.  It imports no layer: `to_jsonable` finds a class's
encoder by the class's module and name.

`dumps` writes the bytes of ``json.dumps(value, sort_keys=True, indent=2)``
in one recursive pass: strings and keys go through json's C
`encode_basestring_ascii` and ints through `int.__repr__`, as json writes
them, while `json.dumps` with an indent runs json's pure-Python encoder,
which takes about twice as long on a report.  A value that
`to_jsonable` never returns (a float, a set, a key that is not a string)
raises `TypeError`.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from ._pure import check_printable


def frac_pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def series_to_jsonable(s: TruncatedSeries) -> dict:
    triples = [
        [d, c.numerator, c.denominator]
        for d, c in enumerate(s.coeffs)
        if c != 0
    ]
    check_printable([x for t in triples for x in t[1:]])
    return {"kind": "series", "order": s.order, "triples": triples}


def table_to_jsonable(t: BettiTable) -> dict:
    check_printable(t.betti)
    return {
        "kind": "betti_table",
        "complex_dim": t.complex_dim,
        "even": t.even(),
        "odd": t.odd(),
    }


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


def _weight_system(value) -> dict:
    return {"kind": "weight_system", "n": value.n, "d": value.d,
            "monomials": [list(m) for m in value.monomials]}


def _normal_rep(value) -> dict:
    return {"kind": "normal_rep", "dim": value.dim,
            "pairings": [[frac_pair(c) for c in p] for p in value.pairings]}


def _tangent_normal_split(value) -> dict:
    return {"kind": "tangent_normal_split", "span_dim": value.span_dim,
            "relation_count": value.relation_count,
            "normal": to_jsonable(value.normal)}


def _matrix_group(value) -> dict:
    return {"kind": "matrix_group", "ring": value.ring, "dim": value.dim,
            "order": value.order}


def _eis_lattice(value) -> dict:
    return {"kind": "eis_lattice", "rank": value.rank,
            "gram": [[[e.a, e.b] for e in row] for row in value.gram]}


def _z_lattice(value) -> dict:
    return {"kind": "z_lattice", "rank": value.rank,
            "gram": [list(r) for r in value.gram]}


def _discriminant(value) -> dict:
    return {"kind": "discriminant", "invariant_factors": list(value.invariant_factors),
            "q_mod_2": [frac_pair(q) for q in value.q_values]}


def _duality(value) -> dict:
    return {"kind": "duality", "ok": value.ok,
            "first_offense": list(value.first_offense) if value.first_offense else None}


def _poly(value) -> dict:
    return {"kind": "poly", "nvars": value.nvars, "text": repr(value)}


def _sequence(value) -> list:
    return [to_jsonable(v) for v in value]


def _mapping(value) -> dict:
    return {k: to_jsonable(v) for k, v in sorted(value.items())}


def _itself(value):
    return value


# Encoders by the defining module and name of a class, so that this module
# imports no layer: a value of a class whose module was never imported cannot
# exist.  A class uses the encoder of the first class in its MRO found here,
# which is what a chain of isinstance tests in this order would pick.
_ENCODERS = {
    "stratify.series.TruncatedSeries": series_to_jsonable,
    "stratify.series.BettiTable": table_to_jsonable,
    "stratify.strata.BetaStratum": stratum_to_jsonable,
    "stratify.weights.WeightSystem": _weight_system,
    "stratify.orbits.NormalRep": _normal_rep,
    "stratify.orbits.TangentNormalSplit": _tangent_normal_split,
    "stratify.invariants.FiniteMatrixGroup": _matrix_group,
    "stratify.eisenstein.EisLattice": _eis_lattice,
    "stratify.weyl.ZLattice": _z_lattice,
    "stratify.discriminant.DiscriminantGroup": _discriminant,
    "stratify.series.DualityReport": _duality,
    "stratify.orbits.MultiPoly": _poly,
    "fractions.Fraction": frac_pair,
    "builtins.list": _sequence,
    "builtins.tuple": _sequence,
    "builtins.dict": _mapping,
    "builtins.int": _itself,
    "builtins.str": _itself,
    "builtins.NoneType": _itself,
}


def _encoder(cls):
    for base in cls.__mro__:
        encode = _ENCODERS.get(f"{base.__module__}.{base.__qualname__}")
        if encode is not None:
            return encode
    raise TypeError(f"cannot serialize {cls.__name__}")


def to_jsonable(value):
    return _encoder(type(value))(value)


def _write(value, newline: str, put) -> None:
    """Pass the JSON text of ``value`` to ``put`` piece by piece; ``newline``
    is a newline and the indent of the line that ``value`` starts on."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"cannot write a {type(key).__name__} key as JSON")
            put(sep + _quote(key) + ": ")
            _write(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def dumps(value) -> str:
    """The JSON text of ``value``, already JSON-able (see `to_jsonable`):
    the bytes of ``json.dumps(value, sort_keys=True, indent=2)`` and a
    final newline."""
    parts = []
    _write(value, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)
