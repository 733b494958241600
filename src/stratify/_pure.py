"""The input contract that every layer and the command line share, `Record`,
the base of the layers' value records, and the fraction-free eliminations
that both the strata path and the lattice layer use.

This module imports no other stratify module, so the command line can load
it, and with it the error types, the truncation-order and digit caps, the
built-in scenario names, the input-file reader and `load_json`, the one
exact reader of JSON input (scenario files and the CLI's JSON arguments),
before it knows which layers a call needs.  It holds only what callers of
more than one layer share: every call compiles it.

`_extend_ldl` adds one row to a fraction-free LDL^T elimination in Python
ints.  It is the step of the closest-point candidate search
(`strata.projection_candidates`) and of `_exact.definite_ldl`, the one
definiteness test of Gram matrices.  Matrices over
Z[omega] and their product live in `stratify._exact`, which this module
does not import.

`echelon`, the one fraction-free elimination behind rank, det, nullspace and
adjugate, `rank`, the exact quotient `_div` and `rational`, the rule that a
rational is an int where it is integral, live here, and `_exact` imports
them from here: the index set needs the rank of its scaled weights, and
neither the strata path nor the series layer loads Eisenstein arithmetic.
`scaled_integers`, rational rows as integer rows over their common
denominator, is the one such scaling: of the index set's weights, of a beta
against them, of glue vectors and of cocharacters.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import lcm

BACKEND = "pure"


# ---------------------------------------------------------------------------
# input contract: error types (one per exit code), caps, input files
# ---------------------------------------------------------------------------


class ResourceCapError(RuntimeError):
    """An enumeration or closure exceeded its configured cap (exit code 4)."""


class ScenarioParseError(ValueError):
    """Malformed input: a scenario, a step argument or a command-line value
    (exit code 3)."""


class ScenarioCheckError(AssertionError):
    """A pinned value or an invariant did not hold (exit code 2)."""


# Truncation-order cap: series work grows with the square of the order, and
# the built-in scenarios use at most 10.
MAX_ORDER = 1000

BUILTIN_SCENARIOS = ("cubic3fold", "cubicsurf", "cubiccurve", "binary12")


def check_order(order: int, source: str) -> int:
    """A truncation order within 0..`MAX_ORDER`; ``source`` names where it
    was given (``--truncate``, the scenario's or a step's ``order``)."""
    if order < 0:
        raise ScenarioParseError(f"{source} must be a truncation order >= 0, got {order}")
    if order > MAX_ORDER:
        raise ResourceCapError(f"truncation order {order} exceeds the cap {MAX_ORDER}")
    return order


def check_degree(degree: int, source: str) -> int:
    """A Molien generator degree, a positive even integer, given as ``source``."""
    if degree < 1 or degree % 2:
        raise ScenarioParseError(f"{source} must be a positive even integer, got {degree}")
    return degree


def check_printable(ints) -> None:
    """Raise `ResourceCapError` when one of the integers ``ints`` has more
    decimal digits than the interpreter converts to text
    (`sys.get_int_max_str_digits`): no report could print it.  A no-op where
    the interpreter sets no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = max(map(int.bit_length, ints), default=0)
    # 2^(3 * limit) < 10^limit: a shorter integer has at most `limit` digits
    if limit and bits > 3 * limit and max(map(abs, ints)) >= 10**limit:
        raise ResourceCapError(
            f"a result has an integer of more than {limit} digits, "
            f"which cannot be written as text")


def read_input(path) -> str:
    """The text of an input file.  A path that is a directory, cannot be read
    or does not hold UTF-8 text is a parse error, not a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ScenarioParseError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ScenarioParseError(f"{path} is not UTF-8 text: {e}") from e


def _no_float(text):
    """The `parse_float` and `parse_constant` of `load_json`: a number with a
    fraction or an exponent, NaN or Infinity is not exact."""
    raise ScenarioParseError(f"the number {text} is a float; input numbers are "
                             "integers, and rationals are written \"p/q\" or [p, q]")


def load_json(text: str, what: str):
    """The JSON document ``text``, read exactly.  A float, NaN or Infinity,
    malformed JSON and an integer beyond the interpreter's digit limit (a
    plain `ValueError` from `json.loads`) are parse errors, the last two
    "``what``: <reason>"."""
    try:
        return json.loads(text, parse_float=_no_float, parse_constant=_no_float)
    except ScenarioParseError:
        raise
    except ValueError as e:
        raise ScenarioParseError(f"{what}: {e}") from e


# ---------------------------------------------------------------------------
# record classes
# ---------------------------------------------------------------------------

class Record:
    """Base of the layers' immutable value records.

    A subclass lists its fields as class annotations, in order, with an
    optional default as the class attribute.  Every field takes part in
    ``==`` and ``hash``; fields named in ``_not_in_repr`` are left out of the
    repr.  The class is set up once, in `__init_subclass__`, from its own
    annotations.  No method source is generated and compiled, so defining a
    record class is cheap: every CLI call is a fresh interpreter, which pays
    for every class it defines.
    """

    _not_in_repr = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        names = tuple(own.get("__annotations__", ()))
        cls._fields = names
        cls._defaults = {n: own[n] for n in names if n in own}
        cls._shown = tuple(n for n in names if n not in cls._not_in_repr)
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{type(self).__name__}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in values:
                raise TypeError(f"{type(self).__name__}() got multiple values for "
                                f"argument {name!r}")
            values[name] = value
        if len(values) < len(names):
            for name in names:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() missing required "
                                        f"argument {name!r}")
                    values[name] = self._defaults[name]
        object.__setattr__(self, "__dict__", values)
        if self._post_init is not None:
            self._post_init()

    def _values(self, names) -> tuple:
        values = self.__dict__
        return tuple([values[n] for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._fields) == other._values(self._fields)

    def __hash__(self):
        return hash(self._values(self._fields))

    def __repr__(self):
        values = self.__dict__
        fields = ", ".join(f"{n}={values[n]!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})


# ---------------------------------------------------------------------------
# exact rationals, and fraction-free elimination over Z, Q, Z[omega] or Q(omega)
# ---------------------------------------------------------------------------


def rational(x):
    """The rational ``x`` (an int, a `Fraction` or what `Fraction` reads) as
    an int when it is integral, else as a `Fraction`: integral values then
    multiply in plain integers."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def scaled_integers(rows) -> tuple:
    """The rational rows (entries int or `Fraction`) as integer rows over
    their common denominator: ``(scaled, denom)``, row i is
    ``scaled[i] / denom``."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    denom = lcm(*{d for row in ratios for _, d in row})
    return [tuple([n * (denom // d) for n, d in row]) for row in ratios], denom


def _div(x, y):
    """Exact quotient x / y over Q or Q(omega): an int when both are ints and
    the quotient is integral, a `Fraction` when it is not."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return x / y


def echelon(rows):
    """Fraction-free (Bareiss, 1968) forward elimination over Z, Q, Z[omega]
    or Q(omega): ``(pivots, rows, sign)``, the pivot column of each leading
    row, a row-echelon form (zero below and left of the pivots) and the sign
    of the row swaps.  Every entry is a minor of the row-permuted input, so
    integral rows stay integral; the last pivot is the minor on the pivot rows
    and columns.  Only nonzero entries are touched: a row with zero in the
    pivot column is left alone, and since the rescalings by p / prev it skips
    telescope, its next update divides by the pivot it last saw (its level).
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    levels = [1] * len(rows)
    pivots = []
    sign = prev = 1
    for col in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rk:
            rows[rk], rows[piv], sign = rows[piv], rows[rk], -sign
            levels[rk], levels[piv] = levels[piv], levels[rk]
        head, lev = rows[rk], levels[rk]
        if lev != prev:  # skipped since its last update: bring it up to date
            head = rows[rk] = [_div(x * prev, lev) if x else x for x in head]
        p = head[col]
        for i in range(rk + 1, len(rows)):
            r, lev = rows[i], levels[i]
            f = r[col]
            if not f:
                continue
            r[col] = 0 * f
            for j in range(col + 1, ncols):
                x, h = r[j], head[j]
                if h:
                    r[j] = _div(x * p - f * h, lev)
                elif x:
                    r[j] = _div(x * p, lev)
            levels[i] = p
        prev = p
        pivots.append(col)
    return pivots, rows, sign


def rank(rows) -> int:
    """Rank of a list of rows, the number of pivots of `echelon`."""
    return len(echelon(rows)[0])


# ---------------------------------------------------------------------------
# fraction-free LDL^T of a symmetric system
# ---------------------------------------------------------------------------


def _extend_ldl(low, rhs, row, b):
    """Add one equation to a fraction-free LDL^T elimination, or return None.

    ``low`` and ``rhs`` hold the rows eliminated so far of a symmetric system
    D c = b (Bareiss, 1968): ``low[s][t]`` is entry (s, t) just before step t,
    so ``low[s][s]`` is the s-th pivot, the leading (s+1)-minor of D, and
    ``rhs[s]`` is b_s after steps 0..s-1.  ``row`` is the new row of D (its
    entries against every earlier unknown and its diagonal) and ``b`` its
    right-hand side.  By symmetry, entry (t, s) of an earlier pivot row is the
    new row's entry (s, t) before step t, so no earlier row changes.  Returns
    the eliminated row and right-hand side; None when the new pivot is zero.

    Two callers: `strata.projection_candidates` grows one row per search
    node, and `_exact.definite_ldl` eliminates a Gram matrix row by row with
    right-hand side 0, to test it definite and for Fincke-Pohst enumeration.
    """
    s = len(low)
    prev = 1
    for t in range(s):
        piv = low[t][t]
        f = row[t]
        for j in range(t + 1, s):
            row[j] = (piv * row[j] - f * low[j][t]) // prev
        row[s] = (piv * row[s] - f * f) // prev
        b = (piv * b - f * rhs[t]) // prev
        prev = piv
    if row[s] == 0:
        return None
    return row, b
