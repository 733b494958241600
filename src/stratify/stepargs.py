"""The one reader of step input and of the JSON arguments of the CLI.

`StepArgs` holds the arguments of one scenario step (or the parsed JSON
argument of a `molien`, `lattice`, `boundary` or `blowup` call) and reads
each field as the kind an op declares (`runner.DECLARATIONS`): an integer,
a choice, a rational matrix, an Eisenstein matrix, a series, a Betti table,
or an earlier step's value of some layer's class.  A missing or ill-typed
field is a `ScenarioParseError` naming the step and the field.

At load it imports only `_pure`: the CLI reads its JSON arguments without
compiling the scenario runner, and a reader imports the layer it builds a
value of (`series`, `_exact`, `orbits`, `assembly`, `eisenstein`, `weyl`)
when it is called.  `_instance` answers isinstance for a layer's class
without loading the layer.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from ._pure import ScenarioParseError, check_degree, check_order

_REQUIRED = object()
_RINGS = {"Q": "the rationals", "E": "the Eisenstein integers"}
# the classes a step argument may have to hold: name -> (layer, description)
_KINDS = {
    "EisLattice": ("eisenstein", "an Eisenstein lattice"),
    "ZLattice": ("weyl", "a Z-lattice"),
    "FiniteMatrixGroup": ("invariants", "a matrix group"),
    "WeightSystem": ("weights", "a weight system"),
    "MultiPoly": ("orbits", "a polynomial"),
    "NormalRep": ("orbits", "a normal representation"),
    "TangentNormalSplit": ("orbits", "a tangent-normal split"),
    "BettiTable": ("series", "a Betti table"),
    "BetaStratum": ("strata", "a stratum"),
}


class StepArgs(dict):
    """Resolved arguments of one step, an object nested in them, or the items
    of a list argument; the one reader of step input and of the JSON
    arguments of the CLI.

    A missing required argument, or a value of the wrong kind where an op
    needs an integer, a list, an object or an earlier step's value of some
    class, is a parse error naming the step and the field.
    """

    def __init__(self, where, values, path=""):
        super().__init__(values)
        self.where = where  # e.g. "step 'ws'"
        self.path = path  # e.g. "spec.factors[0]" for a nested object

    def _label(self):
        return f"{self.where}: {self.path}" if self.path else self.where

    def __missing__(self, key):
        raise ScenarioParseError(f"{self._label()} needs argument {key!r}")

    def reject(self, key, what, value):
        raise ScenarioParseError(
            f"{self._label()}: argument {key!r} must be {what}, got {value!r}"
        )

    def _get(self, key, default):
        return self[key] if default is _REQUIRED else self.get(key, default)

    def integer(self, key, default=_REQUIRED, minimum=None):
        """Integer argument ``key``; required unless a default is given."""
        value = self._get(key, default)
        if value is None and default is None:
            return None
        # rejects bool, str, float and Fraction
        if type(value) is not int or (minimum is not None and value < minimum):
            self.reject(key, "an integer" + (f" >= {minimum}" if minimum is not None else ""),
                        value)
        return value

    def order(self, key, default: int) -> int:
        """The step's truncation order ``key``: its own or the scenario's, ``default``."""
        return check_order(self.integer(key, default), f"{self._label()}: argument {key!r}")

    def degree(self, key) -> int:
        """Argument ``key``: a Molien generator degree (`check_degree`)."""
        return check_degree(self.integer(key), f"{self._label()}: argument {key!r}")

    def boolean(self, key) -> bool:
        """Argument ``key``: a boolean, or an object whose ``ok`` is a boolean."""
        value = self[key]
        ok = value.get("ok") if isinstance(value, dict) else value
        if type(ok) is not bool:
            self.reject(key, "a boolean or an object whose 'ok' is a boolean", value)
        return ok

    def choice(self, key, options, default=_REQUIRED, what="one of"):
        """String argument ``key``, one of ``options``; required unless a
        default is given (with default None, null stands for absent)."""
        value = self._get(key, default)
        if value is None and default is None:
            return None
        if not (isinstance(value, str) and value in options):
            self.reject(key, f"{what} {', '.join(map(repr, options))}", value)
        return value

    def lattice_name(self, key) -> str:
        """Argument ``key``: the name of a lattice in `eisenstein.NAMED_LATTICES`."""
        from .eisenstein import NAMED_LATTICES

        return self.choice(key, NAMED_LATTICES, what="a lattice name, one of")

    def lattice(self, key):
        """Argument ``key``: an Eisenstein lattice, or the name of one."""
        if isinstance(self[key], str):
            from .eisenstein import NAMED_LATTICES

            return NAMED_LATTICES[self.lattice_name(key)]
        return self.instance(key, "EisLattice")

    def listing(self, key, default=_REQUIRED) -> list:
        """List argument ``key``."""
        value = self._get(key, default)
        if not isinstance(value, list):
            self.reject(key, "a list", value)
        return value

    def each(self, key, default=_REQUIRED) -> list:
        """The items of list argument ``key`` as pairs (reader, "key[i]"): the
        reader holds each item under its name, for the other readers."""
        items = StepArgs(self.where, {f"{key}[{i}]": x for i, x in
                                      enumerate(self.listing(key, default))}, self.path)
        return [(items, name) for name in items]

    def items(self, key, reader, *params, default=_REQUIRED, **kw) -> list:
        """List argument ``key``, each item read by the reader ``reader``."""
        return [getattr(items, reader)(name, *params, **kw)
                for items, name in self.each(key, default)]

    def instance(self, key, *kinds):
        """Argument ``key``: an instance of one of the classes ``kinds``,
        names in `_KINDS`, as an earlier step returns."""
        value = self[key]
        if not any(_instance(value, _KINDS[kind][0], kind) for kind in kinds):
            self.reject(key, " or ".join(_KINDS[kind][1] for kind in kinds), value)
        return value

    def weights(self, key, *kinds):
        """Argument ``key`` of one of the classes ``kinds`` that carry
        ``weights``; a tangent-normal split stands for its normal representation."""
        value = self.instance(key, *kinds)
        return value.normal if _instance(value, "orbits", "TangentNormalSplit") else value

    def group(self, key, ring=None):
        """Matrix-group argument ``key`` (`invariants.FiniteMatrixGroup`),
        over ``ring`` ("Q" or "E") when given."""
        value = self.instance(key, "FiniteMatrixGroup")
        if ring is not None and value.ring != ring:
            raise ScenarioParseError(
                f"{self._label()}: argument {key!r} must be a matrix group over "
                f"{_RINGS[ring]}, got one over {_RINGS[value.ring]}")
        return value

    def z_lattice(self, key):
        """Argument ``key``: a Z-lattice, or an Eisenstein lattice standing
        for its `weyl.z_form`."""
        lat = self.instance(key, "EisLattice", "ZLattice")
        if _instance(lat, "eisenstein", "EisLattice"):
            from .weyl import z_form

            lat = z_form(lat)
        return lat

    def dimension(self, key, minimum) -> int:
        """Argument ``key``: an integer >= ``minimum``, or a normal
        representation or a tangent-normal split, read as the dimension of
        the representation."""
        kinds = ("NormalRep", "TangentNormalSplit")
        if any(_instance(self[key], "orbits", kind) for kind in kinds):
            return self.weights(key, *kinds).dim
        return self.integer(key, minimum=minimum)

    def quotient_rank(self, key) -> int:
        """Argument ``key``: the rank of an abelian quotient, an integer held
        to `invariants.check_quotient_rank`."""
        from .invariants import check_quotient_rank

        rank = self.integer(key)
        check_quotient_rank(rank)
        return rank

    def weight_rows(self, key) -> list:
        """Argument ``key``: a list of equally long rational vectors, or the
        weights of a weight system, a normal representation or a split."""
        rows = self[key]
        if not isinstance(rows, list):
            return self.weights(key, "WeightSystem", "NormalRep", "TangentNormalSplit").weights
        weights = self.matrix(key)
        if any(len(w) != len(weights[0]) for w in weights):
            self.reject(key, "a list of equally long vectors", rows)
        return weights

    def nested(self, key, names) -> "StepArgs":
        """The object argument ``key``, with its own checks; a field outside
        ``names``, the fields its reader reads, is a parse error."""
        value = self[key]
        if not isinstance(value, dict):
            self.reject(key, "an object", value)
        nested = StepArgs(self.where, value, f"{self.path}.{key}" if self.path else key)
        return nested.only(names)

    def only(self, names) -> "StepArgs":
        """These arguments; a field outside ``names`` is a parse error."""
        unknown = sorted(set(self) - set(names))
        if unknown:
            raise ScenarioParseError(f"{self._label()} has no field {unknown[0]!r}")
        return self

    def rational(self, key, value) -> Fraction:
        """``value``, a part of argument ``key``, as a rational: an integer,
        a string such as "1/3", or [num, den].  A JSON boolean is not one."""
        try:
            if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
                return Fraction(value)
            if (isinstance(value, list) and len(value) == 2
                    and not any(isinstance(x, bool) for x in value)):
                return Fraction(*value)
        except (ValueError, TypeError, ZeroDivisionError):
            pass
        self.reject(key, "a rational: an integer, a string like \"1/3\" or [num, den]", value)

    def vector(self, key) -> tuple:
        """List argument ``key`` of rationals."""
        return tuple(self.rational(key, c) for c in self.listing(key))

    @staticmethod
    def _square(value) -> bool:
        """Whether ``value`` is a nonempty list of rows as long as the list."""
        return isinstance(value, list) and bool(value) and all(
            isinstance(row, list) and len(row) == len(value) for row in value)

    def matrix(self, key, square=False) -> list:
        """Argument ``key``: a (``square``) matrix of rationals, a list of rows."""
        rows = self[key]
        if square and not self._square(rows):
            self.reject(key, "a square matrix", rows)
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            self.reject(key, "a matrix (a list of rows)", rows)
        return [[self.rational(key, x) for x in row] for row in rows]

    def eis_matrix(self, key, size=None, default=_REQUIRED) -> list:
        """Argument ``key``: a square matrix, ``size`` x ``size`` when given,
        of integers or [a, b] integer pairs (a + b*omega); required unless a
        default is given (with default None, null stands for absent)."""
        rows = self._get(key, default)
        if rows is None and default is None:
            return None
        if not (self._square(rows) and (size is None or len(rows) == size) and all(
                type(e) is int or (isinstance(e, list) and len(e) == 2
                                   and all(type(x) is int for x in e))
                for row in rows for e in row)):
            shape = "a square matrix" if size is None else f"a {size} x {size} matrix"
            self.reject(key, f"{shape} of integers or [a, b] pairs", rows)
        return rows

    def generators(self, key, ring, size=None) -> list:
        """The generators ``key`` of a `close_group` step, the `molien`
        command or a boundary factor's group, at least one: over ``ring`` "E"
        square matrices of integers or [a, b] pairs, over "Q" square rational
        matrices, all ``size`` x ``size`` when given, else of the size of the first."""
        gens = self.each(key)
        if not gens:
            self.reject(key, "a nonempty list of matrices", self[key])
        if ring == "Q":
            mats = [items.matrix(name, square=True) for items, name in gens]
        else:
            from ._exact import eis

            mats = [[[eis(e) for e in row] for row in items.eis_matrix(name)]
                    for items, name in gens]
        k, like = (size, "") if size else (len(mats[0]), f" like {key}[0]")
        for (items, name), mat in zip(gens, mats):
            if len(mat) != k:
                items.reject(name, f"a {k} x {k} matrix{like}", items[name])
        return mats

    def polynomial(self, key, nvars):
        """Polynomial argument ``key`` in ``nvars`` variables, or in those of
        the polynomial ``nvars``: an earlier step's polynomial or a text that
        `orbits.parse_poly` reads."""
        from . import orbits

        if isinstance(nvars, orbits.MultiPoly):
            nvars = nvars.nvars
        value = self[key]
        what = f"a polynomial in x0..x{nvars - 1}"
        if isinstance(value, orbits.MultiPoly) and value.nvars == nvars:
            return value
        if isinstance(value, str):
            try:
                return orbits.parse_poly(value, nvars)
            except ValueError as e:
                what += f" ({e})"
        self.reject(key, what, value)

    def series(self, key, order, value=_REQUIRED) -> TruncatedSeries:
        """Series argument ``key``, or ``value`` reported under ``key``: a
        series, an integer constant, a serialized series {"kind": "series",
        "order": k, "triples": [[degree <= k, num, den], ...]} of order k, or
        a literal list [[degree, num(, den)], ...] of order ``order``."""
        from .series import TruncatedSeries

        if value is _REQUIRED:
            value = self[key]
        if isinstance(value, TruncatedSeries):
            return value.truncate(min(order, value.order))
        if isinstance(value, int):
            return TruncatedSeries.one(order).scale(value)
        terms, lengths = value, (2, 3)
        serialized = isinstance(value, dict) and value.get("kind") == "series"
        if serialized:
            order, terms, lengths = value.get("order"), value.get("triples"), (3,)
        coeffs = {}
        if type(order) is int and order >= 0 and isinstance(terms, list):
            for term in terms:
                if not (isinstance(term, list) and len(term) in lengths
                        and all(type(x) is int for x in term) and term[0] >= 0
                        and (len(term) == 2 or term[2] != 0)
                        and not (serialized and term[0] > order)):
                    break
                if term[0] <= order:
                    coeffs[term[0]] = Fraction(*term[1:])
            else:
                if serialized:
                    check_order(order, f"{self._label()}: argument {key!r}: 'order'")
                return TruncatedSeries.from_coeffs(
                    [coeffs.get(d, 0) for d in range(order + 1)], order)
        self.reject(key, "a series: an integer, a serialized series or a list of "
                    "[degree >= 0, num] or [degree, num, den != 0] integer terms", value)

    def table_or_series(self, key, order):
        """Argument ``key``: an earlier step's Betti table or series, or a
        series as `series` reads it at ``order``."""
        value = self[key]
        known = any(_instance(value, "series", cls) for cls in ("BettiTable", "TruncatedSeries"))
        return value if known else self.series(key, order)

    def factor(self, key) -> tuple:
        """Argument ``key``: a `gf_expand` factor, an integer pair [period, multiplicity] > 0."""
        f = self[key]
        if not (isinstance(f, list) and len(f) == 2 and all(type(x) is int and x > 0 for x in f)):
            self.reject(key, "an integer pair [period >= 1, multiplicity >= 1]", f)
        return tuple(f)

    def term(self, key, order) -> tuple:
        """Argument ``key``: a `lincomb` term [coefficient, shift >= 0, series]."""
        term = self[key]
        if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
            self.reject(key, "a list [coefficient, integer shift, series]", term)
        coeff, shift, value = term
        if shift < 0:
            self.reject(key, "a list [coefficient, integer shift >= 0, series]", term)
        return self.rational(key, coeff), shift, self.series(key, order, value)

    def table(self, key) -> BettiTable:
        """Betti-table argument ``key``: {"complex_dim": n, "even": [...], "odd": [...]}
        (a serialized table) with n >= 0 and at most n + 1 even and n odd
        integer Betti numbers; missing ones are 0.  The table's Poincare
        series has order 2n, so 2n is held to the truncation-order cap before
        the 2n + 1 numbers are allocated."""
        from .series import BettiTable

        table = self.nested(key, ("kind", "complex_dim", "even", "odd"))
        n = table.integer("complex_dim", minimum=0)
        check_order(2 * n, f"{table._label()}: twice 'complex_dim'")
        parts = []
        for part, most, default in (("even", n + 1, _REQUIRED), ("odd", n, [])):
            values = table.listing(part, default)
            if len(values) > most or any(type(b) is not int for b in values):
                table.reject(part, f"a list of at most {most} integers", values)
            parts.append(values)
        betti = [0] * (2 * n + 1)
        for start, values in enumerate(parts):
            betti[start:2 * len(values):2] = values
        return BettiTable.from_list(betti, n)

    def declared(self, key, kind, order):
        """Argument ``key`` of a `declare` step of ``kind``: a series, a Betti
        table, an integer or ("raw") any value."""
        if kind == "series":
            return self.series(key, order)
        if kind == "betti_table":
            return self.table(key)
        return self.integer(key) if kind == "int" else self[key]

    def contributions(self, key, order) -> list:
        """Argument ``key``: a list of stratum contributions {"codim": c,
        "series": s, "weyl_share": w, "provenance": text}."""
        from .assembly import StratumContribution

        out = []
        for items, name in self.each(key, []):
            spec = items.nested(name, ("codim", "series", "weyl_share", "provenance"))
            out.append(StratumContribution(
                series=spec.series("series", order, spec.get("series", 1)),
                codim=spec.integer("codim", minimum=1),
                weyl_share=spec.integer("weyl_share", 1, minimum=1),
                provenance=spec.get("provenance", ""),
            ))
        return out

    def boundary_spec(self, key) -> dict:
        """Argument ``key``: the spec of `eisenstein.boundary_betti`, every
        field checked by the readers `lattice`, `generators`, `instance` and
        `integer`, and every default filled in here.  A factor's ``table``, an
        earlier step's Betti table (a CLI call names no step), stands in place
        of its ``lattice`` and ``group``."""
        spec = self.nested(key, ("factors",))
        entries = spec.each("factors")
        if not entries:
            spec.reject("factors", "a nonempty list of factors", spec["factors"])
        factors = []
        for items, name in entries:
            factor = items.nested(name, ("lattice", "group", "table", "count"))
            if "table" in factor:  # a quotient an earlier step computed
                part = {"table": factor.only(("table", "count")).instance("table", "BettiTable")}
            else:
                part = {"lattice": factor.lattice("lattice"), "group": factor.get("group", "weyl")}
                if part["group"] != "weyl":  # generators sized to the lattice's rank
                    part["group"] = factor.nested("group", ("generators",)).generators(
                        "generators", "E", part["lattice"].rank)
            factors.append({**part, "count": factor.integer("count", 1, minimum=1)})
        return {"factors": factors}


def _instance(value, layer, cls) -> bool:
    """isinstance(value, stratify.<layer>.<cls>), without loading the layer:
    no value of a class whose module was never imported can exist."""
    module = sys.modules.get(f"{__package__}.{layer}")
    return module is not None and isinstance(value, getattr(module, cls))
