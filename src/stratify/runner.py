"""Declarative scenario pipelines.

A scenario file is a JSON document with a list of named steps; each step
invokes one registered operation with literal inputs and references to
earlier steps ("$id").  Declared geometric facts must carry citations, and
any step may pin an expected output; mismatches fail the run with a diff.
The emitted report is deterministic, so identical invocations are
byte-identical.

Each op imports the layers it calls when it runs, so a scenario loads only
the layers its steps use.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from . import serialize
from ._exact import eis
from ._pure import (
    BACKEND,
    BUILTIN_SCENARIOS,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    check_order,
    read_input,
)
from .series import (
    BettiTable,
    TruncatedSeries,
    duality_check,
    duality_complete,
    gf_expand,
    lincomb,
    projective_space_series,
)

_REQUIRED = object()
_RINGS = {"Q": "the rationals", "E": "the Eisenstein integers"}
# the classes a step argument may have to hold: name -> (layer, description)
_KINDS = {
    "EisLattice": ("eisenstein", "an Eisenstein lattice"),
    "ZLattice": ("eisenstein", "a Z-lattice"),
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

    def order(self, default: int) -> int:
        """The step's truncation order: its own ``order`` or the scenario's."""
        return check_order(self.integer("order", default), f"{self._label()}: argument 'order'")

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
        for its `eisenstein.z_form`."""
        lat = self.instance(key, "EisLattice", "ZLattice")
        if _instance(lat, "eisenstein", "EisLattice"):
            from .eisenstein import z_form

            lat = z_form(lat)
        return lat

    def strata(self, key) -> list:
        """Strata argument ``key``: a list of `strata.BetaStratum`, as an
        index-set step returns."""
        return [items.instance(name, "BetaStratum") for items, name in self.each(key)]

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
        a string such as "1/3", or [num, den]."""
        try:
            if isinstance(value, (int, Fraction, str)):
                return Fraction(value)
            if isinstance(value, list) and len(value) == 2:
                return Fraction(*value)
        except (ValueError, TypeError, ZeroDivisionError):
            pass
        self.reject(key, "a rational: an integer, a string like \"1/3\" or [num, den]", value)

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

    def eis_matrix(self, key, size=None) -> list:
        """Argument ``key``: a square matrix, ``size`` x ``size`` when given,
        of integers or [a, b] integer pairs (a + b*omega)."""
        rows = self[key]
        if not (self._square(rows) and (size is None or len(rows) == size) and all(
                type(e) is int or (isinstance(e, list) and len(e) == 2
                                   and all(type(x) is int for x in e))
                for row in rows for e in row)):
            shape = "a square matrix" if size is None else f"a {size} x {size} matrix"
            self.reject(key, f"{shape} of integers or [a, b] pairs", rows)
        return rows

    def generators(self) -> list:
        """The ``generators`` of a `close_group` step or the `molien` command:
        with ``"ring": "E"`` square matrices of integers or [a, b] pairs,
        with ``"ring": "Q"`` (the default) square rational matrices."""
        gens = self.each("generators")
        if self.choice("ring", tuple(_RINGS), "Q") == "Q":
            return [items.matrix(name, square=True) for items, name in gens]
        return [[[eis(e) for e in row] for row in items.eis_matrix(name)]
                for items, name in gens]

    def polynomial(self, key, nvars):
        """Polynomial argument ``key`` in ``nvars`` variables: an earlier
        step's polynomial or a text that `orbits.parse_poly` reads."""
        from . import orbits

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

    def table(self, key) -> BettiTable:
        """Betti-table argument ``key``: {"complex_dim": n, "even": [...], "odd": [...]}
        (a serialized table) with n >= 0 and at most n + 1 even and n odd
        integer Betti numbers; missing ones are 0.  The table's Poincare
        series has order 2n, so 2n is held to the truncation-order cap before
        the 2n + 1 numbers are allocated."""
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

    def contributions(self, key, order) -> list:
        """Argument ``key``: a list of stratum contributions {"codim": c,
        "series": s, "weyl_share": w, "provenance": text}."""
        from .assembly import StratumContribution

        out = []
        for items, name in self.each(key, []):
            spec = items.nested(name, ("codim", "series", "weyl_share", "provenance"))
            out.append(StratumContribution(
                series=spec.series("series", order, spec.get("series", 1)),
                codim=spec.integer("codim"),
                weyl_share=spec.integer("weyl_share", 1),
                provenance=spec.get("provenance", ""),
            ))
        return out

    def boundary_spec(self, key) -> dict:
        """Argument ``key``: the spec of `eisenstein.boundary_betti`, every
        field checked."""
        spec = self.nested(key, ("factors", "extra_projective_lines"))
        factors = []
        for items, name in spec.each("factors"):
            factor = items.nested(name, ("lattice", "group", "count"))
            lattice = factor["lattice"]
            if isinstance(lattice, str):
                factor.lattice_name("lattice")
            elif not _instance(lattice, "eisenstein", "EisLattice"):
                factor.reject("lattice", "a lattice or a lattice name", lattice)
            group = factor.get("group", "weyl")
            if group != "weyl":
                gens = factor.nested("group", ("generators",)).each("generators")
                group = {"generators": [g.eis_matrix(n) for g, n in gens]}
            factors.append({"lattice": lattice, "group": group,
                            "count": factor.integer("count", 1, minimum=1)})
        return {"factors": factors,
                "extra_projective_lines": spec.integer("extra_projective_lines", 0, minimum=0)}


class Context:
    """A running scenario: its truncation order and the values of the steps
    run so far, by id."""

    def __init__(self, order: int):
        self.order = order
        self.values = {}

    def resolve(self, obj):
        if isinstance(obj, str) and obj.startswith("$"):
            key = obj[1:]
            if key not in self.values:
                raise ScenarioParseError(f"reference to unknown step {key!r}")
            return self.values[key]
        if isinstance(obj, list):
            return [self.resolve(x) for x in obj]
        if isinstance(obj, dict):
            return {k: self.resolve(v) for k, v in obj.items()}
        return obj


def _instance(value, layer, cls) -> bool:
    """isinstance(value, stratify.<layer>.<cls>), without loading the layer:
    no value of a class whose module was never imported can exist."""
    module = sys.modules.get(f"{__package__}.{layer}")
    return module is not None and isinstance(value, getattr(module, cls))


# ---------------------------------------------------------------------------
# operation registry
# ---------------------------------------------------------------------------

OPS = {}
# the step arguments each op reads; any other argument is a parse error
OP_ARGS = {}


def op(name, *argnames):
    """Register an op under ``name``, reading the step arguments ``argnames``."""

    def deco(fn):
        OPS[name] = fn
        OP_ARGS[name] = frozenset(argnames)
        return fn

    return deco


@op("declare", "kind", "value", "order")
def _op_declare(ctx, args, step):
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"declared value in step {step['id']!r} carries no citation"
        )
    kind = args.choice("kind", ("series", "betti_table", "int", "raw"), "series")
    if kind == "series":
        return args.series("value", args.order(ctx.order))
    if kind == "betti_table":
        return args.table("value")
    if kind == "int":
        return args.integer("value")
    return args["value"]


@op("hypersurface_weights", "n", "d")
def _op_hw(ctx, args, step):
    from . import weights

    return weights.hypersurface_weights(args.integer("n"), args.integer("d"))


@op("instability_index_set", "weights", "budget", "weyl")
def _op_iis(ctx, args, step):
    from . import strata

    ws = args.instance("weights", "WeightSystem")
    budget = args.integer("budget", strata.DEFAULT_BUDGET)
    return strata.instability_index_set(ws, args.choice("weyl", ("sym", "trivial"), "sym"),
                                        budget)


@op("min_nonzero_codim", "strata")
def _op_min_codim(ctx, args, step):
    vals = [s.codim_expected for s in args.strata("strata") if not s.is_zero()]
    if not vals:
        raise ScenarioCheckError("no nonzero strata")
    return min(vals)


@op("codim_census", "strata", "up_to")
def _op_codim_census(ctx, args, step):
    census: dict = {}
    bound = args.integer("up_to", None)
    for s in args.strata("strata"):
        if s.is_zero():
            continue
        if bound is not None and s.codim_expected > bound:
            continue
        census[s.codim_expected] = census.get(s.codim_expected, 0) + 1
    return [[c, census[c]] for c in sorted(census)]


@op("mark_nonempty", "strata", "codims")
def _op_mark_nonempty(ctx, args, step):
    """Fill the nonemptiness flag of selected strata from declared input."""
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"nonemptiness declaration in step {step['id']!r} carries no citation"
        )
    codims = {items.integer(name) for items, name in args.each("codims", [])}
    out = []
    for s in args.strata("strata"):
        if not s.is_zero() and s.codim_expected in codims:
            out.append(s.replace(nonemptiness="declared"))
        else:
            out.append(s)
    return out


@op("maximal_support_report", "weights", "strata")
def _op_msr(ctx, args, step):
    from . import strata

    found = args.strata("strata")
    report = strata.maximal_support_report(args.instance("weights", "WeightSystem"), found)
    return [[r.r, r.codim_expected] for r in report]


@op("verify_strata_oracle", "weights", "strata", "max_support")
def _op_vso(ctx, args, step):
    from . import strata

    found = args.strata("strata")
    rows = args["weights"]
    if isinstance(rows, list):
        weights = args.matrix("weights")
        if any(len(w) != len(weights[0]) for w in weights):
            args.reject("weights", "a list of equally long vectors", rows)
    else:
        weights = args.weights("weights", "WeightSystem", "NormalRep",
                               "TangentNormalSplit").weights
    return strata.verify_strata_against_oracle(
        weights, found, args.integer("max_support", None)
    )


@op("parse_poly", "text", "nvars")
def _op_parse_poly(ctx, args, step):
    return args.polynomial("text", args.integer("nvars", minimum=1))


@op("check_semiinvariant", "form", "matrix")
def _op_check_semi(ctx, args, step):
    from . import orbits

    matrix = args.matrix("matrix")
    form = args.instance("form", "MultiPoly")
    n = form.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        args.reject("matrix", f"a {n} x {n} matrix, one row per variable", args["matrix"])
    rep = orbits.check_semiinvariant(form, matrix)
    return {"ok": rep.ok, "scalar": serialize.to_jsonable(rep.scalar) if rep.scalar is not None else None}


@op("normal_rep_of", "form", "cocharacters", "extra_tangents")
def _op_normal_rep(ctx, args, step):
    from . import orbits

    form = args.instance("form", "MultiPoly")
    n = form.nvars
    cochars = args.matrix("cocharacters")
    if not cochars or any(len(c) != n for c in cochars):
        args.reject("cocharacters", f"a nonempty list of vectors of length {n}",
                    args["cocharacters"])
    extra = [items.polynomial(name, n) for items, name in args.each("extra_tangents", [])]
    return orbits.normal_rep_of(form, cochars, extra)


@op("split_summary", "split")
def _op_split_summary(ctx, args, step):
    sp = args.instance("split", "TangentNormalSplit")
    return {"span_dim": sp.span_dim, "relation_count": sp.relation_count,
            "normal_dim": sp.normal.dim}


@op("normal_rep_strata", "rep", "group")
def _op_nrs(ctx, args, step):
    from . import strata

    rep = args.weights("rep", "NormalRep", "TangentNormalSplit")
    return strata.normal_rep_strata(rep, args.choice("group", ("torus", "pgl2")))


@op("weyl_fiber_count", "strata", "beta", "stabilizer_weyl")
def _op_wfc(ctx, args, step):
    from . import strata

    index_set = [s.beta for s in args.strata("strata")]
    beta = tuple(args.rational("beta", c) for c in args.listing("beta"))
    wr = None
    if args.choice("stabilizer_weyl", ("sign",), None) == "sign":
        wr = [lambda v: v, lambda v: tuple(-c for c in v)]
    return strata.weyl_fiber_count(beta, index_set, wr)


@op("classifying_series", "group", "n", "order")
def _op_classifying(ctx, args, step):
    order = args.order(ctx.order)
    group = args.choice("group", ("SL", "PGL", "GL", "torus", "mu"))
    n = args.integer("n", 0)
    # a factor of period 2i above the order is 1 in the truncation
    top = min(n, order // 2)
    if group in ("SL", "PGL"):
        return gf_expand([(2 * i, 1) for i in range(2, top + 1)], order)
    if group == "GL":
        return gf_expand([(2 * i, 1) for i in range(1, top + 1)], order)
    if group == "torus":
        return gf_expand([(2, n)], order)
    return TruncatedSeries.one(order)


@op("gf_expand", "factors", "order")
def _op_gf(ctx, args, step):
    factors = []
    for items, name in args.each("factors"):
        f = items[name]
        if not (isinstance(f, list) and len(f) == 2 and all(type(x) is int for x in f)):
            items.reject(name, "an integer pair [period, multiplicity]", f)
        factors.append(tuple(f))
    return gf_expand(factors, args.order(ctx.order))


@op("projective_series", "dim", "order")
def _op_proj(ctx, args, step):
    return projective_space_series(args.integer("dim"), args.order(ctx.order))


@op("projective_table", "dim")
def _op_proj_table(ctx, args, step):
    return BettiTable.of_projective_space(args.integer("dim"))


@op("series_product", "factors", "order")
def _op_series_product(ctx, args, step):
    order = args.order(ctx.order)
    total = TruncatedSeries.one(order)
    for items, name in args.each("factors"):
        total = total * items.series(name, order)
    return total


@op("lincomb", "terms", "order")
def _op_lincomb(ctx, args, step):
    order = args.order(ctx.order)
    terms = []
    for items, name in args.each("terms"):
        term = items[name]
        if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
            items.reject(name, "a list [coefficient, integer shift, series]", term)
        coeff, shift, ref = term
        if shift < 0:
            items.reject(name, "a list [coefficient, integer shift >= 0, series]", term)
        terms.append((items.rational(name, coeff), shift, items.series(name, order, ref)))
    return lincomb(terms)


@op("close_group", "generators", "ring", "cap")
def _op_close_group(ctx, args, step):
    from . import invariants

    return invariants.close_group(args.generators(),
                                  args.integer("cap", invariants.DEFAULT_CAP))


@op("group_order", "group")
def _op_group_order(ctx, args, step):
    return args.group("group").order


@op("molien", "group", "degree", "order")
def _op_molien(ctx, args, step):
    from . import invariants

    return invariants.molien(args.group("group"), args.integer("degree"),
                             args.order(ctx.order))


@op("semistable_series", "ambient_dim", "bsl_exponents", "strata", "order")
def _op_semistable(ctx, args, step):
    from . import assembly

    exponents = [items.integer(name, minimum=1) for items, name in args.each("bsl_exponents")]
    return assembly.semistable_series(
        args.integer("ambient_dim"),
        exponents,
        args.contributions("strata", ctx.order),
        args.order(ctx.order),
    )


@op("main_term", "center_series", "normal_rank", "order")
def _op_main_term(ctx, args, step):
    from . import assembly

    rank = args["normal_rank"]
    if _instance(rank, "orbits", "TangentNormalSplit"):
        rank = rank.normal.dim
    elif _instance(rank, "orbits", "NormalRep"):
        rank = rank.dim
    else:
        rank = args.integer("normal_rank")
    return assembly.main_term(
        args.series("center_series", args.order(ctx.order)),
        rank,
        args.order(ctx.order),
    )


@op("extra_term", "items", "order")
def _op_extra_term(ctx, args, step):
    from . import assembly

    return assembly.extra_term(
        args.contributions("items", ctx.order), args.order(ctx.order)
    )


@op("b_shift", "table", "order")
def _op_b_shift(ctx, args, step):
    from . import assembly

    return assembly.b_shift(args.instance("table", "BettiTable"), args.order(ctx.order))


@op("blowup_correction", "exceptional", "dim", "order")
def _op_blowup(ctx, args, step):
    from . import assembly

    return assembly.blowup_correction(
        args.instance("exceptional", "BettiTable"), args.integer("dim"),
        args.order(ctx.order)
    )


@op("duality_complete", "series", "dim", "order")
def _op_duality_complete(ctx, args, step):
    return duality_complete(
        args.series("series", args.order(ctx.order)), args.integer("dim")
    )


@op("duality_check", "table")
def _op_duality_check(ctx, args, step):
    return duality_check(args.instance("table", "BettiTable"))


@op("betti_product", "tables")
def _op_betti_product(ctx, args, step):
    tables = [items.instance(name, "BettiTable") for items, name in args.each("tables")]
    if not tables:
        args.reject("tables", "a nonempty list", tables)
    total = tables[0]
    for t in tables[1:]:
        total = total.kunneth(t)
    return total


@op("named_lattice", "name")
def _op_named_lattice(ctx, args, step):
    from . import eisenstein

    return eisenstein.named_lattice(args.lattice_name("name"))


@op("z_form", "lattice")
def _op_z_form(ctx, args, step):
    from . import eisenstein

    return eisenstein.z_form(args.instance("lattice", "EisLattice"))


@op("root_count", "lattice")
def _op_root_count(ctx, args, step):
    from . import eisenstein

    return len(eisenstein.enumerate_roots(args.z_lattice("lattice")))


@op("weyl_group", "lattice")
def _op_weyl_group(ctx, args, step):
    from . import eisenstein

    if isinstance(args["lattice"], str):
        return eisenstein.weyl_group(eisenstein.named_lattice(args.lattice_name("lattice")))
    return eisenstein.weyl_group(args.instance("lattice", "EisLattice"))


@op("abelian_quotient_betti", "group", "rank", "form")
def _op_aqb(ctx, args, step):
    from . import invariants

    rank = args.integer("rank")
    invariants.check_quotient_rank(rank)
    form = None if args.get("form") is None else args.eis_matrix("form", rank)
    return invariants.abelian_quotient_betti(args.group("group", "E"), rank, form=form)


@op("wreath_symmetrize", "value", "n", "order")
def _op_wreath(ctx, args, step):
    from . import invariants

    value = args["value"]
    if not isinstance(value, (BettiTable, TruncatedSeries)):
        value = args.series("value", args.order(ctx.order))
    return invariants.wreath_symmetrize(value, args.integer("n", minimum=1))


@op("boundary_betti", "spec")
def _op_boundary(ctx, args, step):
    from . import eisenstein

    return eisenstein.boundary_betti(args.boundary_spec("spec"))


@op("discriminant_form", "lattice")
def _op_disc(ctx, args, step):
    from . import eisenstein

    return eisenstein.discriminant_form(args.z_lattice("lattice"))


@op("glue_overlattice", "lattice", "glue")
def _op_glue(ctx, args, step):
    from . import eisenstein

    base = args.instance("lattice", "ZLattice")
    glue = args.matrix("glue")
    for items, name in args.each("glue"):
        if len(items[name]) != base.rank:
            items.reject(name, f"a vector of length {base.rank}, the lattice rank", items[name])
    res = eisenstein.glue_overlattice(base, glue)
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("glue_diagonal_norm12", "lattice", "copies")
def _op_glue_diag(ctx, args, step):
    """Glue n copies of a lattice along 1/3 of the diagonal norm-(-12) div-3 class."""
    from . import eisenstein

    base = args.instance("lattice", "ZLattice")
    copies = args.integer("copies", 3)
    n = base.rank
    z = eisenstein.find_norm_div_vector(base, -12, 3)
    if z is None:
        raise ScenarioCheckError("no norm -12 divisibility-3 vector found")
    big = [[0] * (n * copies) for _ in range(n * copies)]
    for c in range(copies):
        for i in range(n):
            for j in range(n):
                big[c * n + i][c * n + j] = base.gram[i][j]
    biglat = eisenstein.ZLattice(n * copies, tuple(tuple(r) for r in big))
    g = [Fraction(x, 3) for _ in range(copies) for x in z]
    res = eisenstein.glue_overlattice(biglat, [g])
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("verify_cusp_vector")
def _op_cusp_vector(ctx, args, step):
    from . import eisenstein

    rep = eisenstein.verify_unimodular_complement_vector()
    return {"ok": rep.ok, "norm": rep.norm, "div_ideal_norm": rep.div_norm}


@op("assert_nonpositive", "series", "order")
def _op_assert_nonpos(ctx, args, step):
    s = args.series("series", args.order(ctx.order))
    if any(c > 0 for c in s.coeffs):
        raise ScenarioCheckError(f"series has a positive coefficient: {s}")
    return True


@op("assert_true", "value")
def _op_assert_true(ctx, args, step):
    val = args["value"]
    if isinstance(val, dict):
        val = val.get("ok", False)
    if not val:
        raise ScenarioCheckError(f"assertion failed at step {step['id']!r}")
    return True


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class ScenarioReport:
    """What `run_scenario` returns: the step values, the checked output
    tables and the provenance ledger, with their json, latex, csv and text
    forms."""

    def __init__(self, name: str, description: str, steps: list, tables: dict,
                 provenance: list, notes: list):
        self.name = name
        self.description = description
        self.steps = steps
        self.tables = tables
        self.provenance = provenance
        self.notes = notes

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.name,
            "description": self.description,
            "backend": BACKEND,
            "steps": self.steps,
            "tables": {k: serialize.to_jsonable(v) for k, v in sorted(self.tables.items())},
            "provenance": self.provenance,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"

    def to_latex(self) -> str:
        lines = [r"% scenario: " + self.name]
        for label, table in sorted(self.tables.items()):
            n = table.complex_dim
            degrees = [str(2 * j) for j in range(n + 1)]
            lines.append(r"\begin{array}{l|" + "c" * (n + 1) + "}")
            lines.append("j & " + " & ".join(degrees) + r" \\ \hline")
            lines.append(
                label.replace("_", r"\_")
                + " & "
                + " & ".join(str(b) for b in table.even())
                + r" \\"
            )
            lines.append(r"\end{array}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["table,degree,betti"]
        for label, table in sorted(self.tables.items()):
            for j, b in enumerate(table.betti):
                lines.append(f"{label},{j},{b}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario {self.name}: all checks passed [{BACKEND} backend]"]
        width = max((len(k) for k in self.tables), default=0)
        for label, table in sorted(self.tables.items()):
            lines.append(f"  {label.ljust(width)}  even Betti {table.even()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def builtin_scenario_path(name: str):
    from importlib import resources

    return resources.files("stratify") / "scenarios" / f"{name}.json"


def load_scenario(source) -> dict:
    if isinstance(source, dict):
        return source
    name = str(source)
    if name in BUILTIN_SCENARIOS:
        text = builtin_scenario_path(name).read_text()
    elif os.path.exists(name):
        text = read_input(name)
    else:
        raise ScenarioParseError(
            f"no such scenario {name!r}; built-ins: {', '.join(BUILTIN_SCENARIOS)}"
        )
    try:
        doc = json.loads(text)
    except ValueError as e:  # malformed, or an integer beyond the digit limit
        raise ScenarioParseError(f"scenario is not valid JSON: {e}") from e
    return doc


def _validate(doc):
    if not isinstance(doc, dict) or "name" not in doc or "steps" not in doc:
        raise ScenarioParseError("scenario needs 'name' and 'steps'")
    if not (isinstance(doc["name"], str) and isinstance(doc.get("description", ""), str)):
        raise ScenarioParseError("scenario 'name' and 'description' must be strings")
    notes = doc.get("notes", [])
    if not (isinstance(notes, list) and all(isinstance(note, str) for note in notes)):
        raise ScenarioParseError("scenario 'notes' must be a list of strings")
    if not (isinstance(doc["steps"], list) and all(isinstance(s, dict) for s in doc["steps"])):
        raise ScenarioParseError("scenario 'steps' must be a list of objects")
    if not isinstance(doc.get("outputs", {}), dict):
        raise ScenarioParseError("scenario 'outputs' must be an object")
    if type(doc.get("order", 10)) is not int:
        raise ScenarioParseError("scenario 'order' must be an integer")
    check_order(doc.get("order", 10), "scenario 'order'")
    seen = set()
    for pos, step in enumerate(doc["steps"]):
        if "id" not in step or "op" not in step:
            raise ScenarioParseError("each step needs 'id' and 'op'")
        if isinstance(step["id"], (list, dict)):
            raise ScenarioParseError(f"steps[{pos}]: 'id' must not be a list or an object")
        if step["id"] in seen:
            raise ScenarioParseError(f"duplicate step id {step['id']!r}")
        if not isinstance(step["op"], str):
            raise ScenarioParseError(f"step {step['id']!r}: 'op' must be a string")
        if step["op"] not in OPS:
            raise ScenarioParseError(f"unknown op {step['op']!r}")
        if not isinstance(step.get("args", {}), dict):
            raise ScenarioParseError(f"arguments of step {step['id']!r} must be an object")
        unknown = sorted(set(step.get("args", {})) - OP_ARGS[step["op"]])
        if unknown:
            raise ScenarioParseError(
                f"step {step['id']!r}: op {step['op']!r} has no argument {unknown[0]!r}"
            )
        facts = step.get("facts", [])
        if not (isinstance(facts, list) and all(isinstance(f, dict) for f in facts)):
            raise ScenarioParseError(f"step {step['id']!r}: 'facts' must be a list of objects")
        for fact in facts:
            if not fact.get("cite"):
                raise ScenarioParseError(
                    f"fact without citation in step {step['id']!r}"
                )
        seen.add(step["id"])


def run_scenario(source) -> ScenarioReport:
    doc = load_scenario(source)
    _validate(doc)
    ctx = Context(order=doc.get("order", 10))
    step_reports = []
    provenance = []
    for step in doc["steps"]:
        args = StepArgs(f"step {step['id']!r}", ctx.resolve(step.get("args", {})))
        try:
            value = OPS[step["op"]](ctx, args, step)
        except (ScenarioParseError, ScenarioCheckError, ResourceCapError):
            raise
        except (ValueError, AssertionError, KeyError) as e:
            raise ScenarioCheckError(f"step {step['id']!r} failed: {e}") from e
        ctx.values[step["id"]] = value
        rep = {"id": step["id"], "op": step["op"]}
        jexpect = step.get("expect")
        if jexpect is not None:
            got = serialize.to_jsonable(value)
            if got != jexpect:
                raise ScenarioCheckError(
                    f"step {step['id']!r} mismatch:\n  expected {jexpect}\n  got      {got}"
                )
            rep["checked"] = True
        try:
            rep["value"] = serialize.to_jsonable(value)
        except TypeError:
            rep["value"] = repr(value)
        step_reports.append(rep)
        for fact in step.get("facts", []):
            provenance.append({"step": step["id"], **fact})
    tables = {}
    for label, ref in doc.get("outputs", {}).items():
        value = ctx.resolve(ref)
        if not isinstance(value, BettiTable):
            raise ScenarioCheckError(f"output {label!r} is not a Betti table")
        rep = duality_check(value)
        if not rep.ok:
            raise ScenarioCheckError(f"output {label!r} fails duality: {rep.message}")
        tables[label] = value
    return ScenarioReport(
        name=doc["name"],
        description=doc.get("description", ""),
        steps=step_reports,
        tables=tables,
        provenance=provenance,
        notes=doc.get("notes", []),
    )
