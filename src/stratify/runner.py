"""Declarative scenario pipelines.

A scenario file is a JSON document with a list of named steps; each step
invokes one registered operation with literal inputs and references to
earlier steps ("$id").  Declared geometric facts must carry citations, and
any step may pin an expected output; mismatches fail the run with a diff.
The emitted report is deterministic, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import assembly, eisenstein, invariants, orbits, serialize, strata, weights
from ._backend import BACKEND, ResourceCapError
from .series import (
    BettiTable,
    TruncatedSeries,
    duality_check,
    duality_complete,
    gf_expand,
    lincomb,
    projective_space_series,
)


class ScenarioParseError(ValueError):
    pass


class ScenarioCheckError(AssertionError):
    pass


_REQUIRED = object()

# Truncation-order cap: series work grows with the square of the order, and
# the built-in scenarios use at most 10.
MAX_ORDER = 1000


def check_order(order: int) -> int:
    """A truncation order (scenario, step or --truncate) within `MAX_ORDER`."""
    if order > MAX_ORDER:
        raise ResourceCapError(f"truncation order {order} exceeds the cap {MAX_ORDER}")
    return order


class StepArgs(dict):
    """Resolved arguments of one step, or an object nested in them.

    A missing required argument, or a value of the wrong kind where an op
    needs an integer, a list or an object, is a parse error naming the step
    and the field.
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
        return check_order(self.integer("order", default))

    def listing(self, key, default=_REQUIRED) -> list:
        """List argument ``key``."""
        value = self._get(key, default)
        if not isinstance(value, list):
            self.reject(key, "a list", value)
        return value

    def nested(self, key, value) -> "StepArgs":
        """The object ``value`` found under ``key``, with its own checks."""
        if not isinstance(value, dict):
            self.reject(key, "an object", value)
        return StepArgs(self.where, value, f"{self.path}.{key}" if self.path else key)


@dataclass
class Context:
    order: int
    values: dict = field(default_factory=dict)
    cache_dir: str | None = None

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


def _as_series(value, order) -> TruncatedSeries:
    if isinstance(value, TruncatedSeries):
        return value.truncate(min(order, value.order))
    if isinstance(value, int):
        return TruncatedSeries.one(order).scale(value)
    if isinstance(value, dict) and value.get("kind") == "series":
        return serialize.series_from_jsonable(value)
    if isinstance(value, list):
        # [[degree, num] or [degree, num, den], ...]
        coeffs = [Fraction(0)] * (order + 1)
        for item in value:
            d, num = item[0], item[1]
            den = item[2] if len(item) > 2 else 1
            if d <= order:
                coeffs[d] = Fraction(num, den)
        return TruncatedSeries.from_coeffs(coeffs, order)
    raise ScenarioParseError(f"cannot interpret {value!r} as a series")


def _as_rational(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, list) and len(value) == 2:
        return Fraction(value[0], value[1])
    raise ScenarioParseError(f"cannot interpret {value!r} as a rational")


def _as_matrix(rows):
    return [[_as_rational(x) for x in row] for row in rows]


def _strata_list(value):
    if isinstance(value, list):
        return value
    raise ScenarioParseError("expected a list of strata")


def _contributions(args, key, ctx) -> list:
    out = []
    for i, spec in enumerate(args.listing(key, [])):
        spec = args.nested(f"{key}[{i}]", spec)
        series = _as_series(ctx.resolve(spec.get("series", 1)), ctx.order)
        out.append(
            assembly.StratumContribution(
                codim=spec.integer("codim"),
                series=series,
                weyl_share=spec.integer("weyl_share", 1),
                provenance=spec.get("provenance", ""),
            )
        )
    return out


# ---------------------------------------------------------------------------
# operation registry
# ---------------------------------------------------------------------------

OPS = {}


def op(name):
    def deco(fn):
        OPS[name] = fn
        return fn

    return deco


@op("declare")
def _op_declare(ctx, args, step):
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"declared value in step {step['id']!r} carries no citation"
        )
    kind = args.get("kind", "series")
    value = args["value"]
    if kind == "series":
        return _as_series(value, args.order(ctx.order))
    if kind == "betti_table":
        return serialize.table_from_jsonable(value)
    if kind == "int":
        return int(value)
    if kind == "raw":
        return value
    raise ScenarioParseError(f"unknown declare kind {kind!r}")


@op("hypersurface_weights")
def _op_hw(ctx, args, step):
    return weights.hypersurface_weights(args.integer("n"), args.integer("d"))


@op("instability_index_set")
def _op_iis(ctx, args, step):
    ws = args["weights"]
    budget = args.integer("budget", strata.DEFAULT_BUDGET)
    return strata.instability_index_set(ws, args.get("weyl", "sym"), budget)


@op("min_nonzero_codim")
def _op_min_codim(ctx, args, step):
    vals = [s.codim_expected for s in _strata_list(args["strata"]) if not s.is_zero()]
    if not vals:
        raise ScenarioCheckError("no nonzero strata")
    return min(vals)


@op("codim_census")
def _op_codim_census(ctx, args, step):
    census: dict = {}
    bound = args.integer("up_to", None)
    for s in _strata_list(args["strata"]):
        if s.is_zero():
            continue
        if bound is not None and s.codim_expected > bound:
            continue
        census[s.codim_expected] = census.get(s.codim_expected, 0) + 1
    return [[c, census[c]] for c in sorted(census)]


@op("mark_nonempty")
def _op_mark_nonempty(ctx, args, step):
    """Fill the nonemptiness flag of selected strata from declared input."""
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"nonemptiness declaration in step {step['id']!r} carries no citation"
        )
    from dataclasses import replace

    codims = set(args.get("codims", []))
    out = []
    for s in _strata_list(args["strata"]):
        if not s.is_zero() and s.codim_expected in codims:
            out.append(replace(s, nonemptiness="declared"))
        else:
            out.append(s)
    return out


@op("maximal_support_report")
def _op_msr(ctx, args, step):
    report = strata.maximal_support_report(args["weights"], args["strata"])
    return [[r.r, r.codim_expected] for r in report]


@op("verify_strata_oracle")
def _op_vso(ctx, args, step):
    ws = args["weights"]
    if isinstance(ws, orbits.TangentNormalSplit):
        ws = ws.normal
    if isinstance(ws, (weights.WeightSystem, orbits.NormalRep)):
        ws = ws.weights
    return strata.verify_strata_against_oracle(
        ws, args["strata"], args.integer("max_support", None)
    )


@op("parse_poly")
def _op_parse_poly(ctx, args, step):
    return orbits.parse_poly(args["text"], args.integer("nvars"))


@op("check_semiinvariant")
def _op_check_semi(ctx, args, step):
    rep = orbits.check_semiinvariant(args["form"], _as_matrix(args["matrix"]))
    return {"ok": rep.ok, "scalar": serialize.to_jsonable(rep.scalar) if rep.scalar is not None else None}


@op("normal_rep_of")
def _op_normal_rep(ctx, args, step):
    return orbits.normal_rep_of(
        args["form"], args["cocharacters"], args.get("extra_tangents", ())
    )


@op("split_summary")
def _op_split_summary(ctx, args, step):
    sp = args["split"]
    return {"span_dim": sp.span_dim, "relation_count": sp.relation_count,
            "normal_dim": sp.normal.dim}


@op("normal_rep_strata")
def _op_nrs(ctx, args, step):
    rep = args["rep"]
    if isinstance(rep, orbits.TangentNormalSplit):
        rep = rep.normal
    return strata.normal_rep_strata(rep, args["group"])


@op("weyl_fiber_count")
def _op_wfc(ctx, args, step):
    sl = _strata_list(args["strata"])
    index_set = [s.beta for s in sl]
    beta = tuple(_as_rational(c) for c in args["beta"])
    wr = None
    if args.get("stabilizer_weyl") == "sign":
        wr = [lambda v: v, lambda v: tuple(-c for c in v)]
    return strata.weyl_fiber_count(beta, index_set, wr)


@op("classifying_series")
def _op_classifying(ctx, args, step):
    order = args.order(ctx.order)
    group = args["group"]
    n = args.integer("n", 0)
    if group in ("SL", "PGL"):
        return gf_expand([(2 * i, 1) for i in range(2, n + 1)], order)
    if group == "GL":
        return gf_expand([(2 * i, 1) for i in range(1, n + 1)], order)
    if group == "torus":
        return gf_expand([(2, n)], order)
    if group == "mu":
        return TruncatedSeries.one(order)
    raise ScenarioParseError(f"unknown classifying space {group!r}")


@op("gf_expand")
def _op_gf(ctx, args, step):
    factors = args.listing("factors")
    for i, f in enumerate(factors):
        if not (isinstance(f, list) and len(f) == 2 and all(type(x) is int for x in f)):
            args.reject(f"factors[{i}]", "an integer pair [period, multiplicity]", f)
    return gf_expand([tuple(f) for f in factors], args.order(ctx.order))


@op("projective_series")
def _op_proj(ctx, args, step):
    return projective_space_series(args.integer("dim"), args.order(ctx.order))


@op("projective_table")
def _op_proj_table(ctx, args, step):
    return BettiTable.of_projective_space(args.integer("dim"))


@op("series_product")
def _op_series_product(ctx, args, step):
    order = args.order(ctx.order)
    total = TruncatedSeries.one(order)
    for f in args["factors"]:
        total = total * _as_series(f, order)
    return total


@op("lincomb")
def _op_lincomb(ctx, args, step):
    order = args.order(ctx.order)
    terms = []
    for i, term in enumerate(args.listing("terms")):
        if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
            args.reject(f"terms[{i}]", "a list [coefficient, integer shift, series]", term)
        coeff, shift, ref = term
        terms.append((_as_rational(coeff), shift, _as_series(ref, order)))
    return lincomb(terms)


@op("close_group")
def _op_close_group(ctx, args, step):
    gens = args["generators"]
    if args.get("ring") == "E":
        gens = [[[tuple(e) for e in row] for row in m] for m in gens]
    else:
        gens = [_as_matrix(m) for m in gens]
    return invariants.close_group(gens, args.integer("cap", invariants.DEFAULT_CAP),
                                  cache_dir=ctx.cache_dir)


@op("group_order")
def _op_group_order(ctx, args, step):
    return args["group"].order


@op("molien")
def _op_molien(ctx, args, step):
    return invariants.molien(args["group"], args.integer("degree"),
                             args.order(ctx.order))


@op("semistable_series")
def _op_semistable(ctx, args, step):
    return assembly.semistable_series(
        args.integer("ambient_dim"),
        args["bsl_exponents"],
        _contributions(args, "strata", ctx),
        args.order(ctx.order),
    )


@op("main_term")
def _op_main_term(ctx, args, step):
    rank = args["normal_rank"]
    if isinstance(rank, orbits.TangentNormalSplit):
        rank = rank.normal.dim
    elif isinstance(rank, orbits.NormalRep):
        rank = rank.dim
    else:
        rank = args.integer("normal_rank")
    return assembly.main_term(
        _as_series(args["center_series"], args.order(ctx.order)),
        rank,
        args.order(ctx.order),
    )


@op("extra_term")
def _op_extra_term(ctx, args, step):
    return assembly.extra_term(
        _contributions(args, "items", ctx), args.order(ctx.order)
    )


@op("b_shift")
def _op_b_shift(ctx, args, step):
    return assembly.b_shift(args["table"], args.order(ctx.order))


@op("blowup_correction")
def _op_blowup(ctx, args, step):
    return assembly.blowup_correction(
        args["exceptional"], args.integer("dim"), args.order(ctx.order)
    )


@op("duality_complete")
def _op_duality_complete(ctx, args, step):
    return duality_complete(
        _as_series(args["series"], args.order(ctx.order)), args.integer("dim")
    )


@op("duality_check")
def _op_duality_check(ctx, args, step):
    return duality_check(args["table"])


@op("betti_product")
def _op_betti_product(ctx, args, step):
    tables = args["tables"]
    total = tables[0]
    for t in tables[1:]:
        total = total.kunneth(t)
    return total


@op("named_lattice")
def _op_named_lattice(ctx, args, step):
    return eisenstein.named_lattice(args["name"])


@op("z_form")
def _op_z_form(ctx, args, step):
    return eisenstein.z_form(args["lattice"])


@op("root_count")
def _op_root_count(ctx, args, step):
    lat = args["lattice"]
    if isinstance(lat, eisenstein.EisLattice):
        lat = eisenstein.z_form(lat)
    return len(eisenstein.enumerate_roots(lat))


@op("weyl_group")
def _op_weyl_group(ctx, args, step):
    lat = args["lattice"]
    if isinstance(lat, str):
        lat = eisenstein.named_lattice(lat)
    return eisenstein.weyl_group(lat, cap=args.integer("cap", invariants.DEFAULT_CAP),
                                 cache_dir=ctx.cache_dir)


@op("abelian_quotient_betti")
def _op_aqb(ctx, args, step):
    return invariants.abelian_quotient_betti(args["group"], args.integer("rank"),
                                             form=args.get("form"))


@op("wreath_symmetrize")
def _op_wreath(ctx, args, step):
    return invariants.wreath_symmetrize(args["value"], args.integer("n"))


def _eis_matrix(value) -> bool:
    """Whether ``value`` is a square matrix of integers or [a, b] integer pairs."""
    return isinstance(value, list) and all(
        isinstance(row, list) and len(row) == len(value)
        and all(type(e) is int or (isinstance(e, list) and len(e) == 2
                                   and all(type(x) is int for x in e)) for e in row)
        for row in value
    )


def boundary_spec(args: StepArgs) -> dict:
    """The ``spec`` argument of `eisenstein.boundary_betti`, every field checked."""
    spec = args.nested("spec", args["spec"])
    factors = []
    for i, factor in enumerate(spec.listing("factors")):
        factor = spec.nested(f"factors[{i}]", factor)
        lattice = factor["lattice"]
        if not isinstance(lattice, (str, eisenstein.EisLattice)):
            factor.reject("lattice", "a lattice or a lattice name", lattice)
        group = factor.get("group", "weyl")
        if group != "weyl":
            group = factor.nested("group", group)
            gens = group.listing("generators")
            for j, mat in enumerate(gens):
                if not _eis_matrix(mat):
                    group.reject(f"generators[{j}]",
                                 "a square matrix of integers or [a, b] pairs", mat)
            group = {"generators": gens}
        factors.append({"lattice": lattice, "group": group,
                        "count": factor.integer("count", 1, minimum=1)})
    return {"factors": factors,
            "extra_projective_lines": spec.integer("extra_projective_lines", 0, minimum=0)}


@op("boundary_betti")
def _op_boundary(ctx, args, step):
    return eisenstein.boundary_betti(boundary_spec(args))


@op("discriminant_form")
def _op_disc(ctx, args, step):
    lat = args["lattice"]
    if isinstance(lat, eisenstein.EisLattice):
        lat = eisenstein.z_form(lat)
    return eisenstein.discriminant_form(lat)


@op("glue_overlattice")
def _op_glue(ctx, args, step):
    base = args["lattice"]
    glue = [[_as_rational(x) for x in g] for g in args["glue"]]
    res = eisenstein.glue_overlattice(base, glue)
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("glue_diagonal_norm12")
def _op_glue_diag(ctx, args, step):
    """Glue n copies of a lattice along 1/3 of the diagonal norm-(-12) div-3 class."""
    base = args["lattice"]
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
    rep = eisenstein.verify_unimodular_complement_vector()
    return {"ok": rep.ok, "norm": rep.norm, "div_ideal_norm": rep.div_norm}


@op("assert_nonpositive")
def _op_assert_nonpos(ctx, args, step):
    s = _as_series(args["series"], args.order(ctx.order))
    if any(c > 0 for c in s.coeffs):
        raise ScenarioCheckError(f"series has a positive coefficient: {s}")
    return True


@op("assert_true")
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


@dataclass
class ScenarioReport:
    name: str
    description: str
    steps: list
    tables: dict
    provenance: list
    notes: list

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

    def to_text(self) -> str:
        lines = [f"scenario {self.name}: all checks passed [{BACKEND} backend]"]
        width = max((len(k) for k in self.tables), default=0)
        for label, table in sorted(self.tables.items()):
            lines.append(f"  {label.ljust(width)}  even Betti {table.even()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def builtin_scenario_path(name: str):
    pkg = resources.files("stratify") / "scenarios" / f"{name}.json"
    return pkg


BUILTIN_SCENARIOS = ("cubic3fold", "cubicsurf", "cubiccurve", "binary12")


def load_scenario(source) -> dict:
    if isinstance(source, dict):
        return source
    name = str(source)
    if name in BUILTIN_SCENARIOS:
        text = builtin_scenario_path(name).read_text()
    elif os.path.exists(name):
        with open(name) as fh:
            text = fh.read()
    else:
        raise ScenarioParseError(
            f"no such scenario {name!r}; built-ins: {', '.join(BUILTIN_SCENARIOS)}"
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"scenario is not valid JSON: {e}") from e
    return doc


def _validate(doc):
    if "name" not in doc or "steps" not in doc:
        raise ScenarioParseError("scenario needs 'name' and 'steps'")
    if type(doc.get("order", 10)) is not int:
        raise ScenarioParseError("scenario 'order' must be an integer")
    check_order(doc.get("order", 10))
    seen = set()
    for step in doc["steps"]:
        if "id" not in step or "op" not in step:
            raise ScenarioParseError("each step needs 'id' and 'op'")
        if step["id"] in seen:
            raise ScenarioParseError(f"duplicate step id {step['id']!r}")
        if step["op"] not in OPS:
            raise ScenarioParseError(f"unknown op {step['op']!r}")
        if not isinstance(step.get("args", {}), dict):
            raise ScenarioParseError(f"arguments of step {step['id']!r} must be an object")
        for fact in step.get("facts", []):
            if not fact.get("cite"):
                raise ScenarioParseError(
                    f"fact without citation in step {step['id']!r}"
                )
        seen.add(step["id"])


def run_scenario(source, cache_dir: str | None = None) -> ScenarioReport:
    doc = load_scenario(source)
    _validate(doc)
    ctx = Context(order=doc.get("order", 10), cache_dir=cache_dir)
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
